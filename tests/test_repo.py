"""Repository hygiene: build output and generated files stay untracked, and
the package defines nothing that only the tests call."""

import ast
import re
import shutil
import subprocess
from pathlib import Path

import pytest

import ruminalg

ROOT = Path(__file__).resolve().parent.parent


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=60)


def test_no_ignored_file_is_tracked():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    top = _git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git checkout")
    listed = _git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == "", f"tracked files that .gitignore excludes:\n{listed.stdout}"


def _allow_list() -> set:
    """The names the package docstring keeps for callers outside the package:
    the first word of each entry indented four spaces."""
    return set(re.findall(r"^    (\w+)  +\S", ruminalg.__doc__, re.MULTILINE))


def _references(tree) -> set:
    """Every name, attribute and string constant in `tree`, except the
    strings of an `__all__` list (exporting a name does not call it)."""
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported.update(id(c) for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in exported:
            out.add(node.value)
    return out


def test_every_definition_has_a_caller_outside_the_tests():
    # A function, method or class of the package must be referenced somewhere
    # in src/ruminalg or perfbench/: as a name, an attribute, or a string
    # constant (the perfbench tracer looks some up with getattr).  A name on
    # the allow-list must be referenced nowhere in src/ruminalg: once the
    # package calls it, the entry is stale.
    defined, referenced, in_package = {}, set(), set()
    for top in (ROOT / "src" / "ruminalg", ROOT / "perfbench"):
        for path in sorted(top.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            refs = _references(tree)
            referenced |= refs
            if top.name == "ruminalg":
                in_package |= refs
                for node in ast.walk(tree):
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                        defined.setdefault(node.name, f"{path.relative_to(ROOT)}:{node.lineno}")
    allowed = _allow_list()
    assert allowed and allowed <= set(defined), f"allow-list names not defined: {allowed - set(defined)}"
    assert not allowed & in_package, f"allow-list names the package calls: {sorted(allowed & in_package)}"
    unused = sorted(
        f"{where} {name}"
        for name, where in defined.items()
        if name not in referenced and name not in allowed and not (name.startswith("__") and name.endswith("__"))
    )
    assert unused == [], "defined in the package but referenced only by tests, if at all:\n" + "\n".join(unused)
