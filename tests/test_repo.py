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


def test_every_definition_has_a_caller_outside_the_tests():
    # A function, method or class of the package must be referenced somewhere
    # in src/ruminalg or perfbench/: as a name, an attribute, or a string
    # constant (the perfbench tracer looks some up with getattr).
    defined, referenced = {}, set()
    for top in (ROOT / "src" / "ruminalg", ROOT / "perfbench"):
        for path in sorted(top.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if top.name == "ruminalg":
                        defined.setdefault(node.name, f"{path.relative_to(ROOT)}:{node.lineno}")
                elif isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    referenced.add(node.value)
    allowed = _allow_list()
    assert allowed and allowed <= set(defined), f"allow-list names not defined: {allowed - set(defined)}"
    unused = sorted(
        f"{where} {name}"
        for name, where in defined.items()
        if name not in referenced and name not in allowed and not (name.startswith("__") and name.endswith("__"))
    )
    assert unused == [], "defined in the package but referenced only by tests, if at all:\n" + "\n".join(unused)
