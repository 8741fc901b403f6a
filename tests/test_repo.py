"""Repository hygiene: build output and generated files stay untracked, and
the package defines nothing that only the tests call."""

import ast
import importlib
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ruminalg
from ruminalg import finite

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


def _references(tree):
    """The bare names in `tree`, and its attribute names and string
    constants, except the strings of an `__all__` list (exporting a name
    does not call it)."""
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported.update(id(c) for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    names, dotted = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            dotted.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in exported:
            dotted.add(node.value)
    return names, dotted


def test_every_definition_has_a_caller_outside_the_tests():
    # A function, method or class of the package must be referenced somewhere
    # in src/ruminalg or perfbench/: a function or class as a name, an
    # attribute or a string constant (the perfbench tracer looks some up with
    # getattr), a method only as an attribute or a string constant -- a bare
    # name that equals a method's is some other variable.  A name on the
    # allow-list must be referenced nowhere in src/ruminalg: once the package
    # calls it, the entry is stale.
    defined, functions = {}, set()  # functions: names defined other than as a method
    names, dotted, in_package = set(), set(), set()
    for top in (ROOT / "src" / "ruminalg", ROOT / "perfbench"):
        for path in sorted(top.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            bare, attrs = _references(tree)
            names |= bare
            dotted |= attrs
            if top.name == "ruminalg":
                in_package |= bare | attrs
                methods = {
                    id(n)
                    for c in ast.walk(tree)
                    if isinstance(c, ast.ClassDef)
                    for n in c.body
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                for node in ast.walk(tree):
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                        defined.setdefault(node.name, f"{path.relative_to(ROOT)}:{node.lineno}")
                        if id(node) not in methods:
                            functions.add(node.name)
    allowed = _allow_list()
    assert allowed and allowed <= set(defined), f"allow-list names not defined: {allowed - set(defined)}"
    assert not allowed & in_package, f"allow-list names the package calls: {sorted(allowed & in_package)}"
    # A name defined both as a method and as a function counts its bare uses.
    referenced = dotted | (names & functions)
    unused = sorted(
        f"{where} {name}"
        for name, where in defined.items()
        if name not in referenced and name not in allowed and not (name.startswith("__") and name.endswith("__"))
    )
    assert unused == [], "defined in the package but referenced only by tests, if at all:\n" + "\n".join(unused)


def test_the_benchmark_finds_the_names_it_wraps(monkeypatch):
    # perfbench wraps and calls program names by attribute; importing its
    # workloads and installing its tracer fails at once when one is renamed
    # or deleted.  A failed install is undone too, so no later test runs
    # against a half-wrapped program.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    original = finite.FiniteGradedAlgebra.mu_vec
    tracer = None
    try:
        tracing = importlib.import_module("tracing")
        importlib.import_module("workloads")
        tracer = tracing.Tracer()
        tracer.install()
        assert finite.FiniteGradedAlgebra.mu_vec is not original
    finally:
        if tracer is not None:
            tracer.uninstall()
        for name in ("tracing", "workloads", "reference"):
            sys.modules.pop(name, None)
    assert finite.FiniteGradedAlgebra.mu_vec is original
    assert ruminalg.kernel_name()


WORKLOAD_NAMES = ("symbolic-n3", "lefschetz-cold-n5", "ce-sweep", "eval-roundtrip")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_each_benchmark_workload_passes_its_checks(monkeypatch, name):
    # The benchmark's correctness stage on one cold pass at seed 1: a change
    # that breaks a workload's checks fails here, before any timing run.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    try:
        workloads = importlib.import_module("workloads")
        assert sorted(workloads.WORKLOADS) == sorted(WORKLOAD_NAMES)
        workload = workloads.WORKLOADS[name](1)
        workload.fresh()
        steps = list(workload.run_pass())
        assert [s for s in steps if s.failed != s.known] == []
        assert sum(s.checks for s in steps) == workload.expected_checks()
        assert workload.verify() == []
    finally:
        for module in ("workloads", "reference"):
            sys.modules.pop(module, None)
