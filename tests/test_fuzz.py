"""Fuzz tests of the input languages: any input ends in success or in the
documented exit code with one line, and no traceback, within a deadline.

Algebra files come from a small grammar of `algebra`, `basis`, `d` and `mu`
records over a few labels, so that records often name the same entries and
add up, with hostile fields mixed in: numbers of 4,300 digits (the most
Python reads and prints) whose sums, products and successors have more,
zero denominators, text the format does not read, and unknown labels.
"""

import contextlib
import io
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruminalg import cli
from ruminalg.finite import FiniteGradedAlgebra

NINES = "9" * 4300

LABELS = ["u", "v", "w", "x", "1", "-u", "é", NINES]
DEGREES = ["0", "1", "2"]
SUCCESSOR = {"0": "1", "1": "2"}
HOSTILE_DEGREES = ["-1", NINES, "-" + NINES, "9" + NINES, "+1", "1_0", "٣"]
COEFFS = ["1", "-1", "2", "1/2", "-3/4", NINES, "-" + NINES, "1/" + NINES]
HOSTILE_COEFFS = ["0", "1/0", "0/0", "9" + NINES, "1.5", "+2"]
# lines the format refuses as a whole, and lines it skips
ODD_LINES = ["frobnicate u", "basis u", "basis u 0", "d u v", "mu u u u 1 1", "algebra", "# a comment", "",
             "basis u#1 0"]


def _pick(draw, usual, hostile):
    """Mostly one of the `usual` fields, so that many files load and print;
    one time in ten a `hostile` one."""
    return draw(st.sampled_from(hostile if draw(st.integers(0, 9)) == 9 else usual))


@st.composite
def algebra_files(draw) -> str:
    declared = draw(st.lists(st.sampled_from(LABELS), min_size=2, max_size=4, unique=True))
    degrees = {label: _pick(draw, DEGREES, HOSTILE_DEGREES) for label in declared}
    lines = [f"basis {label} {degree}" for label, degree in degrees.items()]
    names = st.sampled_from(declared + ["zz"])  # "zz" is never declared
    pairs = [(a, b) for a in declared for b in declared]
    # most d records go one degree up, as the format asks
    steps = [(a, b) for a, b in pairs if degrees[b] == SUCCESSOR.get(degrees[a])]
    for _ in range(draw(st.integers(1, 5))):
        kind = _pick(draw, ["d"], ["mu", "algebra", "odd"])
        coeff = _pick(draw, COEFFS, HOSTILE_COEFFS)
        if kind == "d":
            src, dst = _pick(draw, steps or pairs, [("zz", declared[0]), (declared[0], "zz")])
            record = f"d {src} {dst} {coeff}"
        elif kind == "mu":
            record = f"mu {draw(names)} {draw(names)} {draw(names)} {coeff}"
        elif kind == "algebra":
            record = f"algebra {draw(st.sampled_from(LABELS))}"
        else:
            record = draw(st.sampled_from(ODD_LINES))
        lines += [record] * draw(st.integers(1, 3))  # a repeated record adds up
    return "\n".join(draw(st.permutations(lines))) + "\n"


@pytest.fixture(scope="module")
def algebra_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.alg"


def _entries(alg) -> tuple:
    """What an algebra is: its name, its basis and its nonzero entries (a
    row whose records add up to zero is no entry)."""
    d = {(src, dst): c for src, row in alg.d.items() for dst, c in row.items()}
    mu = {(*pair, dst): c for pair, row in alg.mu.items() for dst, c in row.items()}
    return alg.name, alg.basis, d, mu


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=timedelta(seconds=2), derandomize=True)
@given(text=algebra_files(), dump=st.booleans())
def test_every_algebra_file_ends_in_an_exit_code_and_one_line(algebra_path, text, dump):
    algebra_path.write_text(text, encoding="utf-8")
    code, out, err = _run(["cohomology", str(algebra_path)] + ["--dump"] * dump)
    assert code in (0, 1, 2)
    assert len(err.splitlines()) <= 1 and "Traceback" not in err
    if code:
        assert out == "" and err.startswith("error: ")
        return
    assert err == ""
    if dump:
        # the dump loads back to the algebra the file describes
        again = FiniteGradedAlgebra.loads(out)
        assert _entries(again) == _entries(FiniteGradedAlgebra.loads(text))
        assert again.dumps() == out
