import json
import math
import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import ruminalg
from ruminalg import __version__, cli
from ruminalg.cli import main
from ruminalg.finite import heisenberg_ce_algebra
from ruminalg.forms import ContactModel
from ruminalg.suites import SUITE_NAMES, SUITES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_examples(capsys):
    code, out, _ = run(capsys, "eval", "pi(dx1^dy1)", "--n", "1")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "eval", "gamma(dx1^dy1)")
    assert code == 0 and out.strip() == "theta"
    code, out, _ = run(capsys, "eval", "m3(dx1; dy1; dx1)")
    assert code == 0 and out.strip() == "2 theta^dx1"
    code, out, _ = run(capsys, "eval", "dz", "--n", "2")
    assert code == 0 and out.strip() == "theta + (y1) dx1 + (y2) dx2"


def test_eval_output_refeeds(capsys):
    code, out, _ = run(capsys, "eval", "f2(dx1; dy1)")
    assert code == 0
    # leading '-' needs the usual argparse '--' separator
    code2, out2, _ = run(capsys, "eval", "--", out.strip())
    assert code2 == 0 and out2 == out


def test_eval_syntax_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "theta ^")
    assert code == 2 and "syntax error" in err


def test_eval_domain_error_exit_1(capsys):
    code, _, err = run(capsys, "eval", "m2(dx1^dy1; dx1)")
    assert code == 1 and "m2" in err


@pytest.mark.parametrize(
    "expr, code, message",
    [
        ("m2(theta; theta) )", 1, "m2:"),  # m2's DomainError comes before the stray ')'
        ("theta + dx1^dy1 +", 1, "degree mixing"),  # the sum fails before the missing term
        ("theta ^", 2, "syntax error"),
    ],
)
def test_eval_first_error_met_decides_exit(capsys, expr, code, message):
    # The input is evaluated as it is read, so the first error met wins.
    got, out, err = run(capsys, "eval", expr)
    assert got == code and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err


def test_eval_power_over_term_budget_exit_1(capsys):
    code, out, err = run(capsys, "eval", "((1+x1)**3000)")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "more than 1001 terms" in err and "1000" in err


@pytest.mark.parametrize(
    "expr, code, message",
    [
        ("(x1**2147483647)", 0, None),  # the largest exponent a monomial may hold
        ("(x1**2147483648)", 1, "power 2147483648"),  # refused before any product
        ("(x1**2147483647*x1)", 1, "exponent above the limit of 2147483647"),  # by the product
        ("d((z*y1**2147483647))", 1, "d: an exponent above"),  # by the y1 d/dz part of X_1
    ],
)
def test_eval_exponent_budget(capsys, expr, code, message):
    got, out, err = run(capsys, "eval", expr)
    assert got == code
    if message is None:
        assert out == f"{expr}\n" and err == ""
    else:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "expr",
    ["(2**99999999999)", "((2*x1)**2000000000)", "(2**300000000)", "((1/3)**99999999999) theta",
     "((1048575*x1 + 1048573)**999)"],  # under the term and bit budgets, not the work budget
)
def test_eval_power_over_coefficient_budget_exit_1(capsys, expr):
    # refused before powering, where it once ran out of memory or time
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", expr)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "bits, above the limit of" in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "expr, n, seconds",
    [("dz", 1000, 5), ("d(dz)", 1000, 5), ("gamma(dx1^dy1)", 1000, 5), ("dz", 3000, 1)],
)
def test_eval_at_large_n(capsys, expr, n, seconds):
    # canonical text reads only the coordinates a monomial uses
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", expr, "--n", str(n))
    assert code == 0 and err == "" and len(out.splitlines()) == 1
    assert time.perf_counter() - start < seconds


@pytest.mark.parametrize("power", ["2000", "9" * 100])
def test_eval_lefschetz_power_above_n_is_zero(capsys, power):
    # dtheta^k = 0 once k > n, whatever the size of k
    code, out, err = run(capsys, "eval", f"L(theta, {power})", "--n", "1")
    assert code == 0 and out.strip() == "0" and err == ""


def test_eval_lefschetz_inside_the_walk_budget(capsys):
    # C(300, 2) = 44,850 and C(17, 8) = 24,310 coframe terms in the widest
    # step stay under forms.MAX_MONOMIALS
    code, out, err = run(capsys, "eval", "L(theta,2)", "--n", "300")
    assert code == 0 and err == "" and out.count("theta^") == 44_850
    assert out.startswith("-2 theta^dx1^dx2^dy1^dy2 - 2 theta^dx1^dx3^dy1^dy3")
    code, out, err = run(capsys, "eval", "L(theta,17)", "--n", "17")
    assert code == 0 and err == "" and out.strip() == ContactModel(17).volume().to_text()


def test_eval_lefschetz_rejects_non_vertical_exit_1(capsys):
    code, out, err = run(capsys, "eval", "L(dx1, 1)", "--n", "1")
    assert code == 1 and out == "" and "vertical" in err


@pytest.mark.parametrize(
    "expr, column",
    [("(x1**" + "9" * 5000 + ")", 6), ("1/" + "7" * 5000, 3), ("dx" + "1" * 5000, 1)],
    ids=["exponent", "denominator", "generator-index"],
)
def test_eval_overlong_number_exit_2(capsys, expr, column):
    # more digits than Python converts to an int
    code, out, err = run(capsys, "eval", expr)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and f"column {column}: cannot read number" in err


@pytest.mark.parametrize(
    "expr", ["((2*x1)**15000)", "((1/2*x1)**15000)", "((2)**15000) dx1"],
    ids=["numerator", "denominator", "constant"],
)
def test_eval_overlong_output_exit_1(capsys, expr):
    # a coefficient with more digits than Python prints, which the parser
    # would refuse to read back
    code, out, err = run(capsys, "eval", expr)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "too long to print" in err


def test_model_overlong_volume_exit_1(capsys):
    # the volume coefficient 1800! has 5,080 digits
    code, out, err = run(capsys, "model", "--n", "1800")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "too long to print" in err


@pytest.mark.parametrize("depth", [400, 3000])
def test_eval_deep_nesting_exit_2(capsys, depth):
    code, out, err = run(capsys, "eval", "(" * depth + "x1" + ")" * depth, "--n", "1")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "nesting deeper than" in err
    assert "Traceback" not in err


def test_eval_moderate_nesting_evaluates(capsys):
    code, out, err = run(capsys, "eval", "(" * 50 + "x1" + ")" * 50, "--n", "1")
    assert code == 0 and out.strip() == "(x1)" and err == ""


def test_verify_pass_and_json_determinism(capsys, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "dsa-lemma", "--n", "1", "--trials", "20", "--seed", "7", "--json"]
    code, out, _ = run(capsys, *args, str(p1))
    assert code == 0 and "PASS" in out
    code, _, _ = run(capsys, *args, str(p2))
    assert code == 0
    # byte-identical apart from the timing field
    strip = lambda text: "\n".join(
        line for line in text.splitlines() if "wallTimeSeconds" not in line
    )
    assert strip(p1.read_text()) == strip(p2.read_text())
    d1 = json.loads(p1.read_text())
    assert d1["suite"] == "dsa-lemma" and d1["passed"] is True
    assert set(d1) == {
        "suite", "n", "trials", "seed", "maxPolyDegree", "passed", "failures",
        "version", "wallTimeSeconds",
    }


def test_verify_unknown_suite_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_verify_missing_suite_exit_2(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2 and "suite" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify"], "error: give exactly one of SUITE or --suite\n"),
        (["cohomology"], "error: give exactly one of PATH or --builtin\n"),
        (["cohomology", "x.alg", "--builtin", "ce"], "error: give exactly one of PATH or --builtin\n"),
        (["verify", "dsq", "--suite", "stasheff"], "error: give exactly one of SUITE or --suite\n"),
    ],
)
def test_usage_errors_reach_main(capsys, argv, message):
    # The handler raises and prints nothing; main alone prints the one line
    # and picks exit 2.
    handler = {"verify": cli.cmd_verify, "cohomology": cli.cmd_cohomology}[argv[0]]
    with pytest.raises(cli.UsageError):
        handler(cli.build_parser().parse_args(argv))
    assert capsys.readouterr().err == ""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err == message


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "dx1", "--n", "0"],
        ["verify", "dsq", "--n", "0"],
        ["verify", "dsq", "--trials", "0"],
        ["verify", "all", "--trials", "-3"],
        ["verify", "dsq", "--max-poly-degree", "-1"],
        ["basis", "--n", "0", "--degree", "1"],
        ["model", "--n", "-2"],
    ],
)
def test_out_of_range_options_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: --")


def test_verify_flag_form(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lefschetz-iso", "--n", "2")
    assert code == 0 and "PASS" in out


def test_basis_listing(capsys):
    code, out, _ = run(capsys, "basis", "--n", "1", "--degree", "2")
    assert code == 0
    assert out.splitlines() == ["theta^dx1", "theta^dy1", "dx1^dy1"]
    code, out, _ = run(capsys, "basis", "--n", "1", "--degree", "2", "--vertical")
    assert out.splitlines() == ["theta^dx1", "theta^dy1"]


@pytest.mark.parametrize(
    "argv",
    [("basis", "--degree", "7", "--n", "1"), ("basis", "--degree", "-1", "--vertical")],
    ids=["above-the-top-degree", "negative-vertical"],
)
def test_basis_of_an_empty_degree_prints_nothing(capsys, argv):
    assert run(capsys, *argv) == (0, "", "")


SEEDED_SUITES = [name for name in SUITES if name not in ("lefschetz-iso", "ce-cohomology")]


@pytest.mark.parametrize(
    "argv, count",
    [(("basis", "--n", "1000000000", "--degree", "1"), "C(2000000001, 1)"),
     (("basis", "--n", "14", "--degree", "14"), "C(29, 14)"),
     (("verify", "lefschetz-iso", "--n", "200", "--trials", "1"), "C(400, 199)")]
    + [(("verify", name, "--n", "10", "--trials", "1"), "C(21, 10)") for name in SEEDED_SUITES],
    ids=["basis-huge-n", "basis-middle-degree", "verify-lefschetz-iso"]
    + [f"verify-{name}" for name in SEEDED_SUITES],
)
def test_basis_over_the_enumeration_limit_exit_1(capsys, argv, count):
    # refused before a single monomial is built; a seeded suite is refused at
    # its largest basis, C(2n+1, n), before its first draw
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and count in err


def test_ce_cohomology_ignores_n(capsys):
    code, out, err = run(capsys, "verify", "ce-cohomology", "--n", "10", "--trials", "1")
    assert code == 0 and "PASS" in out and err == ""


# Every subcommand that takes --n, at n = 1000 with its default options, and
# the exit code it ends with.  verify ce-cohomology passes because it always
# runs the n = 1 finite model, whatever --n says: it reports a model it did
# not run until the finite model exists at every n (ROADMAP item 4).
LARGE_N_ROWS = (
    [(("verify", name), 0 if name == "ce-cohomology" else 1) for name in SUITE_NAMES]
    + [(("eval", "dz"), 0), (("eval", "L(theta,2)"), 1), (("basis", "--degree", "2"), 1), (("model",), 0)]
)


@pytest.mark.parametrize(
    "argv, code", LARGE_N_ROWS, ids=["-".join(argv) for argv, _ in LARGE_N_ROWS]
)
def test_every_subcommand_at_n_1000(capsys, argv, code):
    start = time.perf_counter()
    got, out, err = run(capsys, *argv, "--n", "1000")
    assert time.perf_counter() - start < 5
    assert got == code
    if code:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    else:
        assert out and err == ""


def test_model_command(capsys):
    code, out, _ = run(capsys, "model", "--n", "2")
    assert code == 0
    assert "theta = dz - y1*dx1 - y2*dx2" in out
    assert "dtheta = dx1^dy1 + dx2^dy2" in out
    assert "volume theta^dtheta^2 = -2 theta^dx1^dx2^dy1^dy2" in out
    # n! (-1)^(n(n-1)/2) times the top monomial, without building dtheta^n
    code, out, _ = run(capsys, "model", "--n", "40")
    assert code == 0
    assert f"volume theta^dtheta^40 = {math.factorial(40)} theta^dx1^dx2^" in out


def test_cohomology_builtin(capsys):
    code, out, _ = run(capsys, "cohomology", "--builtin", "ce")
    assert code == 0 and "betti (1, 2, 2, 1)" in out
    code, out, _ = run(capsys, "cohomology", "--builtin", "rumin")
    assert code == 0 and "betti (1, 2, 2, 1)" in out


def test_cohomology_from_file(capsys, tmp_path):
    path = tmp_path / "ce.alg"
    path.write_text(heisenberg_ce_algebra().dumps())
    code, out, _ = run(capsys, "cohomology", str(path))
    assert code == 0 and "betti (1, 2, 2, 1)" in out


def test_cohomology_prints_an_empty_degree(capsys, tmp_path):
    path = tmp_path / "acyclic.alg"
    path.write_text("basis e 0\nbasis t 1\nbasis u 2\nd t u 1\n")
    code, out, _ = run(capsys, "cohomology", str(path))
    assert code == 0
    assert out.splitlines() == ["algebra: betti (1, 0, 0)", "  H^0 (dim 1): e", "  H^1 (dim 0)", "  H^2 (dim 0)"]


@pytest.mark.parametrize(
    "text, betti",
    [
        # d(SRC) += COEFF * DST: repeated records add up
        ("basis a 0\nbasis b 1\nd a b 1\nd a b -1\n", "algebra: betti (1, 1)"),
        ("basis a 0\nbasis b 1\nd a b 1\nd a b 1\n", "algebra: betti (0, 0)"),
        ("algebra unit\nbasis e 0\nmu e e e 1/2\nmu e e e 1/2\n", "unit: betti (1,)"),
    ],
)
def test_cohomology_adds_up_repeated_records(capsys, tmp_path, text, betti):
    path = tmp_path / "repeated.alg"
    path.write_text(text)
    code, out, err = run(capsys, "cohomology", str(path))
    assert code == 0 and err == "" and out.splitlines()[0] == betti


def test_cohomology_dump_round_trips(capsys, tmp_path):
    code, out, _ = run(capsys, "cohomology", "--builtin", "ce", "--dump")
    assert code == 0
    path = tmp_path / "dumped.alg"
    path.write_text(out)
    code, out2, _ = run(capsys, "cohomology", str(path))
    assert code == 0 and "betti (1, 2, 2, 1)" in out2


def test_cohomology_arg_validation(capsys, tmp_path):
    code, _, err = run(capsys, "cohomology")
    assert code == 2
    code, _, err = run(capsys, "cohomology", str(tmp_path / "missing.alg"))
    assert code == 2
    bad = tmp_path / "bad.alg"
    bad.write_text("basis u 0\nbasis v 1\nd u v 1\nd v ???\n")
    code, _, err = run(capsys, "cohomology", str(bad))
    assert code == 1 and "line 4" in err
    undecodable = tmp_path / "undecodable.alg"
    undecodable.write_bytes(b"basis u 0\n\xff\n")
    code, out, err = run(capsys, "cohomology", str(undecodable))
    assert code == 2 and out == "" and len(err.splitlines()) == 1 and "not UTF-8" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("basis u 0\nd x u 1\n", "differential: map from unknown label 'x'"),
        ("basis u 0\nd u x 1\n", "differential: map sends u to 'x', not a label of degree 1"),
        ("basis u 0\nmu u x u 1\n", "product on unknown labels ('u', 'x')"),
        ("basis u 0\nmu u u x 1\n", "product into unknown label 'x'"),
        ("basis u 0\nbasis v 1\nmu u u v 1\n", "mu u u -> v violates degree additivity"),
        ("basis u 0\nbasis v 1\nd u v 1/0\n", "line 3: zero denominator in '1/0'"),
        ("basis e 0\nmu e e e 0/0\n", "line 2: zero denominator in '0/0'"),
        # COEFF is an optional sign, digits and optionally /digits, nothing else
        ("basis u 0\nbasis v 1\nd u v 1.5\n", "line 3: coefficient '1.5' is not an integer or p/q"),
        ("basis u 0\nbasis v 1\nd u v .5\n", "line 3: coefficient '.5' is not an integer or p/q"),
        ("basis u 0\nbasis v 1\nd u v 1_0\n", "line 3: coefficient '1_0' is not an integer or p/q"),
        ("basis u 0\nbasis v 1\nd u v 1e5\n", "line 3: coefficient '1e5' is not an integer or p/q"),
        ("basis u 0\nbasis v 1\nd u v 1e10000000\n", "line 3: coefficient '1e10000000' is not"),
        ("basis u 0\nbasis v 1\nd u v \u0663\n", "line 3: coefficient '\u0663' is not an integer or p/q"),
        # DEGREE is an optional '-' and ASCII digits, nothing else
        ("basis u 1_0\n", "line 1: degree '1_0' is not an integer"),
        ("basis u +2\n", "line 1: degree '+2' is not an integer"),
        ("basis u \u0663\n", "line 1: degree '\u0663' is not an integer"),
        # a number of more digits than Python reads is a format message
        pytest.param(f"basis u 0\nbasis v 1\nd u v {'1' * 5000}\n",
                     f"line 3: cannot read number {'1' * 20}... (5000 digits)", id="5000-digit-coeff"),
        pytest.param(f"basis u 0\nbasis v 1\nd u v 1/{'1' * 5000}\n",
                     f"line 3: cannot read number {'1' * 20}... (5000 digits)", id="5000-digit-denominator"),
        pytest.param(f"basis u {'1' * 5000}\n",
                     f"line 1: cannot read number {'1' * 20}... (5000 digits)", id="5000-digit-degree"),
        # a degree Python prints next to one it does not, where a map of
        # the algebra would land, is refused with its line
        pytest.param(f"basis u {'9' * 4300}\nbasis v 0\nd u v 1\n",
                     f"line 1: degree {'9' * 20}... (4300 digits) has a neighbour too long to print",
                     id="4300-digit-degree-successor"),
        pytest.param(f"basis u -{'9' * 4300}\n",
                     f"line 1: degree -{'9' * 19}... (4301 digits) has a neighbour too long to print",
                     id="4300-digit-degree-predecessor"),
        # u_i u_j = u_max(i,j) on 120 generators: the axiom checks would take
        # seconds, so the estimate refuses them first
        pytest.param("".join(f"basis u{i} 0\n" for i in range(120))
                     + "".join(f"mu u{i} u{j} u{max(i, j)} 1\n" for i in range(120) for j in range(120)),
                     "checking the algebra axioms takes about 5241720 steps, more than 2000000",
                     id="120-generator-semilattice"),
    ],
)
def test_cohomology_rejects_bad_labels_exit_1(capsys, tmp_path, text, message):
    path = tmp_path / "bad.alg"
    path.write_text(text)
    code, out, err = run(capsys, "cohomology", str(path))
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: ") and message in err and "Traceback" not in err


NINES = "9" * 4300  # the most digits Python reads and prints


@pytest.mark.parametrize(
    "text, argv",
    [
        # two records of one entry add up to 4,301 digits, which dumps cannot write
        pytest.param(f"basis u 0\nbasis v 1\nd u v {NINES}\nd u v {NINES}\n", ["--dump"], id="dump"),
        # ... and d u = c w, d v = 7 w with c of 4,301 digits: the kernel of d
        # in degree 1 is spanned by v - (7/c) u, which cannot be printed
        pytest.param(f"basis u 1\nbasis v 1\nbasis w 2\nd u w {NINES}\nd u w {NINES}\nd v w 7\n", [],
                     id="representative"),
    ],
)
def test_cohomology_overlong_number_exit_1(capsys, tmp_path, text, argv):
    # every number of the file reads, but one the report must print does not
    path = tmp_path / "long.alg"
    path.write_text(text)
    code, out, err = run(capsys, "cohomology", str(path), *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "too long to print" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out == f"ruminalg {__version__}\n"


def test_python_m_ruminalg_runs_the_cli():
    # `python -m ruminalg` is the `ruminalg` command, exit codes included
    src = str(Path(ruminalg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "ruminalg", *argv], capture_output=True, text=True, env=env, timeout=120
        )

    done = run_module("eval", "gamma(dx1^dy1)")
    assert done.returncode == 0 and done.stdout == "theta\n" and done.stderr == ""
    done = run_module("eval", "dx1")
    assert done.returncode == 0 and done.stdout == "dx1\n" and done.stderr == ""
    failed = run_module("eval", "theta ^")
    assert failed.returncode == 2 and failed.stdout == ""
    assert len(failed.stderr.splitlines()) == 1 and "syntax error" in failed.stderr


def test_closed_pipe_ends_quietly():
    # `ruminalg basis ... | head -1`: the reader leaves after one line.  The
    # listing (24,310 lines, 0.8 MB) is more than a pipe buffers, so a later
    # write fails.
    src = str(Path(ruminalg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "ruminalg", "basis", "--n", "8", "--degree", "8"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
    assert first == b"theta^dx1^dx2^dx3^dx4^dx5^dx6^dx7\n"
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"Exception ignored" not in err, err


@pytest.mark.parametrize(
    "argv, lines, code, expected",
    [
        # one degree of 10,000 bare labels: a dense kernel would hold 10**8
        # entries
        (["cohomology", "{path}"], "".join(f"basis u{i} 0\n" for i in range(10_000)), 0,
         "algebra: betti (10000,)"),
        # C(14, 6) = 3,003 columns for k = 1, eliminated in sparse columns
        (["verify", "lefschetz-iso", "--n", "7", "--trials", "1"], None, 0,
         "suite=lefschetz-iso n=7 trials=1 seed=0 max-poly-degree=2: PASS (7 checks, 0 failures"),
        # L walks through C(m, min(k, m // 2)) coframe terms from theta with
        # its m = n empty pairs: refused within 5 s, before the first move
        (["eval", "L(theta,500)", "--n", "1000"], None, 1, "error: L: dtheta^500 at n=1000: at least"),
        (["eval", "L(theta,6)", "--n", "30"], None, 1, "error: L: dtheta^6 at n=30: at least"),
        (["eval", "L(theta,12)", "--n", "24"], None, 1, "error: L: dtheta^12 at n=24: at least"),
    ],
    ids=["cohomology-10000-bare-labels", "lefschetz-iso-n7", "L-500-n1000", "L-6-n30", "L-12-n24"],
)
def test_large_inputs_run_in_bounded_time_and_memory(tmp_path, argv, lines, code, expected):
    # each command in its own child, killed after a minute and held to 1 GB
    # of address space, so a regression fails here instead of exhausting the
    # machine or hanging; its peak resident memory comes from os.wait4, and
    # a refusal (code 1) must come within 5 s
    path = tmp_path / "big.alg"
    if lines is not None:
        path.write_text(lines)
    src = str(Path(ruminalg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [arg.format(path=path) for arg in argv]

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    with open(tmp_path / "out", "w") as out, open(tmp_path / "err", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "ruminalg", *argv], stdout=out, stderr=err, env=env,
                                preexec_fn=limit)
    timer = threading.Timer(60, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
    stdout, stderr = (tmp_path / "out").read_text(), (tmp_path / "err").read_text()
    peak_mb = usage.ru_maxrss / 1024  # kilobytes on Linux
    if code:
        assert proc.returncode == code and stdout == "", stdout[:200]
        assert len(stderr.splitlines()) == 1 and stderr.startswith(expected), stderr
        assert seconds < 5, f"refused after {seconds:.1f} s"
    else:
        assert proc.returncode == 0 and stderr == "", stderr
        assert stdout.splitlines()[0].startswith(expected)
    assert peak_mb < 100, f"peak RSS {peak_mb:.0f} MB"
