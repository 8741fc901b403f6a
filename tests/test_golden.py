"""Golden outputs: canonical text of the operators on a fixed seeded corpus of
forms with rational coefficients, and the JSON of one failing report.

The files in tests/data/ hold the outputs of the Fraction-coefficient
implementation; any change of representation must reproduce them byte for
byte.  Regenerate them only for a deliberate change of output, with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

from ruminalg.forms import ContactModel, Form, exterior_d, random_poly, wedge
from ruminalg.prng import stream
from ruminalg.rumin import f2, gamma, m2, m3, pi
from ruminalg.suites import corrupted_rumin_ops, run_suite

DATA = Path(__file__).resolve().parent / "data"
OPS_FILE = DATA / "golden_ops.txt"
REPORT_FILE = DATA / "golden_failing_report.json"
SAMPLES = {1: 12, 2: 8, 3: 4}  # tuples per n


def _fraction_form(model, rng, degree):
    """A nonzero form: each coframe monomial kept with probability 1/2, its
    coefficient a random polynomial times its own rational c/d, so that the
    blocks of one form have different denominators."""
    terms = {}
    while not terms:
        for idx in model.coframe_monomials(degree):
            if rng.chance(1, 2):
                c = Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 6))
                terms[idx] = random_poly(rng, model.nvars, 1).scale(c)
    return Form(model, degree, terms)


def golden_ops_text() -> str:
    lines = []
    for n, count in SAMPLES.items():
        model = ContactModel(n)
        for t in range(count):
            rng = stream(1000 + n, t)
            a, b, c = (_fraction_form(model, rng, rng.randint(1, n + 1)) for _ in range(3))
            rho, sigma, tau = pi(a), pi(b), pi(c)
            rows = [
                ("a", a), ("b", b), ("c", c),
                ("d(a)", exterior_d(a)), ("wedge(a, b)", wedge(a, b)),
                ("gamma(a)", gamma(a)), ("gamma(wedge(a, b))", gamma(wedge(a, b))),
                ("pi(a)", rho), ("pi(b)", sigma), ("pi(c)", tau),
                ("m2(pi(a), pi(b))", m2(rho, sigma)),
                ("m3(pi(a), pi(b), pi(c))", m3(rho, sigma, tau)),
                ("f2(pi(a), pi(b))", f2(rho, sigma)),
            ]
            lines += [f"n={n} #{t} {name} = {value}" for name, value in rows]
    return "\n".join(lines) + "\n"


def failing_report() -> dict:
    report = run_suite("stasheff", n=2, trials=30, seed=0,
                       mset=corrupted_rumin_ops(ContactModel(2)), max_relation=3)
    data = report.to_json_dict()
    data.pop("wallTimeSeconds")
    return data


def test_operator_texts_are_golden():
    assert golden_ops_text() == OPS_FILE.read_text(encoding="utf-8")


def test_failing_report_is_golden():
    data = failing_report()
    assert not data["passed"] and data["failures"]
    assert data == json.loads(REPORT_FILE.read_text(encoding="utf-8"))


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    OPS_FILE.write_text(golden_ops_text(), encoding="utf-8")
    REPORT_FILE.write_text(json.dumps(failing_report(), indent=2) + "\n", encoding="utf-8")
    sys.exit(0)
