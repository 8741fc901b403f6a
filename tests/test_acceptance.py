"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything is exact rational arithmetic, so all equality checks are
zero-tolerance; the stated runtime budgets are asserted as well.
Run with `pytest tests/test_acceptance.py -v -rA` to see the lines.
"""

import time
from dataclasses import dataclass
from fractions import Fraction

from ruminalg import finite, suites
from ruminalg.cinfty import shuffle_product
from ruminalg.forms import ContactModel, lefschetz_power_columns
from ruminalg import linalg
from ruminalg.suites import (
    corrupted_rumin_ops,
    run_suite,
    suite_morphism,
    suite_stasheff,
)

from controls import corrupted_rumin_morphism


def _report(num: int, description: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {description} [{elapsed:.1f}s, budget {budget:.0f}s]")
    assert ok, f"criterion {num} failed: {description}"
    assert elapsed < budget, f"criterion {num} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"


@dataclass(frozen=True)
class Sym:
    name: str
    degree: int


def _signed_words(p, q, elements):
    # the (sign, word) pairs of shuffle_product, without the stored pickers
    return sorted(((sign, word) for sign, word, _ in shuffle_product(p, q, elements)), key=lambda p: p[1])


def test_criterion_1_shuffle_ground_truth():
    start = time.perf_counter()
    ok = True
    for d0 in (1, 2):
        for d1 in (1, 2):
            for d2 in (1, 2):
                w, t, e = Sym("w", d0), Sym("t", d1), Sym("e", d2)
                nu11 = _signed_words(1, 1, (w, t))
                exp11 = sorted(
                    [(1, (0, 1)), (-((-1) ** (d0 * d1)), (1, 0))], key=lambda p: p[1]
                )
                nu12 = _signed_words(1, 2, (w, t, e))
                exp12 = sorted(
                    [
                        (1, (0, 1, 2)),
                        (-((-1) ** (d0 * d1)), (1, 0, 2)),
                        ((-1) ** (d0 * (d1 + d2)), (1, 2, 0)),
                    ],
                    key=lambda p: p[1],
                )
                nu21 = _signed_words(2, 1, (w, t, e))
                exp21 = sorted(
                    [
                        (1, (0, 1, 2)),
                        (-((-1) ** (d1 * d2)), (0, 2, 1)),
                        ((-1) ** (d2 * (d0 + d1)), (2, 0, 1)),
                    ],
                    key=lambda p: p[1],
                )
                ok = ok and nu11 == exp11 and nu12 == exp12 and nu21 == exp21
    _report(1, "shuffle products match the displayed expansions, all 8 parities", ok, time.perf_counter() - start, 1.0)


def test_criterion_2_vertical_derivative_identity():
    start = time.perf_counter()
    ok = True
    for n in (1, 2):
        report = run_suite("dsa-lemma", n=n, trials=100, seed=0)
        ok = ok and report.passed and report.checks >= 100 * (2 * n + 1)
    _report(2, "theta^dw = w^dtheta, 100 vertical forms per degree, n in {1,2}", ok, time.perf_counter() - start, 30.0)


def test_criterion_3_lefschetz_power_isomorphisms():
    start = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        model = ContactModel(n)
        for k in range(1, n + 1):
            columns = lefschetz_power_columns(model, k)
            ok = ok and len(columns) == len(model.vertical_monomials(n + k + 1)) == linalg.rank(columns)
    _report(3, "vertical Lefschetz power matrices invertible, 1 <= k <= n <= 3", ok, time.perf_counter() - start, 5.0)


def test_criterion_4_gamma_properties_and_invariance():
    start = time.perf_counter()
    ok = True
    for n in (1, 2):
        props = run_suite("gamma-props", n=n, trials=100, seed=0)
        invar = run_suite("gamma-invariance", n=n, trials=100, seed=0)
        ok = ok and props.passed and invar.passed
    _report(
        4,
        "gamma kills verticals, gamma d gamma = gamma, gamma d = 1 low, rescale-invariant (lambda 2, 3/7), 100 trials, n in {1,2}",
        ok,
        time.perf_counter() - start,
        120.0,
    )


def test_criterion_5_projection_identities():
    start = time.perf_counter()
    ok = True
    for n in (1, 2):
        retract = run_suite("retract", n=n, trials=100, seed=0)
        member = run_suite("rumin-membership", n=n, trials=100, seed=0)
        ok = ok and retract.passed and member.passed
    _report(
        5,
        "pi^2 = pi, d pi = pi d, pi i = 1, gamma i = 0, membership == gamma-criterion, 100 forms per degree, n in {1,2}",
        ok,
        time.perf_counter() - start,
        120.0,
    )


def test_criterion_6_closed_form_structure_relations():
    start = time.perf_counter()
    ok = True
    for n in (1, 2):
        stasheff = run_suite("stasheff", n=n, trials=50, seed=0)
        shuffles_ = run_suite("shuffle-vanishing", n=n, trials=50, seed=0)
        morphism = run_suite("morphism", n=n, trials=50, seed=0)
        ok = ok and stasheff.passed and shuffles_.passed and morphism.passed
    _report(
        6,
        "Stasheff 1..5, shuffle vanishing p+q <= 4, morphism 1..4 on 50 certified tuples, n in {1,2}",
        ok,
        time.perf_counter() - start,
        600.0,
    )


def test_criterion_7_transfer_cross_check():
    start = time.perf_counter()
    ok = True
    for n in (1, 2):
        match = run_suite("transfer-match", n=n, trials=50, seed=0)
        higher = run_suite("higher-vanish", n=n, trials=50, seed=0)
        ok = ok and match.passed and higher.passed
    _report(
        7,
        "generic transfer reproduces m2, m3, f2; transferred m4, m5, f3, f4 vanish on 50 tuples, n in {1,2}",
        ok,
        time.perf_counter() - start,
        300.0,
    )


def _oracle_rank(rows) -> int:
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _oracle_betti(alg) -> tuple:
    def d_matrix(degree):
        src, dst = alg.labels(degree), alg.labels(degree + 1)
        pos = {label: i for i, label in enumerate(dst)}
        m = [[Fraction(0)] * len(src) for _ in dst]
        for j, label in enumerate(src):
            for to, c in alg.d.get(label, {}).items():
                m[pos[to]][j] = Fraction(c)
        return m

    return tuple(
        alg.dim(k) - _oracle_rank(d_matrix(k)) - _oracle_rank(d_matrix(k - 1))
        for k in alg.degrees
    )


def test_criterion_8_finite_model_end_to_end():
    start = time.perf_counter()
    bundle = finite.heisenberg_ce_retract()

    # Betti numbers via the independent kernel/image oracle.
    ok = _oracle_betti(bundle.ce) == (1, 2, 2, 1)
    ok = ok and _oracle_betti(bundle.rumin) == (1, 2, 2, 1)

    # The ternary product value via the one-step transfer recursion oracle:
    # psi3 = mu(h mu (x) 1) - (-1)^|x| mu(1 (x) h mu), m3 = pi psi3 i^(x3).
    retract = bundle.retract
    a, b = bundle.rumin.element("a"), bundle.rumin.element("b")
    ca = bundle.rumin.element("ca")
    x, y, z = retract.i(a), retract.i(b), retract.i(a)
    t1 = retract.mu(retract.h(retract.mu(x, y)), z)
    t2 = retract.mu(x, retract.h(retract.mu(y, z))).scale(-1 if x.degree & 1 else 1)
    oracle_m3 = retract.pi(t1 - t2)
    ok = ok and oracle_m3 == ca.scale(2)
    ha = finite.cohomology(bundle.rumin)
    ok = ok and any(ha.reduce(oracle_m3))  # nonzero class in degree 2

    # Full suite: Betti, ring isomorphism, exhaustive Stasheff <= 5 and
    # shuffle vanishing <= 4 over all basis tuples, the class check.
    report = run_suite("ce-cohomology", n=1, trials=1, seed=0)
    ok = ok and report.passed
    _report(
        8,
        "finite model: Betti (1,2,2,1) both sides, ring iso, exhaustive relations <= 5, m3(a,b,a) = 2 c^a nonzero in H^2",
        ok,
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_9_negative_controls(monkeypatch):
    start = time.perf_counter()
    with monkeypatch.context() as m:
        m.setattr(suites, "rumin_ops", corrupted_rumin_ops)
        stasheff_rec = suite_stasheff(1, 30, 0, 2, max_relation=3)
    ok = bool(stasheff_rec.failures)
    ok = ok and all(f.inputs and f.residual for f in stasheff_rec.failures)
    monkeypatch.setattr(suites, "rumin_morphism", corrupted_rumin_morphism)
    morphism_rec = suite_morphism(1, 30, 0, 2, max_relation=2)
    ok = ok and bool(morphism_rec.failures)
    ok = ok and all(f.inputs and f.residual for f in morphism_rec.failures)
    _report(
        9,
        "sign-corrupted m3 fails Stasheff-3 with a witness; sign-corrupted f2 fails morphism-2 with a witness",
        ok,
        time.perf_counter() - start,
        60.0,
    )
