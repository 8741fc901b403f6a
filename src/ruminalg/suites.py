"""Seeded verification suites.

Each suite turns a family of exact identities into a randomized (or, for the
finite model, exhaustive) sweep: draw inputs from the per-trial PRNG streams,
evaluate the would-be-zero residual, record a witness when it is not zero.
Identical seed and parameters produce an identical report, independent of
evaluation order.

Every suite but lefschetz-iso and ce-cohomology, which draw nothing, is a
body run once per trial by one loop, `_trials`.  It refuses a model whose
largest basis is over forms.MAX_MONOMIALS before any draw, and hands each
body the trial's stream and the shared recorder.  A body builds the operator
families it uses, so their memos end with the trial; the transfer suites
check the rumin retract once and transfer it afresh per trial.

Suites:

    dsq               d^2 = 0 on random forms
    leibniz           d(w^t) = dw^t + (-1)^|w| w^dt on random pairs
    dsa-lemma         theta^dw = w^dtheta for random vertical w
    lefschetz-iso     the vertical Lefschetz power matrices are invertible
    gamma-props       gamma kills vertical forms; gamma d gamma = gamma;
                      gamma d = 1 on low vertical degrees; gamma^2 = 0;
                      products of gamma-images vanish
    gamma-invariance  gamma is unchanged under constant rescalings of theta
    retract           pi^2 = pi, d pi = pi d, pi i = 1, gamma i = 0,
                      pi lands in R, i pi = 1 - d gamma - gamma d
    rumin-membership  Lambda membership test == gamma criterion; R is
                      closed under d
    stasheff          homotopy-associativity residuals, relations 1..5
    shuffle-vanishing m_{p+q} o nu_{p,q} = 0 and f_{p+q} o nu_{p,q} = 0 up
                      to p+q = 4
    morphism          morphism relations 1..4 for f into the form algebra
    transfer-match    generic homotopy transfer reproduces the closed-form
                      m2, m3, f2
    higher-vanish     transferred m4, m5, f3, f4 evaluate to zero
    ce-cohomology     finite model end to end: Betti numbers, ring
                      isomorphism, exhaustive relation sweeps, the nonzero
                      ternary class
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from . import cinfty, finite, rumin
from ._version import __version__
from .cinfty import (
    RetractError,
    check_morphism,
    check_stasheff,
    markl_transfer,
    shuffle_vanishing_residual,
)
from .errors import DomainError
from .forms import ContactModel, exterior_d, lefschetz_power_matrix, random_form, wedge
from . import linalg
from .prng import stream
from .rumin import RuminElement, derham_ops, gamma, gamma_invariance_check, in_rumin, pi, rumin_morphism, rumin_ops, rumin_retract

MAX_WITNESSES = 50


@dataclass
class Failure:
    inputs: list
    residual: str


@dataclass
class VerifyReport:
    suite: str
    n: int
    trials: int
    seed: int
    max_poly_degree: int
    passed: bool
    failures: list = field(default_factory=list)
    checks: int = 0
    wall_time: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "maxPolyDegree": self.max_poly_degree,
            "passed": self.passed,
            "failures": [{"inputs": f.inputs, "residual": f.residual} for f in self.failures],
            "version": __version__,
            "wallTimeSeconds": round(self.wall_time, 3),
        }


class _Recorder:
    def __init__(self):
        self.checks = 0
        self.failures: list = []

    def residual(self, value, inputs) -> None:
        self.checks += 1
        if not value.is_zero() and len(self.failures) < MAX_WITNESSES:
            self.failures.append(Failure([str(x) for x in inputs], str(value)))

    def expect(self, ok: bool, inputs, note: str) -> None:
        self.checks += 1
        if not ok and len(self.failures) < MAX_WITNESSES:
            self.failures.append(Failure([str(x) for x in inputs], note))


def _trials(n: int, trials: int, seed: int, trial) -> _Recorder:
    """Run `trial(model, rng, rec)` for t = 0..trials-1 on the model
    H^{2n+1}, with `rng = stream(seed, t)`, into one recorder."""
    model = _guarded_model(n)
    rec = _Recorder()
    for t in range(trials):
        trial(model, stream(seed, t), rec)
    return rec


def _guarded_model(n: int) -> ContactModel:
    """The model H^{2n+1} with its largest coframe basis, C(2n+1, n),
    listed: every seeded draw comes after this, so a suite past
    forms.MAX_MONOMIALS is refused (DomainError) before it does any work
    rather than at the first degree over the cap."""
    model = ContactModel(n)
    model.coframe_monomials(n)
    return model


def _certified(model: ContactModel, rng, degree: int, maxd: int) -> RuminElement:
    return pi(random_form(model, rng, degree, maxd))


def _certified_tuple(model: ContactModel, rng, count: int, maxd: int):
    # Bias degrees low: wedges of high-degree forms die on dimension grounds,
    # so low degrees are where the relations have content.
    out = []
    for _ in range(count):
        if rng.chance(3, 4):
            degree = rng.randint(0, min(model.n + 1, model.dim))
        else:
            degree = rng.randint(0, model.dim)
        out.append(_certified(model, rng, degree, maxd))
    return tuple(out)


# -- individual suites ---------------------------------------------------------


def suite_dsq(n, trials, seed, maxd):
    def trial(model, rng, rec):
        for deg in range(model.dim + 1):
            w = random_form(model, rng, deg, maxd)
            rec.residual(exterior_d(exterior_d(w)), [w])

    return _trials(n, trials, seed, trial)


def suite_leibniz(n, trials, seed, maxd):
    def trial(model, rng, rec):
        for a in range(model.dim + 1):
            b = rng.randint(0, model.dim)
            w = random_form(model, rng, a, maxd)
            tau = random_form(model, rng, b, maxd)
            res = exterior_d(wedge(w, tau)) - wedge(exterior_d(w), tau) - wedge(
                w, exterior_d(tau)
            ).scale(-1 if a & 1 else 1)
            rec.residual(res, [w, tau])

    return _trials(n, trials, seed, trial)


def suite_dsa_lemma(n, trials, seed, maxd):
    def trial(model, rng, rec):
        theta, dtheta = model.theta(), model.dtheta()
        for deg in range(1, model.dim + 1):
            w = random_form(model, rng, deg, maxd, vertical=True)
            rec.residual(wedge(theta, exterior_d(w)) - wedge(w, dtheta), [w])

    return _trials(n, trials, seed, trial)


def suite_lefschetz_iso(n, trials, seed, maxd):
    model = ContactModel(n)
    rec = _Recorder()
    for k in range(1, n + 1):
        matrix = lefschetz_power_matrix(model, k)
        size = len(matrix)
        rec.expect(
            linalg.rank(matrix) == size,
            [f"k={k}"],
            f"lefschetz power matrix k={k} is singular",
        )
    return rec


def suite_gamma_props(n, trials, seed, maxd):
    def trial(model, rng, rec):
        for deg in range(1, model.dim + 1):
            v = random_form(model, rng, deg, maxd, vertical=True)
            rec.residual(gamma(v), [v])
        for deg in range(model.dim + 1):
            w = random_form(model, rng, deg, maxd)
            rec.residual(gamma(exterior_d(gamma(w))) - gamma(w), [w])
            rec.residual(gamma(gamma(w)), [w])
        for deg in range(1, n + 1):
            v = random_form(model, rng, deg, maxd, vertical=True)
            rec.residual(gamma(exterior_d(v)) - v, [v])
        a = random_form(model, rng, rng.randint(0, model.dim), maxd)
        b = random_form(model, rng, rng.randint(0, model.dim), maxd)
        rec.residual(wedge(gamma(a), gamma(b)), [a, b])
        rec.residual(gamma(wedge(gamma(a), b)), [a, b])
        rec.residual(gamma(wedge(a, gamma(b))), [a, b])

    return _trials(n, trials, seed, trial)


def suite_gamma_invariance(n, trials, seed, maxd):
    def trial(model, rng, rec):
        lams = [Fraction(2), Fraction(3, 7), Fraction(rng.randint(1, 9), rng.randint(1, 9))]
        for deg in range(model.dim + 1):
            w = random_form(model, rng, deg, maxd)
            for lam in lams:
                rec.expect(
                    gamma_invariance_check(w, lam),
                    [w],
                    f"gamma changed under contact form rescaled by {lam}",
                )

    return _trials(n, trials, seed, trial)


def suite_retract(n, trials, seed, maxd):
    def trial(model, rng, rec):
        for deg in range(model.dim + 1):
            w = random_form(model, rng, deg, maxd)
            p = pi(w)
            rec.residual(pi(p.form).form - p.form, [w])  # pi^2 = pi and pi i = 1
            rec.residual(pi(exterior_d(w)).form - exterior_d(pi(w).form), [w])  # d pi = pi d
            rec.residual(gamma(p.form), [w])  # gamma i = 0
            rec.expect(in_rumin(p.form), [w], "pi output fails membership")
            direct = w - exterior_d(gamma(w)) - gamma(exterior_d(w))
            rec.residual(p.form - direct, [w])  # i pi = 1 - d gamma - gamma d

    return _trials(n, trials, seed, trial)


def suite_rumin_membership(n, trials, seed, maxd):
    def trial(model, rng, rec):
        for deg in range(model.dim + 1):
            w = random_form(model, rng, deg, maxd)
            via_powers = in_rumin(w)
            via_gamma = gamma(w).is_zero() and gamma(exterior_d(w)).is_zero()
            rec.expect(
                via_powers == via_gamma,
                [w],
                f"membership disagreement: powers={via_powers} gamma={via_gamma}",
            )
            rho = pi(w)
            rec.expect(in_rumin(rumin.m1(rho).form), [w], "d leaves the subcomplex")

    return _trials(n, trials, seed, trial)


def suite_stasheff(n, trials, seed, maxd, max_relation=5):
    def trial(model, rng, rec):
        mset = rumin_ops(model)
        elements = _certified_tuple(model, rng, max_relation, maxd)
        for n_rel in range(1, max_relation + 1):
            res = check_stasheff(mset, n_rel, elements[:n_rel])
            rec.residual(res, list(elements[:n_rel]))

    return _trials(n, trials, seed, trial)


SHUFFLE_PAIRS = [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)]


def suite_shuffle_vanishing(n, trials, seed, maxd):
    def trial(model, rng, rec):
        mset, fset = rumin_ops(model), rumin_morphism(model)
        elements = _certified_tuple(model, rng, 4, maxd)
        for p, q in SHUFFLE_PAIRS:
            rec.residual(
                shuffle_vanishing_residual(mset, p, q, elements[: p + q]),
                elements[: p + q],
            )
            rec.residual(
                shuffle_vanishing_residual(fset, p, q, elements[: p + q]),
                elements[: p + q],
            )

    return _trials(n, trials, seed, trial)


def suite_morphism(n, trials, seed, maxd, max_relation=4):
    def trial(model, rng, rec):
        mset, mbar, fset = rumin_ops(model), derham_ops(model), rumin_morphism(model)
        elements = _certified_tuple(model, rng, max_relation, maxd)
        for n_rel in range(1, max_relation + 1):
            res = check_morphism(fset, mset, mbar, n_rel, elements[:n_rel])
            rec.residual(res, list(elements[:n_rel]))

    return _trials(n, trials, seed, trial)


_retract_cache: dict = {}


def verified_rumin_retract(n: int, maxd: int = 2):
    """The symbolic retract for H^{2n+1}, its identities checked on a fixed
    seeded sample: three forms and three elements of R per degree.  Raises
    `RetractError` when they fail; a retract that passed is cached per
    (n, maxd)."""
    key = (n, maxd)
    if key not in _retract_cache:
        model = _guarded_model(n)
        degrees = range(model.dim + 1)
        rng = stream(20_000 + n, 0)
        a_samples = [random_form(model, rng, deg, maxd) for deg in degrees for _ in range(3)]
        b_samples = [_certified(model, rng, deg, maxd) for deg in degrees for _ in range(3)]
        _retract_cache[key] = rumin_retract(model, a_samples, b_samples)
    return _retract_cache[key]


def _transfer_trials(n, trials, seed, maxd, max_arity, trial) -> _Recorder:
    """Check the rumin retract once; when it holds, run
    `trial(model, rng, rec, mset, fset)` through `_trials` on a fresh
    `markl_transfer` of it per trial.  Otherwise no trial runs, and each
    failed retract identity is recorded with its sample as the witness
    input."""
    try:
        retract = verified_rumin_retract(n, maxd)
    except RetractError as exc:
        rec = _Recorder()
        for _, sample, residual in exc.issues:
            rec.residual(residual, [sample])
        return rec
    return _trials(
        n, trials, seed,
        lambda model, rng, rec: trial(model, rng, rec, *markl_transfer(retract, max_arity=max_arity)),
    )


def suite_transfer_match(n, trials, seed, maxd):
    def trial(model, rng, rec, mset_t, fset_t):
        a, b, c = _certified_tuple(model, rng, 3, maxd)
        rec.residual((mset_t(2, (a, b)) - rumin.m2(a, b)).form, [a, b])
        rec.residual((mset_t(3, (a, b, c)) - rumin.m3(a, b, c)).form, [a, b, c])
        rec.residual(fset_t(2, (a, b)) - rumin.f2(a, b), [a, b])

    return _transfer_trials(n, trials, seed, maxd, 3, trial)


def suite_higher_vanish(n, trials, seed, maxd):
    def trial(model, rng, rec, mset_t, fset_t):
        elements = _certified_tuple(model, rng, 5, maxd)
        rec.residual(mset_t(4, elements[:4]).form, elements[:4])
        rec.residual(mset_t(5, elements).form, elements)
        rec.residual(fset_t(3, elements[:3]), elements[:3])
        rec.residual(fset_t(4, elements[:4]), elements[:4])

    return _transfer_trials(n, trials, seed, maxd, 5, trial)


def suite_ce_cohomology(n, trials, seed, maxd, max_relation=5):
    """The built-in finite model: Betti numbers, the ring isomorphism, every
    Stasheff relation up to `max_relation` and every shuffle sum up to
    p + q = 4 on basis tuples, and m3(a, b, a) = 2ca.  A model that cannot
    be built is a failed report, and no transfer check runs: each failed
    retract identity is recorded with its sample, and a value outside the
    span of the basis words with the words it came from."""
    rec = _Recorder()
    try:
        bundle = finite.heisenberg_ce_retract()
    except RetractError as exc:
        for identity, sample, residual in exc.issues:
            rec.residual(residual, [sample, identity])
        return rec
    except finite.SpanError as exc:
        rec.residual(exc.outside, [*exc.words, f"{exc.op} outside the span of the basis words"])
        return rec
    ha = finite.cohomology(bundle.rumin)
    hb = finite.cohomology(bundle.ce)
    rec.expect(
        hb.betti_numbers() == (1, 2, 2, 1),
        ["ce model"],
        f"betti {hb.betti_numbers()} != (1, 2, 2, 1)",
    )
    rec.expect(
        ha.betti_numbers() == (1, 2, 2, 1),
        ["rumin model"],
        f"betti {ha.betti_numbers()} != (1, 2, 2, 1)",
    )
    iso = finite.check_ring_isomorphism(bundle.inclusion, ha, hb)
    rec.expect(iso.ok, ["inclusion"], "; ".join(iso.witnesses) or "ring isomorphism failed")

    # arity 4 is always needed: the shuffle sweep goes up to p+q = 4
    mset, fset = markl_transfer(bundle.retract, max_arity=max(max_relation, 4))
    basis = bundle.rumin.all_basis_vectors()

    for n_rel in range(1, max_relation + 1):
        for elements in product(basis, repeat=n_rel):
            res = check_stasheff(mset, n_rel, elements)
            rec.residual(res, list(elements) + [f"stasheff {n_rel}"])
    for p, q in SHUFFLE_PAIRS:
        for elements in product(basis, repeat=p + q):
            rec.residual(
                shuffle_vanishing_residual(mset, p, q, elements),
                list(elements) + [f"nu({p},{q}) on products"],
            )
            rec.residual(
                shuffle_vanishing_residual(fset, p, q, elements),
                list(elements) + [f"nu({p},{q}) on morphism"],
            )
    a = bundle.rumin.element("a")
    b = bundle.rumin.element("b")
    ca = bundle.rumin.element("ca")
    value = mset(3, (a, b, a))
    rec.expect(value == ca.scale(2), ["m3(a, b, a)"], f"expected 2*ca, got {value}")
    rec.expect(
        any(ha.reduce(value)), ["m3(a, b, a)"], "ternary product class vanishes in degree 2"
    )
    return rec


# -- a corrupted family for negative controls ------------------------------------
# A control patches it in as `suites.rumin_ops`; it builds from the `rumin`
# original, so the patch does not recurse.


def corrupted_rumin_ops(model: ContactModel) -> cinfty.GradedOpSet:
    """The closed-form products with the sign of one m3 term flipped; the
    relation-3 residuals must catch this."""
    good = rumin.rumin_ops(model)

    def bad_m3(block):
        rho, sigma, tau = block
        first = wedge(gamma(wedge(rho.form, sigma.form)), tau.form)
        second = wedge(rho.form, gamma(wedge(sigma.form, tau.form))).scale(
            -1 if rho.degree & 1 else 1
        )
        return pi(first + second)  # sign flip: the two terms must differ

    ops = dict(good.ops)
    ops[3] = bad_m3
    return cinfty.GradedOpSet(ops, good.degree_fn, good.zero_maker, name="corrupted products")


# -- registry and runner ---------------------------------------------------------

SUITES = {
    "dsq": suite_dsq,
    "leibniz": suite_leibniz,
    "dsa-lemma": suite_dsa_lemma,
    "lefschetz-iso": suite_lefschetz_iso,
    "gamma-props": suite_gamma_props,
    "gamma-invariance": suite_gamma_invariance,
    "retract": suite_retract,
    "rumin-membership": suite_rumin_membership,
    "stasheff": suite_stasheff,
    "shuffle-vanishing": suite_shuffle_vanishing,
    "morphism": suite_morphism,
    "transfer-match": suite_transfer_match,
    "higher-vanish": suite_higher_vanish,
    "ce-cohomology": suite_ce_cohomology,
}

SUITE_NAMES = list(SUITES) + ["all"]


def run_suite(name: str, n: int = 1, trials: int = 100, seed: int = 0, max_poly_degree: int = 2, **kwargs) -> VerifyReport:
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}")
    start = time.perf_counter()
    rec = SUITES[name](n, trials, seed, max_poly_degree, **kwargs)
    elapsed = time.perf_counter() - start
    return VerifyReport(
        suite=name,
        n=n,
        trials=trials,
        seed=seed,
        max_poly_degree=max_poly_degree,
        passed=rec.checks > 0 and not rec.failures,  # a run that checked nothing proves nothing
        failures=rec.failures,
        checks=rec.checks,
        wall_time=elapsed,
    )


def run_all(n: int = 1, trials: int = 100, seed: int = 0, max_poly_degree: int = 2):
    return [run_suite(name, n, trials, seed, max_poly_degree) for name in SUITES]


def report_json(reports, path: str) -> None:
    """Write one report as an object, several as an array, matching the
    per-suite schema either way."""
    if isinstance(reports, VerifyReport):
        payload = reports.to_json_dict()
    else:
        payload = [r.to_json_dict() for r in reports]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def format_report(report: VerifyReport) -> str:
    status = "PASS" if report.passed else "FAIL"
    head = (
        f"suite={report.suite} n={report.n} trials={report.trials} seed={report.seed} "
        f"max-poly-degree={report.max_poly_degree}: {status} "
        f"({report.checks} checks, {len(report.failures)} failures, {report.wall_time:.2f}s)"
    )
    lines = [head]
    for i, f in enumerate(report.failures, start=1):
        lines.append(f"  witness {i}:")
        for inp in f.inputs:
            lines.append(f"    input: {inp}")
        lines.append(f"    residual: {f.residual}")
    return "\n".join(lines)
