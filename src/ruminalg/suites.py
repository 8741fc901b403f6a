"""Seeded verification suites.

Each suite turns a family of exact identities into a randomized (or, for the
finite model, exhaustive) sweep: draw inputs from the per-trial PRNG streams,
evaluate the would-be-zero residual, record a witness when it is not zero.
Identical seed and parameters produce an identical report, independent of
evaluation order.

One `_Recorder` counts every check and failed check per relation and keeps
the first MAX_WITNESSES failures, each with its relation's name and inputs.
A name is the identity as the suite spells it ("d pi = pi d", "stasheff 3",
"nu(1,2) on morphism"), or as `RetractError` spells a failed retract
identity.  `_stasheff` and `_shuffles` check the Stasheff relations and the
shuffle sums on seeded prefixes and on every basis tuple alike.

Every suite but lefschetz-iso and ce-cohomology, which draw nothing, is a
trial body that `_seeded` runs once per trial.  It refuses a model whose
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
from collections import Counter
from dataclasses import asdict, dataclass, field
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
from .forms import ContactModel, exterior_d, lefschetz_power_columns, random_form, wedge
from . import linalg
from .prng import stream
from .rumin import RuminElement, derham_ops, gamma, gamma_invariance_check, in_rumin, pi, rumin_morphism, rumin_ops, rumin_retract

MAX_WITNESSES = 50


@dataclass
class Failure:
    relation: str
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
    relation_checks: dict = field(default_factory=dict)  # relation -> checks; not in the JSON
    relation_failures: dict = field(default_factory=dict)  # relation -> failed checks
    wall_time: float = 0.0

    @property
    def checks(self) -> int:
        return sum(self.relation_checks.values())

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "maxPolyDegree": self.max_poly_degree,
            "passed": self.passed,
            "failures": [asdict(f) for f in self.failures],
            "version": __version__,
            "wallTimeSeconds": round(self.wall_time, 3),
        }


class _Recorder:
    """The one place a check is counted and a witness stored: checks and
    failed checks per relation name, and the first MAX_WITNESSES failures."""

    def __init__(self):
        self.checks = Counter()  # relation -> checks
        self.failed = Counter()  # relation -> failed checks
        self.failures: list = []

    def residual(self, relation: str, value, inputs) -> None:
        self.expect(relation, value.is_zero(), inputs, value)

    def expect(self, relation: str, ok: bool, inputs, note) -> None:
        self.checks[relation] += 1
        if not ok:
            self.failed[relation] += 1
            if len(self.failures) < MAX_WITNESSES:
                self.failures.append(Failure(relation, [str(x) for x in inputs], str(note)))

    def retract_failed(self, exc: RetractError) -> None:
        """Record each identity of a retract that could not be built as a
        failed check of that identity, with its sample as the input."""
        for identity, sample, residual in exc.issues:
            self.residual(identity, residual, [sample])


def _seeded(transfer_arity: int = 0):
    """Make a suite `(n, trials, seed, maxd, **kwargs) -> _Recorder` that runs
    `body(model, rng, rec, maxd, **kwargs)` on H^{2n+1} with
    `rng = stream(seed, t)` for t = 0..trials-1.  With a `transfer_arity`,
    the body also gets `mset, fset`, a fresh `markl_transfer` per trial of
    the rumin retract, checked once first; a failed check runs no trial."""

    def decorate(body):
        def suite(n, trials, seed, maxd, **kwargs) -> _Recorder:
            rec = _Recorder()
            if transfer_arity:
                try:
                    retract = verified_rumin_retract(n, maxd)
                except RetractError as exc:
                    rec.retract_failed(exc)
                    return rec
            model = _guarded_model(n)
            for t in range(trials):
                ops = markl_transfer(retract, max_arity=transfer_arity) if transfer_arity else ()
                body(model, stream(seed, t), rec, maxd, *ops, **kwargs)
            return rec

        return suite

    return decorate


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


def _stasheff(rec: _Recorder, mset, k: int, tuples) -> None:
    """Check Stasheff relation k, named "stasheff k", on each k-tuple."""
    relation = f"stasheff {k}"
    for elements in tuples:
        rec.residual(relation, check_stasheff(mset, k, elements), elements)


def _shuffles(rec: _Recorder, mset, fset, p: int, q: int, tuples) -> None:
    """Check that the products and the morphism kill the (p, q) shuffle sum."""
    products, morphism = f"nu({p},{q}) on products", f"nu({p},{q}) on morphism"
    for elements in tuples:
        rec.residual(products, shuffle_vanishing_residual(mset, p, q, elements), elements)
        rec.residual(morphism, shuffle_vanishing_residual(fset, p, q, elements), elements)


# -- individual suites ---------------------------------------------------------


@_seeded()
def suite_dsq(model, rng, rec, maxd):
    for deg in range(model.dim + 1):
        w = random_form(model, rng, deg, maxd)
        rec.residual("d^2 = 0", exterior_d(exterior_d(w)), [w])


@_seeded()
def suite_leibniz(model, rng, rec, maxd):
    for a in range(model.dim + 1):
        b = rng.randint(0, model.dim)
        w = random_form(model, rng, a, maxd)
        tau = random_form(model, rng, b, maxd)
        res = exterior_d(wedge(w, tau)) - wedge(exterior_d(w), tau) - wedge(
            w, exterior_d(tau)
        ).scale(-1 if a & 1 else 1)
        rec.residual("d(w^t) = dw^t + (-1)^|w| w^dt", res, [w, tau])


@_seeded()
def suite_dsa_lemma(model, rng, rec, maxd):
    theta, dtheta = model.theta(), model.dtheta()
    for deg in range(1, model.dim + 1):
        w = random_form(model, rng, deg, maxd, vertical=True)
        rec.residual("theta^dw = w^dtheta", wedge(theta, exterior_d(w)) - wedge(w, dtheta), [w])


def suite_lefschetz_iso(n, trials, seed, maxd):
    model = ContactModel(n)
    rec = _Recorder()
    for k in range(1, n + 1):
        columns = lefschetz_power_columns(model, k)
        size = len(model.vertical_monomials(n + k + 1))
        rec.expect(
            "lefschetz power matrix invertible",
            len(columns) == size == linalg.rank(columns),
            [f"k={k}"],
            f"lefschetz power matrix k={k} is singular",
        )
    return rec


@_seeded()
def suite_gamma_props(model, rng, rec, maxd):
    for deg in range(1, model.dim + 1):
        v = random_form(model, rng, deg, maxd, vertical=True)
        rec.residual("gamma v = 0 on vertical v", gamma(v), [v])
    for deg in range(model.dim + 1):
        w = random_form(model, rng, deg, maxd)
        rec.residual("gamma d gamma = gamma", gamma(exterior_d(gamma(w))) - gamma(w), [w])
        rec.residual("gamma^2 = 0", gamma(gamma(w)), [w])
    for deg in range(1, model.n + 1):
        v = random_form(model, rng, deg, maxd, vertical=True)
        rec.residual("gamma d v = v on low vertical v", gamma(exterior_d(v)) - v, [v])
    a = random_form(model, rng, rng.randint(0, model.dim), maxd)
    b = random_form(model, rng, rng.randint(0, model.dim), maxd)
    rec.residual("gamma a ^ gamma b = 0", wedge(gamma(a), gamma(b)), [a, b])
    rec.residual("gamma(gamma a ^ b) = 0", gamma(wedge(gamma(a), b)), [a, b])
    rec.residual("gamma(a ^ gamma b) = 0", gamma(wedge(a, gamma(b))), [a, b])


@_seeded()
def suite_gamma_invariance(model, rng, rec, maxd):
    lams = [Fraction(2), Fraction(3, 7), Fraction(rng.randint(1, 9), rng.randint(1, 9))]
    for deg in range(model.dim + 1):
        w = random_form(model, rng, deg, maxd)
        for lam in lams:
            rec.expect(
                "gamma invariant under theta -> lambda theta",
                gamma_invariance_check(w, lam),
                [w],
                f"gamma changed under contact form rescaled by {lam}",
            )


@_seeded()
def suite_retract(model, rng, rec, maxd):
    for deg in range(model.dim + 1):
        w = random_form(model, rng, deg, maxd)
        p = pi(w)
        rec.residual("pi^2 = pi, pi i = 1", pi(p.form).form - p.form, [w])
        rec.residual("d pi = pi d", pi(exterior_d(w)).form - exterior_d(pi(w).form), [w])
        rec.residual("gamma i = 0", gamma(p.form), [w])
        rec.expect("pi lands in R", in_rumin(p.form), [w], "pi output fails membership")
        direct = w - exterior_d(gamma(w)) - gamma(exterior_d(w))
        rec.residual("i pi = 1 - d gamma - gamma d", p.form - direct, [w])


@_seeded()
def suite_rumin_membership(model, rng, rec, maxd):
    for deg in range(model.dim + 1):
        w = random_form(model, rng, deg, maxd)
        via_powers = in_rumin(w)
        via_gamma = gamma(w).is_zero() and gamma(exterior_d(w)).is_zero()
        rec.expect(
            "membership by powers = by gamma",
            via_powers == via_gamma,
            [w],
            f"membership disagreement: powers={via_powers} gamma={via_gamma}",
        )
        rho = pi(w)
        rec.expect("d preserves R", in_rumin(rumin.m1(rho).form), [w], "d leaves the subcomplex")


@_seeded()
def suite_stasheff(model, rng, rec, maxd, max_relation=5):
    mset = rumin_ops(model)
    elements = _certified_tuple(model, rng, max_relation, maxd)
    for k in range(1, max_relation + 1):
        _stasheff(rec, mset, k, [elements[:k]])


SHUFFLE_PAIRS = [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)]


@_seeded()
def suite_shuffle_vanishing(model, rng, rec, maxd):
    mset, fset = rumin_ops(model), rumin_morphism(model)
    elements = _certified_tuple(model, rng, 4, maxd)
    for p, q in SHUFFLE_PAIRS:
        _shuffles(rec, mset, fset, p, q, [elements[: p + q]])


@_seeded()
def suite_morphism(model, rng, rec, maxd, max_relation=4):
    mset, mbar, fset = rumin_ops(model), derham_ops(model), rumin_morphism(model)
    elements = _certified_tuple(model, rng, max_relation, maxd)
    for k in range(1, max_relation + 1):
        rec.residual(f"morphism {k}", check_morphism(fset, mset, mbar, k, elements[:k]), elements[:k])


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


@_seeded(transfer_arity=3)
def suite_transfer_match(model, rng, rec, maxd, mset_t, fset_t):
    a, b, c = _certified_tuple(model, rng, 3, maxd)
    rec.residual("transferred m2 = m2", (mset_t(2, (a, b)) - rumin.m2(a, b)).form, [a, b])
    rec.residual("transferred m3 = m3", (mset_t(3, (a, b, c)) - rumin.m3(a, b, c)).form, [a, b, c])
    rec.residual("transferred f2 = f2", fset_t(2, (a, b)) - rumin.f2(a, b), [a, b])


@_seeded(transfer_arity=5)
def suite_higher_vanish(model, rng, rec, maxd, mset_t, fset_t):
    elements = _certified_tuple(model, rng, 5, maxd)
    rec.residual("transferred m4 = 0", mset_t(4, elements[:4]).form, elements[:4])
    rec.residual("transferred m5 = 0", mset_t(5, elements).form, elements)
    rec.residual("transferred f3 = 0", fset_t(3, elements[:3]), elements[:3])
    rec.residual("transferred f4 = 0", fset_t(4, elements[:4]), elements[:4])


def suite_ce_cohomology(n, trials, seed, maxd, max_relation=5):
    """The built-in finite model: Betti numbers, the ring isomorphism, every
    Stasheff relation up to `max_relation` and every shuffle sum up to
    p + q = 4 on basis tuples, and m3(a, b, a) = 2ca.  A model that cannot
    be built is a failed report, and no transfer check runs: each failed
    retract identity is recorded with its sample, a failed algebra axiom
    with its basis words, and a value outside the span of the basis words
    with the words it came from."""
    rec = _Recorder()
    try:
        bundle = finite.heisenberg_ce_retract()
    except RetractError as exc:
        rec.retract_failed(exc)
        return rec
    except finite.AxiomError as exc:
        rec.expect(exc.axiom, False, exc.labels, exc)
        return rec
    except finite.SpanError as exc:
        rec.residual(f"{exc.op} outside the span of the basis words", exc.outside, exc.words)
        return rec
    ha = finite.cohomology(bundle.rumin)
    hb = finite.cohomology(bundle.ce)
    for side, coh in (("ce", hb), ("rumin", ha)):
        betti = coh.betti_numbers()
        rec.expect(f"{side} betti numbers", betti == (1, 2, 2, 1), [f"{side} model"], f"betti {betti} != (1, 2, 2, 1)")
    iso = finite.check_ring_isomorphism(bundle.inclusion, ha, hb)
    rec.expect("ring isomorphism", iso.ok, ["inclusion"], "; ".join(iso.witnesses) or "ring isomorphism failed")

    # arity 4 is always needed: the shuffle sweep goes up to p+q = 4
    mset, fset = markl_transfer(bundle.retract, max_arity=max(max_relation, 4))
    basis = bundle.rumin.all_basis_vectors()

    for k in range(1, max_relation + 1):
        _stasheff(rec, mset, k, product(basis, repeat=k))
    for p, q in SHUFFLE_PAIRS:
        _shuffles(rec, mset, fset, p, q, product(basis, repeat=p + q))
    a = bundle.rumin.element("a")
    b = bundle.rumin.element("b")
    ca = bundle.rumin.element("ca")
    value = mset(3, (a, b, a))
    rec.expect("m3(a, b, a) = 2ca", value == ca.scale(2), ["m3(a, b, a)"], f"expected 2*ca, got {value}")
    rec.expect(
        "m3(a, b, a) nonzero in H^2",
        any(ha.reduce(value)),
        ["m3(a, b, a)"],
        "ternary product class vanishes in degree 2",
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
        passed=bool(rec.checks) and not rec.failures,  # a run that checked nothing proves nothing
        failures=rec.failures,
        relation_checks=dict(rec.checks),
        relation_failures=dict(rec.failed),
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
    failed = sum(report.relation_failures.values())
    head = (
        f"suite={report.suite} n={report.n} trials={report.trials} seed={report.seed} "
        f"max-poly-degree={report.max_poly_degree}: {status} "
        f"({report.checks} checks, {failed} failures, {report.wall_time:.2f}s)"
    )
    lines = [head]
    if failed > len(report.failures):
        lines.append(f"  only the first {len(report.failures)} witnesses follow")
    for i, f in enumerate(report.failures, start=1):
        lines.append(f"  witness {i}:")
        lines.append(f"    relation: {f.relation}")
        for inp in f.inputs:
            lines.append(f"    input: {inp}")
        lines.append(f"    residual: {f.residual}")
    return "\n".join(lines)
