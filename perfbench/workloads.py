"""The four benchmark workloads.

A workload object is built from the run seed; building it is the set-up that
`setup_s` times.  Each pass is one closed-loop unit of work: the next pass
starts when the previous one ends.  `run_pass()` is a generator that yields a
PassResult at the end of each step of the pass, so that the runner can time
every step on its own; the steps of a pass are the same, in the same order,
in every pass.  `fresh()` empties the program's caches and makes new
ContactModel instances before a cold pass; it is not timed.  `verify()` is
the correctness stage, run outside the timed passes; it returns a list of
problems, empty when every check holds.

Inputs are drawn from the seed with the benchmark's own random.Random, except
for the two symbolic corpora, which are drawn once by the program's own form
generator from fixed streams (the draw the verification suites make).  The
run seed then applies a symmetry of the Heisenberg model to every form: a
permutation of the coordinate pairs (x_i, y_i) and a sign per form.  That map
preserves theta and commutes with d, wedge and gamma, so the inputs differ
from seed to seed while the amount of work does not.  A plain random draw
varies too much: at n = 3 the per-tuple cost has a coefficient of variation
near 0.8, and a 10 s pass of random tuples spreads by about 17% between seeds.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import reference
from ruminalg import cinfty, cli, finite, forms, parser, poly, prng, rumin, suites


@dataclass
class PassResult:
    checks: int = 0     # identity checks made (relation residuals, round-trip equalities)
    attempted: int = 0  # operations attempted
    failed: int = 0     # operations that failed
    known: int = 0      # of the failed ones, those that are known program faults

    def add(self, ok: bool) -> None:
        self.checks += 1
        self.attempted += 1
        self.failed += not ok

    def merge(self, other: "PassResult") -> None:
        self.checks += other.checks
        self.attempted += other.attempted
        self.failed += other.failed
        self.known += other.known


def check(ok: bool) -> PassResult:
    """The result of a step that makes one check."""
    return PassResult(1, 1, int(not ok))


def clear_program_caches() -> None:
    """Empty the program's module-level caches (a missing one is skipped)."""
    for module, name in ((rumin, "_solver_cache"), (suites, "_retract_cache")):
        cache = getattr(module, name, None)
        if cache is not None:
            cache.clear()


# -- symmetric variants of a fixed corpus ---------------------------------------


def _form_data(form) -> dict:
    return {idx: dict(p.terms) for idx, p in form.terms.items()}


def _permute(data: dict, n: int, perm, sign: int) -> dict:
    """Image of a form under (x_i, y_i) -> (x_perm[i], y_perm[i]), scaled by sign."""
    out = {}
    for idx, coeff in data.items():
        mapped = tuple(
            0 if i == 0 else perm[i - 1] + 1 if i <= n else n + perm[i - n - 1] + 1 for i in idx
        )
        s, key = reference.sorted_with_sign(mapped)
        terms = {}
        for ex, c in coeff.items():
            e = [0] * (2 * n + 1)
            for i in range(n):
                e[perm[i]] = ex[i]
                e[n + perm[i]] = ex[n + i]
            e[2 * n] = ex[2 * n]
            terms[tuple(e)] = c * s * sign
        out[key] = terms
    return out


def _build(model, degree: int, data: dict):
    return forms.Form(model, degree, {idx: poly.Poly(model.nvars, p) for idx, p in data.items()})


class _SymmetricCorpus:
    """Groups of forms kept as (degree, data) pairs in `raw` and rebuilt on a
    new model by `fresh()`."""

    n = 0
    corpus_seed = 0   # the program's prng streams the corpus is drawn from
    corpus_first = 0  # the first stream

    def _variant(self, rnd: random.Random, raw_forms):
        perm = rnd.sample(range(self.n), self.n)
        return [(f.degree, _permute(_form_data(f), self.n, perm, rnd.choice((1, -1))))
                for f in raw_forms]

    def fresh(self) -> None:
        clear_program_caches()
        self.model = forms.ContactModel(self.n)
        self.inputs = [[_build(self.model, d, data) for d, data in t] for t in self.raw]


def _suite_degree(rng, model) -> int:
    # The suites' bias toward low degrees, where the relations have content.
    if rng.chance(3, 4):
        return rng.randint(0, min(model.n + 1, model.dim))
    return rng.randint(0, model.dim)


# -- symbolic-n3 ------------------------------------------------------------------

SHUFFLE_PAIRS = [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)]


class SymbolicN3(_SymmetricCorpus):
    """Relations of the stasheff (1..5), morphism (1..4), shuffle-vanishing and
    higher-vanish suites on certified 5-tuples at n = 3, coefficients of
    degree <= 2.  Each tuple is certified by pi inside the pass, as in the
    suites.

    The corpus is streams 18..20.  One tuple costs from 0.03 s to over 1 s.
    In streams 0..5 a single tuple takes two thirds of the pass, and it is
    the only one on which the corrupted m3 of the negative control is caught.
    Streams 18..20 give a pass under 1 s, so that a run times every check
    many times, and hold a tuple that catches the corrupted m3."""

    name = "symbolic-n3"
    n = 3
    tuples = 3
    corpus_first = 18
    relations = 5 + 4 + 2 * len(SHUFFLE_PAIRS) + 4

    def __init__(self, seed: int):
        base = forms.ContactModel(self.n)
        rnd = random.Random(f"{self.name}:{seed}")
        self.raw = []
        for t in range(self.tuples):
            rng = prng.stream(self.corpus_seed, self.corpus_first + t)
            forms_t = [forms.random_form(base, rng, _suite_degree(rng, base), 2) for _ in range(5)]
            self.raw.append(self._variant(rnd, forms_t))
        rnd.shuffle(self.raw)
        self.fresh()

    def expected_checks(self) -> int:
        return self.tuples * self.relations

    def run_pass(self):
        model = self.model
        mset, fset, mbar = rumin.rumin_ops(model), rumin.rumin_morphism(model), rumin.derham_ops(model)
        mset_t, fset_t = cinfty.markl_transfer(suites.verified_rumin_retract(self.n), max_arity=5)
        yield PassResult()
        self.certified = []
        for raw in self.inputs:
            els = tuple(rumin.pi(w) for w in raw)
            self.certified.append(els)
            yield PassResult()
            for k in range(1, 6):
                yield check(cinfty.check_stasheff(mset, k, els[:k]).is_zero())
            for k in range(1, 5):
                yield check(cinfty.check_morphism(fset, mset, mbar, k, els[:k]).is_zero())
            for p, q in SHUFFLE_PAIRS:
                yield check(cinfty.shuffle_vanishing_residual(mset, p, q, els[: p + q]).is_zero())
                yield check(cinfty.shuffle_vanishing_residual(fset, p, q, els[: p + q]).is_zero())
            yield check(mset_t(4, els[:4]).is_zero())
            yield check(mset_t(5, els).is_zero())
            yield check(fset_t(3, els[:3]).is_zero())
            yield check(fset_t(4, els[:4]).is_zero())

    def verify(self) -> list:
        problems = []
        # wedge and d against the dict-of-Fractions reference, on the corpus
        sample = [w for t in self.inputs[:3] for w in t]
        for a, b in zip(sample, sample[1:]):
            if _form_data(forms.wedge(a, b)) != reference.wedge(_form_data(a), _form_data(b)):
                problems.append(f"wedge differs from the reference on degrees {a.degree}, {b.degree}")
        for a in sample:
            if _form_data(forms.exterior_d(a)) != reference.exterior_d(_form_data(a), self.n):
                problems.append(f"exterior_d differs from the reference on degree {a.degree}")
        m1 = forms.ContactModel(1)
        dx, dy = rumin.certify(m1.generator(1)), rumin.certify(m1.generator(2))
        if _form_data(rumin.m3(dx, dy, dx).form) != {(0, 1): {(0, 0, 0): 2}}:
            problems.append("m3(dx1; dy1; dx1) != 2 theta^dx1")
        corrupted = suites.corrupted_rumin_ops(self.model)
        if all(cinfty.check_stasheff(corrupted, 3, els[:3]).is_zero() for els in self.certified):
            problems.append("negative control: corrupted m3 passes relation 3 on every tuple")
        return problems


# -- lefschetz-cold-n5 ----------------------------------------------------------------


class LefschetzColdN5(_SymmetricCorpus):
    """The gamma-props and gamma-invariance identities at n = 5.  Each trial
    rescales theta by LAMBDAS; a cold pass builds the n solvers of lambda = 1
    and n - 1 of each rescaling, 9 in all.

    The sizes keep the cold pass near 1 s, so that a run times each of its
    steps many times.  The suite's rescalings 2 and 3/7 and a random one
    would triple it.  The invariance check skips the form of degree n + 1,
    the only one whose gamma needs the power-1 solver (252 x 252): built for
    a rescaling, that one step would take a third of the cold pass.  The
    power-1 solver of lambda = 1 is still built, by gamma-props."""

    name = "lefschetz-cold-n5"
    n = 5
    trials = 1
    LAMBDAS = [Fraction(3, 7)]

    def __init__(self, seed: int):
        base = forms.ContactModel(self.n)
        rnd = random.Random(f"{self.name}:{seed}")
        dim = base.dim
        self.raw = []
        for t in range(self.trials):
            rng = prng.stream(self.corpus_seed, t)
            rf = forms.random_form
            group = (
                [rf(base, rng, deg, 2, vertical=True) for deg in range(1, dim + 1)]
                + [rf(base, rng, deg, 2) for deg in range(dim + 1)]
                + [rf(base, rng, deg, 2, vertical=True) for deg in range(1, self.n + 1)]
                + [rf(base, rng, rng.randint(0, dim), 2) for _ in range(2)]
                + [rf(base, rng, deg, 2) for deg in range(dim + 1)]
            )
            self.raw.append(self._variant(rnd, group))
        self.fresh()

    def expected_checks(self) -> int:
        dim = 2 * self.n + 1
        return self.trials * (dim + 2 * (dim + 1) + self.n + 3 + len(self.LAMBDAS) * dim)

    def _parts(self, group) -> dict:
        """Split a trial's forms into the suites' groups: vertical forms of
        degree 1..dim, forms of degree 0..dim, vertical forms of degree
        1..n, the pair (a, b), and the invariance forms of degree 0..dim."""
        dim, out, pos = 2 * self.n + 1, {}, 0
        for name, size in (("vert", dim), ("ws", dim + 1), ("low", self.n), ("ab", 2),
                           ("inv", dim + 1)):
            out[name], pos = group[pos: pos + size], pos + size
        return out

    def run_pass(self):
        gamma, d, wedge = rumin.gamma, forms.exterior_d, forms.wedge
        for group in self.inputs:
            part = self._parts(group)
            for v in part["vert"]:
                yield check(gamma(v).is_zero())
            for w in part["ws"]:
                yield check((gamma(d(gamma(w))) - gamma(w)).is_zero())
                yield check(gamma(gamma(w)).is_zero())
            for v in part["low"]:
                yield check((gamma(d(v)) - v).is_zero())
            a, b = part["ab"]
            yield check(wedge(gamma(a), gamma(b)).is_zero())
            yield check(gamma(wedge(gamma(a), b)).is_zero())
            yield check(gamma(wedge(a, gamma(b))).is_zero())
            for w in part["inv"]:
                if w.degree == self.n + 1:  # see the class docstring
                    continue
                for lam in self.LAMBDAS:
                    yield check(rumin.gamma_invariance_check(w, lam))

    def verify(self) -> list:
        problems = []
        for w in self._parts(self.inputs[0])["ws"]:
            if any(not idx or idx[0] != 0 for idx in rumin.gamma(w).terms):
                problems.append(f"gamma of a degree-{w.degree} form is not vertical")
            if not rumin.in_rumin(rumin.pi(w).form):
                problems.append(f"pi of a degree-{w.degree} form is not in R")
        for k in range(1, self.n + 1):
            allowed = {0, math.factorial(k), -math.factorial(k)}
            entries = {x for row in forms.lefschetz_power_matrix(self.model, k) for x in row}
            if not entries <= allowed:
                problems.append(f"lefschetz_power_matrix(n={self.n}, k={k}) has entries outside 0, +-{k}!")
        return problems


# -- ce-sweep -----------------------------------------------------------------------

# Stasheff relations 1..CE_MAX_RELATION on all basis tuples of the
# 6-dimensional subcomplex, the shuffle sums (p, q) with p + q = 2, 3, 4 on
# products and on the morphism, the two Betti checks, the ring isomorphism and
# the two m3(a, b, a) checks.  The suite's default goes up to relation 5, whose
# 7,776 tuples take 84% of its time, and relation 4 another 9%; relation 3
# keeps a pass near 0.7 s, so that a run times every check many times.
CE_MAX_RELATION = 3
CE_CHECKS = (sum(6 ** k for k in range(1, CE_MAX_RELATION + 1))
             + 2 * (6 ** 2 + 2 * 6 ** 3 + 3 * 6 ** 4) + 5)


class CeSweep:
    """The built-in finite model end to end: the body of the `ce-cohomology`
    suite with max_relation = CE_MAX_RELATION, check by check through the
    same public functions (`cohomology`, `check_ring_isomorphism`,
    `markl_transfer`, `check_stasheff`, `shuffle_vanishing_residual`), so
    that each check is timed on its own.  The sweep is exhaustive, so the
    seed does not change its inputs."""

    name = "ce-sweep"

    def __init__(self, seed: int):
        self.seed = seed

    def fresh(self) -> None:
        clear_program_caches()

    def expected_checks(self) -> int:
        return CE_CHECKS

    def run_pass(self):
        bundle = finite.heisenberg_ce_retract()
        ha, hb = finite.cohomology(bundle.rumin), finite.cohomology(bundle.ce)
        yield check(hb.betti_numbers() == (1, 2, 2, 1))
        yield check(ha.betti_numbers() == (1, 2, 2, 1))
        yield check(finite.check_ring_isomorphism(bundle.inclusion, ha, hb).ok)
        mset, fset = cinfty.markl_transfer(bundle.retract, max_arity=max(CE_MAX_RELATION, 4))
        basis = bundle.rumin.all_basis_vectors()
        # Tuples in the suite's order: the first element varies slowest.
        for k in range(1, CE_MAX_RELATION + 1):
            for elements in itertools.product(basis, repeat=k):
                yield check(cinfty.check_stasheff(mset, k, elements).is_zero())
        for p, q in SHUFFLE_PAIRS:
            for elements in itertools.product(basis, repeat=p + q):
                yield check(cinfty.shuffle_vanishing_residual(mset, p, q, elements).is_zero())
                yield check(cinfty.shuffle_vanishing_residual(fset, p, q, elements).is_zero())
        rm = bundle.rumin
        a, b, ca = rm.element("a"), rm.element("b"), rm.element("ca")
        value = mset(3, (a, b, a))
        yield check(value == ca.scale(2))
        yield check(any(ha.reduce(value)))

    def verify(self) -> list:
        problems = []
        report = suites.run_suite("ce-cohomology", max_relation=CE_MAX_RELATION)
        if not report.passed or report.checks != CE_CHECKS:
            problems.append(f"run_suite('ce-cohomology') made {report.checks} checks, "
                            f"passed {report.passed}; expected {CE_CHECKS} passing")
        bundle = finite.heisenberg_ce_retract()
        for alg in (bundle.ce, bundle.rumin):
            ranks = {k: reference.rank(alg.d_matrix(k)) if alg.dim(k) and alg.dim(k + 1) else 0
                     for k in range(-1, 4)}
            betti = tuple(alg.dim(k) - ranks[k] - ranks[k - 1] for k in range(4))
            if betti != (1, 2, 2, 1):
                problems.append(f"{alg.name}: betti {betti} != (1, 2, 2, 1)")
        mset, _ = cinfty.markl_transfer(bundle.retract, max_arity=3)
        rm = bundle.rumin
        a, b, ca = rm.element("a"), rm.element("b"), rm.element("ca")
        value = mset(3, (a, b, a))
        if value.degree != 2 or list(value.coeffs) != [2 * c for c in ca.coeffs]:
            problems.append(f"m3(a, b, a) = {value}, expected 2*ca")
        d1, d2 = rm.d_matrix(1), rm.d_matrix(2)
        cocycle = not any(sum(r * c for r, c in zip(row, value.coeffs)) for row in d2)
        exact = reference.rank([row + [c] for row, c in zip(d1, value.coeffs)]) == reference.rank(d1)
        if not cocycle or exact:
            problems.append("m3(a, b, a) is not a nonzero class in degree 2")
        return problems


# -- eval-roundtrip ---------------------------------------------------------------

# (n, operator template, count per pass); F, G, H are random form texts.
EVAL_MIX = [
    (1, "{F}", 16), (1, "gamma({F})", 6), (1, "pi({F})", 6), (1, "d({F})", 6),
    (1, "m2(pi({F}); pi({G}))", 5), (1, "m3(pi({F}); pi({G}); pi({H}))", 5),
    (1, "f2(pi({F}); pi({G}))", 5),
    (2, "{F}", 30), (2, "gamma({F})", 12), (2, "pi({F})", 12), (2, "d({F})", 12),
    (2, "m2(pi({F}); pi({G}))", 6), (2, "m3(pi({F}); pi({G}); pi({H}))", 4),
    (2, "f2(pi({F}); pi({G}))", 6),
]
POWERS = [50, 100, 200]

# The two CLI faults kept as failed operations until they are fixed: each
# must end with exit code 2 and at most a one-line message.
CLI_FAULTS = [
    ["verify", "dsq", "--trials", "0"],
    ["eval", "dx1", "--n", "0"],
]


def _poly_text(rnd: random.Random, names) -> str:
    out = []
    for i in range(rnd.randint(2, 3)):
        c = Fraction(rnd.randint(1, 9), rnd.choice((1, 1, 2, 3)))
        factors = [str(c)] + [rnd.choice(names) for _ in range(rnd.randint(0, 2))]
        sign = rnd.choice("+-")
        body = "*".join(factors)
        out.append(("-" if sign == "-" else "") + body if i == 0 else f" {sign} {body}")
    return "".join(out)


def _form_text(rnd: random.Random, n: int, degree: int) -> str:
    gens = ["theta"] + [f"dx{i}" for i in range(1, n + 1)] + [f"dy{i}" for i in range(1, n + 1)]
    coords = [f"x{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, n + 1)] + ["z"]
    monos = list(itertools.combinations(range(2 * n + 1), degree))
    terms = []
    for idx in rnd.sample(monos, min(3, len(monos))):
        word = "^".join("dz" if i == 0 and rnd.random() < 0.25 else gens[i] for i in idx)
        coeff = f"({_poly_text(rnd, coords)})"
        terms.append(f"{coeff} {word}" if word else coeff)
    return " + ".join(terms)


class EvalRoundtrip:
    """Seeded expression texts at n = 1 and 2 evaluated with eval_text,
    printed canonically, reparsed and compared; polynomial powers
    (1+x1)**k; and the two known CLI faults, reproduced through cli.main."""

    name = "eval-roundtrip"

    def __init__(self, seed: int):
        rnd = random.Random(f"{self.name}:{seed}")
        self.exprs = []
        for n, template, count in EVAL_MIX:
            dim = 2 * n + 1
            for i in range(count):
                if template.startswith(("m2", "m3", "f2")):  # low degrees: nonzero products
                    degs = [rnd.randint(0, n + 1) for _ in range(3)]
                else:
                    degs = [i % (dim + 1)] * 3
                texts = {k: _form_text(rnd, n, deg) for k, deg in zip("FGH", degs)}
                self.exprs.append((n, template.format(**texts)))
        self.powers = [k + rnd.randint(-3, 3) for k in POWERS]
        self.exprs += [(1, f"((1+x1)**{k})") for k in self.powers]
        rnd.shuffle(self.exprs)
        self.fresh()

    def fresh(self) -> None:
        clear_program_caches()
        self.models = {1: forms.ContactModel(1), 2: forms.ContactModel(2)}

    def expected_checks(self) -> int:
        return len(self.exprs)

    def run_pass(self):
        self.values = {}
        for n, text in self.exprs:
            model = self.models[n]
            value = parser.eval_text(text, model)
            yield PassResult()  # a power's eval and reparse are each a step
            canonical = value.to_text()
            again = parser.eval_text(canonical, model)
            yield check(again == value and again.to_text() == canonical)
            self.values[text] = value
        for argv in CLI_FAULTS:
            ok = _cli_exits_2(argv)
            yield PassResult(0, 1, int(not ok), int(not ok))

    def verify(self) -> list:
        problems = []
        for k in self.powers:
            p = self.values[f"((1+x1)**{k})"].terms[()]
            want = {(j, 0, 0): Fraction(math.comb(k, j)) for j in range(k + 1)}
            if p.terms != want:
                problems.append(f"(1+x1)**{k} has coefficients other than comb({k}, j)")
        m1, m2 = forms.ContactModel(1), forms.ContactModel(2)
        for text, model, want in [("gamma(dx1^dy1)", m1, "theta"), ("pi(dx1^dy1)", m1, "0"),
                                  ("dz", m2, "theta + (y1) dx1 + (y2) dx2")]:
            got = parser.eval_text(text, model).to_text()
            if got != want:
                problems.append(f"eval {text!r} at n={model.n} gave {got!r}, documented {want!r}")
        return problems


def _cli_exits_2(argv) -> bool:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a traceback out of main is the fault being counted
        return False
    return code == 2 and len(err.getvalue().strip().splitlines()) <= 1


WORKLOADS = {w.name: w for w in (SymbolicN3, LefschetzColdN5, CeSweep, EvalRoundtrip)}
