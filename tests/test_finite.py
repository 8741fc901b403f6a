import copy
import pickle
import re
import sys
import time
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruminalg import finite
from ruminalg.cinfty import RetractData, markl_transfer
from ruminalg.errors import ConstructionError, DimensionError, DomainError
from ruminalg.finite import (
    CochainMap,
    FiniteGradedAlgebra,
    FiniteVector,
    SpanError,
    _ce_words,
    _rumin_words,
    check_ring_isomorphism,
    cohomology,
    heisenberg_ce_algebra,
    heisenberg_ce_retract,
    heisenberg_rumin_model,
)
from ruminalg.forms import ContactModel, wedge
from ruminalg.poly import Poly
from ruminalg.rumin import gamma


# -- independent Betti oracle: plain Gaussian elimination on the d-matrices ------


def _oracle_rank(rows):
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


def _oracle_d_matrix(alg, degree):
    src = alg.labels(degree)
    dst = alg.labels(degree + 1)
    pos = {label: i for i, label in enumerate(dst)}
    m = [[Fraction(0)] * len(src) for _ in dst]
    for j, label in enumerate(src):
        for to, c in alg.d.get(label, {}).items():
            m[pos[to]][j] = Fraction(c)
    return m


def oracle_betti(alg):
    out = []
    for k in alg.degrees:
        dim_k = alg.dim(k)
        rank_k = _oracle_rank(_oracle_d_matrix(alg, k))
        rank_prev = _oracle_rank(_oracle_d_matrix(alg, k - 1))
        out.append(dim_k - rank_k - rank_prev)
    return tuple(out)


# -- the built-in models -----------------------------------------------------------


def test_ce_algebra_shape():
    ce = heisenberg_ce_algebra()
    assert [ce.dim(k) for k in range(4)] == [1, 3, 3, 1]
    assert ce.d.get("c") == {"ab": Fraction(1)}
    assert "a" not in ce.d and "b" not in ce.d
    assert ce.mu_vec(ce.element("a"), ce.element("b")) == ce.element("ab")
    assert ce.mu_vec(ce.element("b"), ce.element("a")) == ce.element("ab").scale(-1)


def test_ce_betti_against_oracle():
    ce = heisenberg_ce_algebra()
    h = cohomology(ce)
    assert h.betti_numbers() == (1, 2, 2, 1)
    assert oracle_betti(ce) == (1, 2, 2, 1)


def test_ce_reduce_classes():
    ce = heisenberg_ce_algebra()
    h = cohomology(ce)
    assert h.reduce(ce.element("ab")) == (Fraction(0), Fraction(0))  # a^b = dc is exact
    assert any(h.reduce(ce.element("ac")))
    with pytest.raises(DomainError):
        h.reduce(ce.element("c"))  # not a cocycle


def test_rumin_model_zero_differential():
    rm = heisenberg_rumin_model()
    assert rm.d == {}
    h = cohomology(rm)
    assert h.betti_numbers() == (1, 2, 2, 1)
    assert oracle_betti(rm) == (1, 2, 2, 1)
    # d = 0 means HA = A: every basis vector is its own class
    for deg in rm.degrees:
        assert h.betti(deg) == rm.dim(deg)


def test_dependent_image_columns():
    # d u = w and d v = 2w: the two image columns of degree 1 are dependent,
    # and x is closed and no boundary
    alg = FiniteGradedAlgebra({0: ["u", "v"], 1: ["w", "x"]}, {"u": {"w": 1}, "v": {"w": 2}}, {})
    h = cohomology(alg)
    assert h.betti_numbers() == oracle_betti(alg) == (1, 1)
    assert h.representatives(0) == [alg.element("v") - alg.element("u").scale(2)]
    assert h.representatives(1) == [alg.element("x")]
    assert h.reduce(alg.element("w") + alg.element("x").scale(3)) == (3,)


def _ring_iso(fmap):
    return check_ring_isomorphism(fmap, cohomology(fmap.src), cohomology(fmap.dst))


def _labels(alg):
    return [label for deg in alg.degrees for label in alg.labels(deg)]


def _scaling(alg, c):
    # the label rows of c times the identity of `alg`
    return {label: {label: c} for label in _labels(alg)}


# The inclusion of the Rumin model in CE as label rows: a Rumin word is the CE
# word of its letters in their order, so c^a = -(a^c).
INCLUSION_ROWS = {"1": {"1": 1}, "a": {"a": 1}, "b": {"b": 1}, "ca": {"ac": -1}, "cb": {"bc": -1}, "cab": {"abc": 1}}


def test_ring_isomorphism_of_inclusion():
    bundle = heisenberg_ce_retract()
    result = _ring_iso(bundle.inclusion)
    assert result.ok and not result.witnesses
    assert bool(result)


def test_ring_isomorphism_identity_map():
    ce = heisenberg_ce_algebra()
    ident = CochainMap(ce, ce, _scaling(ce, 1))
    assert _ring_iso(ident).ok


def test_ring_isomorphism_negative_control():
    bundle = heisenberg_ce_retract()
    rows = {label: row for label, row in INCLUSION_ROWS.items() if label not in ("a", "b")}  # zero map in degree 1
    corrupted = CochainMap(bundle.rumin, bundle.ce, rows)
    result = _ring_iso(corrupted)
    assert not result.ok
    assert result.witnesses


def test_ring_isomorphism_of_a_map_that_is_not_a_cochain_map():
    # the identity of the CE algebra but a -> c, b -> 0, c -> 0 in degree 1:
    # the class [a] goes to c, which is not a cocycle
    ce = heisenberg_ce_algebra()
    rows = {**_scaling(ce, 1), "a": {"c": 1}, "b": {}, "c": {}}
    result = _ring_iso(CochainMap(ce, ce, rows))
    assert not result.ok
    assert any("not a cocycle" in w for w in result.witnesses), result.witnesses


def test_ring_isomorphism_betti_mismatch():
    # the zero map from the exterior algebra on one generator into CE
    circle = FiniteGradedAlgebra.loads("basis e 0\nbasis t 1\nmu e e e 1\nmu e t t 1\nmu t e t 1\n")
    ce = heisenberg_ce_algebra()
    zero = CochainMap(circle, ce, {})
    result = _ring_iso(zero)
    assert not result.ok
    assert "degree 1: betti 1 vs 2" in result.witnesses


def _is_cochain_map(f: CochainMap) -> bool:
    """f d = d f on every basis vector of the source."""
    return all(f.apply(f.src.apply_d(v)) == f.dst.apply_d(f.apply(v)) for v in f.src.all_basis_vectors())


def test_retract_identities_verified():
    bundle = heisenberg_ce_retract()
    # built, so checked; the same maps pass again on the bases
    r, bases = bundle.retract, (bundle.ce.all_basis_vectors(), bundle.rumin.all_basis_vectors())
    RetractData(r.d, r.mu, r.h, r.i, r.pi, r.b_d, *bases)
    assert _is_cochain_map(bundle.inclusion)
    # gamma on the finite model: the only nonzero value is on a^b
    ce = bundle.ce
    h = bundle.retract.h
    assert h(ce.element("ab")) == ce.element("c")
    for label in ("1", "a", "b", "c", "ac", "bc", "abc"):
        assert h(ce.element(label)).is_zero()


# -- construction checks -------------------------------------------------------------


def test_construction_rejects_broken_d_squared():
    basis = {0: ["u"], 1: ["v"], 2: ["w"]}
    d = {"u": {"v": 1}, "v": {"w": 1}}  # d^2(u) = w != 0
    with pytest.raises(ConstructionError):
        FiniteGradedAlgebra(basis, d, {})


def test_construction_rejects_degree_violation():
    basis = {0: ["u"], 2: ["w"]}
    with pytest.raises(ConstructionError):
        FiniteGradedAlgebra(basis, {"u": {"w": 1}}, {})


def test_construction_rejects_noncommutative_product():
    basis = {1: ["a", "b"], 2: ["ab"]}
    mu = {("a", "b"): {"ab": 1}, ("b", "a"): {"ab": 1}}  # should be -1
    with pytest.raises(ConstructionError):
        FiniteGradedAlgebra(basis, {}, mu)


def test_construction_rejects_leibniz_violation():
    basis = {0: ["one"], 1: ["a"]}
    # d(one) = a but one*one = one forces d(one*one) = 2 one*d(one) != d(one)
    mu = {("one", "one"): {"one": 1}, ("one", "a"): {"a": 1}, ("a", "one"): {"a": 1}}
    with pytest.raises(ConstructionError):
        FiniteGradedAlgebra(basis, {"one": {"a": 1}}, mu)



def test_construction_rejects_nonassociative_product_with_first_witness():
    # a.b = 0 but b.b = a and a.a = c: (ab)b = 0 != c = a(bb).  The triple
    # (a, b, b) is the first failing one in lexicographic order.
    basis = {0: ["a", "b", "c"]}
    mu = {("b", "b"): {"a": 1}, ("a", "a"): {"c": 1}}
    with pytest.raises(ConstructionError, match=r"not associative on \(a, b, b\)"):
        FiniteGradedAlgebra(basis, {}, mu)


def test_associativity_keeps_the_first_witness_behind_a_zero_product():
    # p(qr) = ps = t while pq = pr = 0: the first failing triple (p, q, r)
    # has a zero first product, so it is found among the w with a nonzero qw
    basis = {0: ["p", "q", "r", "s", "t"]}
    mu = {("q", "r"): {"s": 1}, ("r", "q"): {"s": 1}, ("p", "s"): {"t": 1}, ("s", "p"): {"t": 1}}
    with pytest.raises(ConstructionError, match=r"not associative on \(p, q, r\)"):
        FiniteGradedAlgebra(basis, {}, mu)


def test_associativity_check_skips_zero_products(monkeypatch):
    # 120 generators with no differential and no products: every u.v is
    # zero, so no triple needs a product, and the checks, which read the
    # stored rows, make none.
    calls = 0
    mu_vec = FiniteGradedAlgebra.mu_vec

    def counted(self, u, v):
        nonlocal calls
        calls += 1
        return mu_vec(self, u, v)

    monkeypatch.setattr(FiniteGradedAlgebra, "mu_vec", counted)
    text = "".join(f"basis u{i} 1\n" for i in range(120))
    algebra = FiniteGradedAlgebra.loads(text)
    assert algebra.dim(1) == 120
    assert calls <= 3 * 120**2



def test_pair_checks_skip_pairs_with_nothing_to_check(monkeypatch):
    # 300 generators with no differential and no products: no pair has a
    # product or a differential to compare, and the checks, which read the
    # stored rows, make no product at all.
    calls = 0
    mu_vec = FiniteGradedAlgebra.mu_vec

    def counted(self, u, v):
        nonlocal calls
        calls += 1
        return mu_vec(self, u, v)

    monkeypatch.setattr(FiniteGradedAlgebra, "mu_vec", counted)
    algebra = FiniteGradedAlgebra.loads("".join(f"basis u{i} 1\n" for i in range(300)))
    assert algebra.dim(1) == 300 and calls == 0


def test_no_pair_or_triple_is_summed_when_nothing_is_stored(monkeypatch):
    # 300 generators with no differential and no products: the d^2 check
    # sums each generator's empty row once, and every pair and triple is
    # skipped before a sum
    calls = 0
    nonzero = finite._nonzero

    def counted(terms):
        nonlocal calls
        calls += 1
        return nonzero(terms)

    monkeypatch.setattr(finite, "_nonzero", counted)
    FiniteGradedAlgebra.loads("".join(f"basis u{i} 1\n" for i in range(300)))
    assert calls == 300


def _semilattice(m: int) -> str:
    # m degree-0 generators with u_i u_j = u_max(i,j): commutative and
    # associative, and every product is nonzero
    return "".join(f"basis u{i} 0\n" for i in range(m)) + "".join(
        f"mu u{i} u{j} u{max(i, j)} 1\n" for i in range(m) for j in range(m)
    )


def test_3000_bare_basis_lines_load_within_their_budget():
    # nothing is stored, so nothing is built or checked per pair of labels
    text, budget = "".join(f"basis u{i} {i % 4}\n" for i in range(3000)), 1.0
    start = time.perf_counter()
    algebra = FiniteGradedAlgebra.loads(text)
    elapsed = time.perf_counter() - start
    assert len(text) > 40_000 and algebra.dim(1) == 750
    assert elapsed < budget, f"loading took {elapsed:.2f}s, over its {budget:.0f}s budget"


def test_a_60_generator_algebra_loads_within_its_budget():
    # every one of the 60**3 triples needs its associativity sums
    text, budget = _semilattice(60), 2.0
    start = time.perf_counter()
    algebra = FiniteGradedAlgebra.loads(text)
    elapsed = time.perf_counter() - start
    assert len(text) > 60_000 and algebra.dim(0) == 60
    assert elapsed < budget, f"loading took {elapsed:.2f}s, over its {budget:.0f}s budget"


def test_the_120_generator_algebra_is_refused_at_once_with_its_estimate():
    # 3 * 120**3 triple steps and more, past MAX_AXIOM_WORK: refused before
    # any check, where checking took 3.3 s
    text = _semilattice(120)
    start = time.perf_counter()
    with pytest.raises(DomainError) as refusal:
        FiniteGradedAlgebra.loads(text)
    elapsed = time.perf_counter() - start
    assert str(refusal.value) == "checking the algebra axioms takes about 5241720 steps, more than 2000000"
    assert len(text) > 250_000 and elapsed < 1.0


def _axiom_steps(algebra) -> int:
    """The steps `_check_axioms` takes on `algebra`, accepted or not: one per
    sum and one per row entry a sum reads."""
    steps, nonzero = 0, finite._nonzero

    def counted(terms):
        nonlocal steps
        terms = list(terms)
        steps += 1 + sum(len(row) for _, row in terms)
        return nonzero(terms)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(finite, "_nonzero", counted)
        try:
            FiniteGradedAlgebra._check_axioms(algebra)
        except ConstructionError:
            pass
    return steps


@pytest.mark.parametrize(
    "build",
    [heisenberg_ce_algebra, heisenberg_rumin_model, lambda: FiniteGradedAlgebra.loads(_semilattice(12))],
    ids=["ce", "rumin", "semilattice"],
)
def test_the_axiom_work_estimate_bounds_the_checks(build):
    algebra = build()
    assert 0 < _axiom_steps(algebra) <= algebra._axiom_work()


@pytest.mark.parametrize(
    "build",
    [heisenberg_ce_algebra, heisenberg_rumin_model, lambda: FiniteGradedAlgebra.loads(_semilattice(12)),
     lambda: FiniteGradedAlgebra.loads(CE_DUMP), lambda: FiniteGradedAlgebra.loads(RATIONAL_ALGEBRA)],
    ids=["ce", "rumin", "semilattice", "ce-dump", "rational"],
)
def test_building_an_algebra_makes_no_vector(build):
    algebra = build()
    assert algebra._vectors == {} and algebra._zeros == {}


# -- the row checks against the vector checks ---------------------------------------


def _vector_check(alg):
    # The reference: the axiom checks on basis vectors, every product made by
    # mu_vec and every differential by apply_d, compared as vectors, in the
    # order and with the skips and messages of the row checks.
    vectors = alg.all_basis_vectors()
    labels = [label for deg in alg.degrees for label in alg.labels(deg)]
    differentials = [alg.apply_d(v) for v in vectors]
    for v, dv in zip(vectors, differentials):
        if not alg.apply_d(dv).is_zero():
            raise ConstructionError(f"d^2 != 0 on {v}")
    closed = [dv.is_zero() for dv in differentials]
    products = [
        {j: alg.mu_vec(u, v) for j, (b, v) in enumerate(zip(labels, vectors)) if alg.mu.get((a, b))}
        for a, u in zip(labels, vectors)
    ]
    for i, u in enumerate(vectors):
        for j, v in enumerate(vectors):
            uv, vu = products[i].get(j), products[j].get(i)
            if uv is None and vu is None and closed[i] and closed[j]:
                continue
            zero = alg.zero(u.degree + v.degree)
            uv, vu = uv or zero, vu or zero
            sign = -1 if (u.degree & 1) and (v.degree & 1) else 1
            if uv != vu.scale(sign):
                raise ConstructionError(f"product not graded commutative on ({u}, {v})")
            left = alg.apply_d(uv)
            right = alg.mu_vec(differentials[i], v) + alg.mu_vec(u, differentials[j]).scale(
                -1 if u.degree & 1 else 1
            )
            if left != right:
                raise ConstructionError(f"Leibniz rule fails on ({u}, {v})")
    everything, zero = range(len(vectors)), alg.zero(0)
    for i, u in enumerate(vectors):
        for j, v in enumerate(vectors):
            uv = products[i].get(j)
            for k in everything if uv is not None else products[j]:
                w, vw = vectors[k], products[j].get(k)
                left = zero if uv is None else alg.mu_vec(uv, w)
                right = zero if vw is None else alg.mu_vec(u, vw)
                if left != right:
                    raise ConstructionError(f"product not associative on ({u}, {v}, {w})")


@st.composite
def random_tables(draw):
    # 1-5 labels of degrees 0-2 with random d and mu entries of the right
    # degrees; half the tables have no d and half make mu graded
    # commutative, so that the Leibniz and associativity checks are reached
    degrees = draw(st.lists(st.integers(0, 2), min_size=1, max_size=5))
    labels = [f"x{i}" for i in range(len(degrees))]
    degree = dict(zip(labels, degrees))
    entry = st.sampled_from([None, None, None, 1, -1, 2, Fraction(1, 2)])
    basis: dict = {}
    for label in labels:
        basis.setdefault(degree[label], []).append(label)

    def row(deg):
        return {c: x for c in labels if degree[c] == deg and (x := draw(entry)) is not None}

    d = {a: row(degree[a] + 1) for a in labels} if draw(st.booleans()) else {}
    symmetric, mu = draw(st.booleans()), {}
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            if symmetric and j < i:
                sign = -1 if degree[a] & degree[b] & 1 else 1
                mu[(a, b)] = {c: sign * x for c, x in mu[(b, a)].items()}
            else:
                mu[(a, b)] = row(degree[a] + degree[b])
    return basis, d, mu


def _refusal(build):
    try:
        build()
    except ConstructionError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(random_tables())
def test_row_checks_decide_as_the_vector_checks(table):
    # the same tables accepted, and the same first message for the others
    with pytest.MonkeyPatch.context() as m:
        m.setattr(FiniteGradedAlgebra, "_check_axioms", lambda self: None)
        unchecked = FiniteGradedAlgebra(*table)
    assert _refusal(lambda: FiniteGradedAlgebra(*table)) == _refusal(lambda: _vector_check(unchecked))


@settings(max_examples=200, deadline=None)
@given(random_tables())
def test_the_axiom_work_estimate_bounds_the_checks_of_random_tables(table):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(FiniteGradedAlgebra, "_check_axioms", lambda self: None)
        unchecked = FiniteGradedAlgebra(*table)
    assert _axiom_steps(unchecked) <= unchecked._axiom_work()


@pytest.mark.parametrize(
    "basis, d, mu, witness",
    [
        # the pairs of the idle generator p come first and are skipped
        ({1: ["p", "b", "c"], 2: ["bc"]}, {}, {("b", "c"): {"bc": 1}, ("c", "b"): {"bc": 1}},
         r"not graded commutative on \(b, c\)"),
        ({0: ["p", "one"], 1: ["a"]}, {"one": {"a": 1}},
         {("one", "one"): {"one": 1}, ("one", "a"): {"a": 1}, ("a", "one"): {"a": 1}},
         r"Leibniz rule fails on \(one, one\)"),
    ],
)
def test_pair_checks_keep_the_first_witness(basis, d, mu, witness):
    with pytest.raises(ConstructionError, match=witness):
        FiniteGradedAlgebra(basis, d, mu)


def test_duplicate_label_rejected():
    with pytest.raises(ConstructionError):
        FiniteGradedAlgebra({0: ["x"], 1: ["x"]}, {}, {})


@pytest.mark.parametrize(
    "basis, name, message",
    [
        ({0: ["a#1"]}, "", "basis label 'a#1'"),
        ({0: ["a b"]}, "", "basis label 'a b'"),
        ({0: ["a\u2028b"]}, "", "basis label 'a\\u2028b'"),
        ({0: [""]}, "", "basis label ''"),
        ({0: [1]}, "", "basis label 1"),
        ({0: ["u"]}, "my alg", "algebra name 'my alg'"),
        ({0: ["u"]}, "x#", "algebra name 'x#'"),
        ({0: ["u"]}, None, "algebra name None"),
    ],
)
def test_names_and_labels_the_file_format_cannot_carry_are_refused(basis, name, message):
    # dumps would write them, and loads would refuse the text or read back
    # another label (an int label comes back as a str)
    with pytest.raises(ConstructionError, match=re.escape(message)):
        FiniteGradedAlgebra(basis, {}, {}, name=name)


# -- file format ------------------------------------------------------------------------


# The exact dumps() text of the built-in models: a change of sign, label or
# basis order shows here, where a dump/load round trip would not see it.
CE_DUMP = """\
algebra heisenberg-ce
basis 1 0
basis a 1
basis b 1
basis c 1
basis ab 2
basis ac 2
basis bc 2
basis abc 3
d c ab 1
mu 1 1 1 1
mu 1 a a 1
mu 1 b b 1
mu 1 c c 1
mu 1 ab ab 1
mu 1 ac ac 1
mu 1 bc bc 1
mu 1 abc abc 1
mu a 1 a 1
mu a b ab 1
mu a c ac 1
mu a bc abc 1
mu b 1 b 1
mu b a ab -1
mu b c bc 1
mu b ac abc -1
mu c 1 c 1
mu c a ac -1
mu c b bc -1
mu c ab abc 1
mu ab 1 ab 1
mu ab c abc 1
mu ac 1 ac 1
mu ac b abc -1
mu bc 1 bc 1
mu bc a abc 1
mu abc 1 abc 1
"""

RUMIN_DUMP = """\
algebra heisenberg-rumin
basis 1 0
basis a 1
basis b 1
basis ca 2
basis cb 2
basis cab 3
mu 1 1 1 1
mu 1 a a 1
mu 1 b b 1
mu 1 ca ca 1
mu 1 cb cb 1
mu 1 cab cab 1
mu a 1 a 1
mu a cb cab -1
mu b 1 b 1
mu b ca cab 1
mu ca 1 ca 1
mu ca b cab 1
mu cb 1 cb 1
mu cb a cab -1
mu cab 1 cab 1
"""


def test_builtin_dumps_are_pinned():
    assert heisenberg_ce_algebra().dumps() == CE_DUMP
    assert heisenberg_rumin_model().dumps() == RUMIN_DUMP


def test_dump_load_round_trip():
    ce = heisenberg_ce_algebra()
    text = ce.dumps()
    again = FiniteGradedAlgebra.loads(text)
    assert again.basis == ce.basis
    assert again.d == ce.d
    assert again.mu == ce.mu
    assert again.name == ce.name
    assert again.dumps() == text


def test_load_hand_written_file():
    text = """
    # the exterior algebra on one generator with zero differential
    algebra circle
    basis one 0
    basis t 1
    mu one one one 1
    mu one t t 1
    mu t one t 1
    """
    alg = FiniteGradedAlgebra.loads(text)
    assert alg.name == "circle"
    h = cohomology(alg)
    assert h.betti_numbers() == (1, 1)


def test_load_rational_coefficients():
    text = "basis u 0\nmu u u u 3/2\n"
    alg = FiniteGradedAlgebra.loads(text)
    assert alg.mu[("u", "u")]["u"] == Fraction(3, 2)


def test_load_bad_record():
    with pytest.raises(ConstructionError) as err:
        FiniteGradedAlgebra.loads("basis u 0\nfrobnicate u\n")
    assert "line 2" in str(err.value)


def test_load_bad_rational():
    with pytest.raises(ConstructionError) as err:
        FiniteGradedAlgebra.loads("basis u 0\nbasis v 1\nd u v 1/0\n")
    assert "line 3" in str(err.value)
    assert str(err.value) == "line 3: zero denominator in '1/0'"


def test_load_adds_up_repeated_records():
    # d(SRC) += COEFF * DST: two records of one entry add up, to zero here
    text = "basis a 0\nbasis b 1\nd a b 1\nd a b -1\n"
    alg = FiniteGradedAlgebra.loads(text)
    assert alg.d == {"a": {}} and cohomology(alg).betti_numbers() == (1, 1)
    doubled = FiniteGradedAlgebra.loads("basis a 0\nbasis b 1\nd a b 1/2\nd a b 3/2\n")
    assert doubled.d == {"a": {"b": 2}}
    unit = FiniteGradedAlgebra.loads("basis e 0\nmu e e e 1/3\nmu e e e 2/3\n")
    assert unit.mu == {("e", "e"): {"e": 1}}


_WORD_CHARS = st.characters(exclude_categories=("Cs",))


@st.composite
def small_algebras(draw):
    # an optional unit times everything, and d from "source" labels into
    # "sink" labels one degree up, which have no d; every other product is
    # zero, so d^2 = 0 and the Leibniz rule hold
    words = st.text(_WORD_CHARS, min_size=1, max_size=4).filter(lambda w: w.split() == [w] and "#" not in w)
    labels = draw(st.lists(words, min_size=1, max_size=7, unique=True))
    coefficients = st.sampled_from([1, -1, 2, Fraction(3, 2), Fraction(-1, 3)])
    unit = labels[0] if draw(st.booleans()) else None
    basis, d, degree_of, sources = {}, {}, {}, []
    for label in labels:
        role = "unit" if label == unit else draw(st.sampled_from(["source", "sink", "idle"]))
        if role == "sink" and sources:
            src = draw(st.sampled_from(sources))
            d.setdefault(src, {})[label] = draw(coefficients)
            deg = degree_of[src] + 1
        else:
            deg = 0 if role == "unit" else draw(st.integers(-1, 2))
            if role == "source":
                sources.append(label)
        basis.setdefault(deg, []).append(label)
        degree_of[label] = deg
    mu = {}
    if unit is not None:
        for label in labels:
            mu[(unit, label)] = mu[(label, unit)] = {label: 1}
    name = draw(st.one_of(st.just(""), words))
    return FiniteGradedAlgebra(basis, d, mu, name=name)


@settings(max_examples=120, deadline=None)
@given(small_algebras())
def test_dumps_loads_round_trip(alg):
    text = alg.dumps()
    again = FiniteGradedAlgebra.loads(text)
    assert again.name == alg.name
    assert again.basis == alg.basis
    assert again.d == alg.d and again.mu == alg.mu
    assert again.dumps() == text


# -- vectors -----------------------------------------------------------------------------


def test_vector_algebra_and_display():
    ce = heisenberg_ce_algebra()
    v = ce.element("ac").scale(2) - ce.element("bc")
    assert str(v) == "2*ac - bc"
    assert str(ce.zero(2)) == "0"
    assert v + ce.zero(2) == v
    assert v.zero_of_degree(1) == ce.zero(1)
    assert hash(ce.element("a")) == hash(ce.element("a"))


def test_zero_vectors_hash_alike():
    ce = heisenberg_ce_algebra()
    zeros = [ce.zero(1), ce.zero(2), ce.element("a").scale(0), ce.element("a") - ce.element("a")]
    for z in zeros:
        assert z == zeros[0] and hash(z) == hash(zeros[0])
    assert len(set(zeros)) == 1
    assert len({ce.zero(1), ce.element("a")}) == 2


def test_cochain_map_from_function():
    ce = heisenberg_ce_algebra()
    doubling = CochainMap(ce, ce, _scaling(ce, 2))
    assert _is_cochain_map(doubling)
    assert doubling.apply(ce.element("c")) == ce.element("c").scale(2)


def test_shifted_map_from_gamma_is_the_retract_homotopy():
    bundle = heisenberg_ce_retract()
    ce = bundle.ce
    _, forms, read = _ce_words()
    # gamma of each word's form, read back one degree down
    h = CochainMap(ce, ce, {label: read(gamma(forms[label]), "gamma", [label]) for label in _labels(ce)}, shift=-1)
    assert any(not h.apply(v).is_zero() for v in ce.all_basis_vectors())
    for v in ce.all_basis_vectors():
        image = h.apply(v)
        assert image.degree == v.degree - 1
        assert image == bundle.retract.h(v)


def test_word_forms_and_reader():
    _, forms, read = _ce_words()
    # each word is the wedge of its letters' generators, in order: a c = -(c a)
    assert forms["ac"].terms[(0, 1)].constant_value() == -1
    assert read(forms["ac"], "i", ["ac"]) == {"ac": 1}
    _, rumin_forms, rumin_read = _rumin_words()
    assert rumin_read(rumin_forms["ca"], "i", ["ca"]) == {"ca": 1}
    model = ContactModel(1)
    a_b = wedge(model.generator(1), model.generator(2))
    with pytest.raises(DomainError) as caught:  # a^b is not in the Rumin span
        rumin_read(a_b + rumin_forms["ca"], "mu", ("a", "b"))
    # the error names the words and only the part outside the span
    assert isinstance(caught.value, SpanError)
    assert (caught.value.op, caught.value.words, caught.value.outside) == ("mu", ("a", "b"), a_b)
    assert str(caught.value) == "mu(a, b) is not in the span of the basis words: dx1^dy1 lies outside it"
    # the words span the constant-coefficient forms: x1 dx1 is outside too
    x1_a = forms["a"].scale_poly(Poly.variable(model.nvars, 0))
    with pytest.raises(SpanError, match=r"gamma\(ab\) is not in the span .*: \(x1\) dx1 lies outside it"):
        read(x1_a + forms["b"], "gamma", ["ab"])


def test_cochain_map_rows_checked():
    ce = heisenberg_ce_algebra()
    good = _scaling(ce, 1)
    assert CochainMap(ce, ce, good).apply(ce.element("a")) == ce.element("a")
    for rows, shift, message in [
        ({**good, "x": {"a": 1}}, 0, "map from unknown label 'x'"),
        ({**good, "a": {"x": 1}}, 0, "map sends a to 'x', not a label of degree 1"),
        ({**good, "a": {"ab": 1}}, 0, "map sends a to 'ab', not a label of degree 1"),
        ({"1": {"1": 1}}, -1, "map sends 1 to '1', not a label of degree -1"),  # shift -1 lands in degree -1
    ]:
        with pytest.raises(DimensionError) as caught:
            CochainMap(ce, ce, rows, shift=shift)
        assert str(caught.value) == message


def test_the_bundle_maps_read_as_the_sampled_maps():
    # the dense blocks of the inclusion, pi and gamma in every degree, as the
    # maps sampled vector by vector on the basis made them
    bundle = heisenberg_ce_retract()
    pinned = {
        "i": {0: [[1]], 1: [[1, 0], [0, 1], [0, 0]], 2: [[0, 0], [-1, 0], [0, -1]], 3: [[1]]},
        "pi": {0: [[1]], 1: [[1, 0, 0], [0, 1, 0]], 2: [[0, -1, 0], [0, 0, -1]], 3: [[1]]},
        "gamma": {0: [], 1: [[0, 0, 0]], 2: [[0, 0, 0], [0, 0, 0], [1, 0, 0]], 3: [[0], [0], [0]]},
    }
    maps = {"i": bundle.inclusion, "pi": bundle.retract.pi.__self__, "gamma": bundle.retract.h.__self__}
    for name, fmap in maps.items():
        assert {deg: fmap.matrix(deg) for deg in fmap.src.degrees} == pinned[name], name
    assert {deg: CochainMap(bundle.rumin, bundle.ce, INCLUSION_ROWS).matrix(deg) for deg in range(4)} == pinned["i"]
    # matrix is a fresh copy, and zero outside the source's degrees
    bundle.inclusion.matrix(1)[0][0] = 7
    assert bundle.inclusion.matrix(1) == pinned["i"][1]
    assert bundle.inclusion.matrix(4) == [] and bundle.retract.h.__self__.matrix(4) == [[]]


# -- the coefficient rule ------------------------------------------------------------


def _stored(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def _assert_stored(v):
    assert all(_stored(c) for c in v.coeffs), v.coeffs


# d = 0; the product scales by 3/2, so Fraction arithmetic lands on integers
RATIONAL_ALGEBRA = """\
basis e 0
basis t 1
mu e e e 3/2
mu e t t 3/2
mu t e t 3/2
"""


def test_every_result_follows_the_coefficient_rule():
    bundle = heisenberg_ce_retract()
    rational = FiniteGradedAlgebra.loads(RATIONAL_ALGEBRA)
    algebras = [bundle.ce, bundle.rumin, rational]
    # the retract's projection and homotopy are bound CochainMap.apply methods
    maps = [
        bundle.inclusion,
        bundle.retract.pi.__self__,
        bundle.retract.h.__self__,
        CochainMap(rational, rational, _scaling(rational, Fraction(2, 3))),
    ]
    scalars = [1, -1, 0, 2, Fraction(1, 2), Fraction(2, 3), Fraction(-3, 2), Fraction(4, 2)]
    for alg in algebras:
        assert all(_stored(c) for row in alg.d.values() for c in row.values())
        assert all(_stored(c) for row in alg.mu.values() for c in row.values())
        vectors = [v.scale(c) for v in alg.all_basis_vectors() for c in scalars]
        for v in vectors:
            _assert_stored(v)
            _assert_stored(alg.apply_d(v))
            for w in vectors:
                _assert_stored(alg.mu_vec(v, w))
                if w.degree == v.degree:
                    _assert_stored(v + w)
                    _assert_stored(v - w)
            for fmap in maps:
                if fmap.src is alg:
                    _assert_stored(fmap.apply(v))
    for fmap in maps:
        assert all(_stored(c) for deg in fmap.src.degrees for row in fmap.matrix(deg) for c in row)


def test_scale_by_one_and_zero_vector_is_the_vector():
    ce = heisenberg_ce_algebra()
    v = ce.element("ac").scale(2) - ce.element("bc")
    assert v.scale(1) is v and v.scale(Fraction(1)) is v
    z = ce.zero(1)
    assert z.scale(5) is z and z.scale(Fraction(7, 3)) is z
    assert v.scale(-1).coeffs == tuple(-c for c in v.coeffs)
    assert v.scale(0).is_zero()


def test_fraction_and_int_vectors_are_equal_and_hash_alike():
    ce = heisenberg_ce_algebra()
    from_fractions = FiniteVector(ce, 1, [Fraction(2), Fraction(-1, 1), Fraction(0)])
    from_ints = FiniteVector(ce, 1, [2, -1, 0])
    assert from_fractions == from_ints and hash(from_fractions) == hash(from_ints)
    assert len({from_fractions, from_ints}) == 1
    halves = FiniteVector(ce, 2, [Fraction(1, 2), 0, Fraction(-3, 2)])
    again = FiniteVector(ce, 2, ["1/2", 0, Fraction(-6, 4)])
    assert halves == again and hash(halves) == hash(again)
    # reached through Fraction arithmetic, the vector is stored as ints
    doubled, ints = halves.scale(2), FiniteVector(ce, 2, [1, 0, -3])
    assert doubled == ints and hash(doubled) == hash(ints) and doubled.coeffs == ints.coeffs


def test_vector_guards():
    ce, rumin_model = heisenberg_ce_algebra(), heisenberg_rumin_model()
    with pytest.raises(DimensionError, match="vector of length 2 in degree 1"):
        FiniteVector(ce, 1, [1, 2])
    a = FiniteVector(ce, 1, [1, 0, 0])
    with pytest.raises(DimensionError, match="different algebras"):
        a + FiniteVector(rumin_model, 1, [1] * rumin_model.dim(1))
    with pytest.raises(DimensionError, match="adding degrees 1 and 2"):
        a + FiniteVector(ce, 2, [1, 0, 0])


# -- zeros recorded when built ----------------------------------------------------

@cache
def _bundle():
    return heisenberg_ce_retract()


def _maps():
    # the retract's projection and homotopy are bound CochainMap.apply methods
    bundle = _bundle()
    return [bundle.inclusion, bundle.retract.pi.__self__, bundle.retract.h.__self__]


@st.composite
def coordinate_vectors(draw):
    # a vector of the CE or the Rumin algebra, mostly zero coordinates
    alg = getattr(_bundle(), draw(st.sampled_from(["ce", "rumin"])))
    degree = draw(st.sampled_from(alg.degrees))
    coords = draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)]),
                           min_size=alg.dim(degree), max_size=alg.dim(degree)))
    return FiniteVector(alg, degree, coords)


def _assert_zero_flag(v):
    assert v.is_zero() == (not any(v.coeffs)), (v, v.coeffs)


@settings(max_examples=150, deadline=None)
@given(coordinate_vectors(), coordinate_vectors(), st.sampled_from([0, 1, -1, 3, Fraction(-2, 3)]))
def test_a_vector_records_whether_it_is_zero(u, v, c):
    # every way of building a vector records the same answer as its coordinates
    alg = u.algebra
    built = [u, u.scale(c), u - u, u + u.scale(-1), alg.apply_d(u), alg.zero(u.degree)]
    built += [alg.element(label) for label in alg.labels(u.degree)]
    built += [fmap.apply(u) for fmap in _maps() if fmap.src is alg]
    if v.algebra is alg:
        built.append(alg.mu_vec(u, v))
        built.append(alg.mu_vec(u.scale(c), v))
        if v.degree == u.degree:
            built += [u + v, u - v, v - u.scale(c)]
    for w in built:
        _assert_zero_flag(w)


def test_one_zero_per_degree():
    ce = heisenberg_ce_algebra()
    for degree in (-1, 0, 1, 2, 3, 4, 7):
        z = ce.zero(degree)
        assert z is ce.zero(degree) and z.is_zero() and z.degree == degree
        assert len(z.coeffs) == ce.dim(degree)
    # zeros of different degrees are equal and hash alike, as computed zeros do
    a = ce.element("a")
    zeros = [ce.zero(0), ce.zero(2), ce.zero(4), a - a, a.scale(0)]
    assert all(z == zeros[0] and hash(z) == hash(zeros[0]) for z in zeros)
    assert a.zero_of_degree(2) is ce.zero(2)


def test_zero_inputs_return_the_kept_zero():
    bundle = _bundle()
    ce, rm = bundle.ce, bundle.rumin
    a = ce.element("a")
    computed = a - a  # a computed zero is the kept zero too
    assert computed is ce.zero(1) and computed.is_zero()
    assert ce.mu_vec(computed, ce.element("b")) is ce.zero(2)
    assert ce.mu_vec(ce.element("b"), ce.zero(2)) is ce.zero(3)
    assert ce.apply_d(computed) is ce.zero(2)
    assert bundle.retract.h(computed) is ce.zero(0)
    assert bundle.retract.pi(computed) is rm.zero(1)
    assert bundle.inclusion.apply(rm.zero(2)) is ce.zero(2)


# -- interned vectors -------------------------------------------------------------------


def _combination(coords, images, zero):
    # sum of coords[i] * images[i] by scale and +, starting from `zero`
    total = zero
    for c, w in zip(coords, images):
        total = total + w.scale(c)
    return total


@settings(max_examples=150, deadline=None)
@given(coordinate_vectors(), coordinate_vectors(), st.sampled_from([0, 1, -1, 3, Fraction(-2, 3)]))
def test_equal_values_are_one_vector(u, v, c):
    # every way of making a vector returns the one object its algebra keeps
    # for the value; a zero value is the algebra's zero of its degree
    alg, degree = u.algebra, u.degree
    assert FiniteVector(alg, degree, [Fraction(x) for x in u.coeffs]) is u
    assert FiniteVector(alg, degree, [str(Fraction(x)) for x in u.coeffs]) is u
    assert FiniteVector(alg, degree, [int(x) if x == int(x) else x for x in u.coeffs]) is u
    basis = [alg.element(label) for label in alg.labels(degree)]
    assert _combination(u.coeffs, basis, alg.zero(degree)) is u
    assert u.scale(c) is FiniteVector(alg, degree, [c * x for x in u.coeffs])
    assert u - u is alg.zero(degree) and u + u is u.scale(2)
    built = [u, u.scale(c), u - u, alg.zero(degree), alg.apply_d(u), *basis]
    assert alg.apply_d(u) is _combination(u.coeffs, map(alg.apply_d, basis), alg.zero(degree + 1))
    for fmap in _maps():
        if fmap.src is alg:
            image = fmap.apply(u)
            assert image is _combination(u.coeffs, map(fmap.apply, basis), fmap.dst.zero(degree + fmap.shift))
            built.append(image)
    if v.algebra is alg:
        product = alg.mu_vec(u, v)
        products = [alg.mu_vec(e, v) for e in basis]
        assert product is _combination(u.coeffs, products, alg.zero(degree + v.degree))
        built += [product, alg.mu_vec(u.scale(c), v), v]
        if v.degree == degree:
            assert (u + v) - v is u and u + v is v + u
            built += [u + v, u - v]
    for w in built:
        assert w is FiniteVector(w.algebra, w.degree, w.coeffs)
        if not any(w.coeffs):
            assert w is w.algebra.zero(w.degree)
    # == is value equality, and agrees with hash
    for x in built:
        for y in built:
            same_value = x.algebra is y.algebra and (
                (x.is_zero() and y.is_zero()) or (x.degree, x.coeffs) == (y.degree, y.coeffs)
            )
            assert (x == y) == same_value
            if same_value:
                assert hash(x) == hash(y) and (x is y or x.is_zero())


def test_a_repeated_memo_hit_runs_no_python_code():
    # the memo key is a tuple of interned vectors: hashing it calls object's
    # hash of each element in C, and comparing it with the stored key finds
    # the same objects, so a hit runs no Python-level __hash__ or __eq__
    bundle = _bundle()
    mset, _ = markl_transfer(bundle.retract, max_arity=4)
    labels = ["a", "b", "ca", "a"]
    first = tuple(map(bundle.rumin.element, labels))
    m4 = mset.op(4)  # mset(4, block) is mset.op(4)(block)
    value = mset(4, first)
    block = tuple(map(bundle.rumin.element, labels))  # a new tuple of equal vectors

    def profiled(fn, *args):
        calls = []
        sys.setprofile(lambda frame, event, arg: calls.append(frame.f_code.co_name) if event == "call" else None)
        try:
            result = fn(*args)
        finally:
            sys.setprofile(None)
        assert result is value
        return calls

    assert profiled(m4, block) == []
    # the family's own Python frames only, no call into the vectors
    assert profiled(mset, 4, block) == ["__call__", "op"]


def test_a_copy_of_a_vector_is_the_vector():
    ce = heisenberg_ce_algebra()
    for v in (ce.element("ac").scale(2) - ce.element("bc"), ce.zero(2), FiniteVector(ce, 1, ["1/2", 0, 3])):
        assert copy.copy(v) is v and copy.deepcopy(v) is v
        assert copy.deepcopy([v, (v, 1)]) == [v, (v, 1)]


def test_an_algebra_and_its_vectors_pickle():
    # the unpickled vectors are interned in the unpickled algebra
    ce = heisenberg_ce_algebra()
    v = ce.element("ac").scale(2) - ce.element("bc")
    again, v2, z2 = pickle.loads(pickle.dumps((ce, v, ce.zero(2))))
    assert again is not ce and again.dumps() == ce.dumps()
    assert v2 is again.element("ac").scale(2) - again.element("bc") and v2.coeffs == v.coeffs
    assert z2 is again.zero(2)
    assert pickle.loads(pickle.dumps(v)).coeffs == v.coeffs
