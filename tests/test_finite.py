from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruminalg.cinfty import RetractData
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
from ruminalg.linalg import identity
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


def test_ring_isomorphism_of_inclusion():
    bundle = heisenberg_ce_retract()
    result = check_ring_isomorphism(bundle.inclusion)
    assert result.ok and not result.witnesses
    assert bool(result)


def test_ring_isomorphism_identity_map():
    ce = heisenberg_ce_algebra()
    ident = CochainMap.from_function(ce, ce, lambda v: v)
    assert check_ring_isomorphism(ident).ok


def test_ring_isomorphism_negative_control():
    bundle = heisenberg_ce_retract()
    blocks = {deg: [row[:] for row in m] for deg, m in bundle.inclusion.blocks.items()}
    blocks[1] = [[Fraction(0)] * len(row) for row in blocks[1]]  # zero map in degree 1
    corrupted = CochainMap(bundle.rumin, bundle.ce, blocks)
    result = check_ring_isomorphism(corrupted)
    assert not result.ok
    assert result.witnesses


def _is_cochain_map(f: CochainMap) -> bool:
    """f d = d f on every basis vector of the source."""
    return all(
        f.apply(f.src.apply_d(v)) == f.dst.apply_d(f.apply(v))
        for deg in f.src.degrees
        for v in f.src.basis_vectors(deg)
    )


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


def test_associativity_check_skips_zero_products(monkeypatch):
    # 120 generators with no differential and no products: every u.v is
    # zero, so no triple needs a product and the build makes the pair
    # checks' 3 * 120**2 products only (twice 120**3 more when each triple
    # was multiplied out).
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
    # product or a differential to compare, so the build makes no product at
    # all (3 * 300**2 when the table and each pair's Leibniz sides were
    # multiplied out).
    calls = 0
    mu_vec = FiniteGradedAlgebra.mu_vec

    def counted(self, u, v):
        nonlocal calls
        calls += 1
        return mu_vec(self, u, v)

    monkeypatch.setattr(FiniteGradedAlgebra, "mu_vec", counted)
    algebra = FiniteGradedAlgebra.loads("".join(f"basis u{i} 1\n" for i in range(300)))
    assert algebra.dim(1) == 300 and calls == 0


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
    doubling = CochainMap.from_function(ce, ce, lambda v: v.scale(2))
    assert _is_cochain_map(doubling)
    assert doubling.apply(ce.element("c")) == ce.element("c").scale(2)


def test_shifted_map_from_gamma_is_the_retract_homotopy():
    bundle = heisenberg_ce_retract()
    ce = bundle.ce
    _, forms, read = _ce_words()

    def via_gamma(v):
        # v is a basis vector: gamma of its word's form, read back one degree down
        (label,) = [lab for c, lab in zip(v.coeffs, ce.labels(v.degree)) if c]
        row = read(gamma(forms[label]), "gamma", [label])
        return FiniteVector(ce, v.degree - 1, [row.get(lab, 0) for lab in ce.labels(v.degree - 1)])

    h = CochainMap.from_function(ce, ce, via_gamma, shift=-1)
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


def test_cochain_map_block_shape_checked():
    ce = heisenberg_ce_algebra()
    good = {deg: identity(ce.dim(deg)) for deg in ce.degrees}
    assert CochainMap(ce, ce, good).apply(ce.element("a")) == ce.element("a")
    with pytest.raises(DimensionError):  # a row too few
        CochainMap(ce, ce, {**good, 1: good[1][:-1]})
    with pytest.raises(DimensionError):  # a column too few
        CochainMap(ce, ce, {**good, 1: [row[:-1] for row in good[1]]})
    with pytest.raises(DimensionError):  # degree-0 blocks land in degree -1 under shift -1
        CochainMap(ce, ce, {0: good[0]}, shift=-1)


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
        CochainMap.from_function(rational, rational, lambda v: v.scale(Fraction(2, 3))),
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
        assert all(_stored(c) for m in fmap.blocks.values() for row in m for c in row)


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
    computed = a - a  # a zero the algebra did not keep
    assert computed is not ce.zero(1) and computed.is_zero()
    assert ce.mu_vec(computed, ce.element("b")) is ce.zero(2)
    assert ce.mu_vec(ce.element("b"), ce.zero(2)) is ce.zero(3)
    assert ce.apply_d(computed) is ce.zero(2)
    assert bundle.retract.h(computed) is ce.zero(0)
    assert bundle.retract.pi(computed) is rm.zero(1)
    assert bundle.inclusion.apply(rm.zero(2)) is ce.zero(2)
