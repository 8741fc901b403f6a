import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruminalg import forms, linalg, parser, rumin, suites
from ruminalg.cinfty import permutation_sign
from ruminalg.errors import DimensionError, DomainError
from ruminalg.forms import (
    ContactModel,
    Form,
    exterior_d,
    is_vertical,
    lefschetz,
    lefschetz_power_columns,
    lefschetz_power_matrix,
    merge_indices,
    random_form,
    wedge,
)
from ruminalg.parser import eval_text
from ruminalg.poly import Poly
from ruminalg.prng import stream

M1 = ContactModel(1)
M2 = ContactModel(2)


def _one(model):
    return Poly.one(model.nvars)


# -- independent oracle for wedge-monomial combinatorics ------------------------


def oracle_merge(idx_a, idx_b):
    """Sign by explicit bubble sort; None when an index repeats."""
    combined = list(idx_a) + list(idx_b)
    if len(set(combined)) != len(combined):
        return None
    sign = 1
    arr = combined[:]
    for i in range(len(arr)):
        for j in range(len(arr) - 1 - i):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
                sign = -sign
    return sign, tuple(arr)


def oracle_dtheta_power(n, k):
    """(dtheta)^k = k! * sum over k-subsets S of the planes of
    wedge of e^i ^ e^{n+i}, i in S; returns {sorted index tuple: int}."""
    out = {}
    for subset in combinations(range(1, n + 1), k):
        seq = []
        for i in subset:
            seq.extend([i, n + i])
        sign, idx = oracle_merge(tuple(seq), ())
        out[idx] = out.get(idx, 0) + sign * math.factorial(k)
    return out


def oracle_matrix(n, k):
    model = ContactModel(n)
    src = model.vertical_monomials(n - k + 1)
    tgt = model.vertical_monomials(n + k + 1)
    pos = {idx: i for i, idx in enumerate(tgt)}
    dtk = oracle_dtheta_power(n, k)
    matrix = [[0] * len(src) for _ in tgt]
    for j, idx in enumerate(src):
        for jdx, coeff in dtk.items():
            merged = oracle_merge(idx, jdx)
            if merged:
                sign, out_idx = merged
                matrix[pos[out_idx]][j] += sign * coeff
    return matrix


def oracle_rank(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
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


# -- wedge -----------------------------------------------------------------------


def test_wedge_repeated_generator_vanishes():
    dx = M1.generator(1)
    assert wedge(dx, dx).is_zero()


def test_wedge_basis_monomial():
    w = wedge(M1.theta(), M1.generator(1))
    assert w.terms == {(0, 1): _one(M1)}


def test_wedge_bilinearity():
    y1 = Poly.variable(3, 1)
    x1 = Poly.variable(3, 0)
    a = M1.generator(1).scale_poly(y1)
    b = M1.generator(2).scale_poly(x1)
    assert wedge(a, b).terms == {(1, 2): x1 * y1}


def test_wedge_model_mismatch():
    with pytest.raises(DimensionError):
        wedge(M1.theta(), M2.theta())


def test_wedge_graded_commutative_and_associative():
    rng = stream(5, 0)
    for t in range(20):
        a_deg, b_deg, c_deg = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
        a = random_form(M2, rng, a_deg, 2)
        b = random_form(M2, rng, b_deg, 2)
        c = random_form(M2, rng, c_deg, 2)
        sign = -1 if (a_deg & 1) and (b_deg & 1) else 1
        assert wedge(a, b) == wedge(b, a).scale(sign)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_merge_indices_sign():
    assert merge_indices((1,), (0,)) == (-1, (0, 1))
    assert merge_indices((0,), (1,)) == (1, (0, 1))
    assert merge_indices((0, 1), (1,)) == (0, ())
    assert merge_indices((2, 3), (0, 1)) == (1, (0, 1, 2, 3))


def ref_wedge(ta, tb):
    """Wedge of {index tuple: {exponent tuple: Fraction}} maps; the sign of
    each product of coframe monomials is the parity of its sorting
    permutation, by `cinfty.permutation_sign`."""
    out = {}
    for ia, ca in ta.items():
        for ib, cb in tb.items():
            seq = ia + ib
            if len(set(seq)) < len(seq):
                continue
            order = tuple(sorted(range(len(seq)), key=seq.__getitem__))
            sign = permutation_sign(order)
            acc = out.setdefault(tuple(seq[k] for k in order), {})
            for ea, xa in ca.items():
                for eb, xb in cb.items():
                    ex = tuple(x + y for x, y in zip(ea, eb))
                    acc[ex] = acc.get(ex, Fraction(0)) + sign * xa * xb
    cleaned = {idx: {ex: c for ex, c in t.items() if c} for idx, t in out.items()}
    return {idx: t for idx, t in cleaned.items() if t}


coefficient_dicts = st.dictionaries(
    st.tuples(*(st.integers(0, 2) for _ in range(M2.nvars))),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    min_size=1,
    max_size=3,
).map(lambda d: Poly(M2.nvars, d))


@st.composite
def coframe_forms(draw):
    degree = draw(st.integers(0, M2.dim))
    monomials = draw(st.lists(st.sampled_from(M2.coframe_monomials(degree)), min_size=1, max_size=3, unique=True))
    return Form(M2, degree, {idx: draw(coefficient_dicts) for idx in monomials})


@settings(max_examples=80, deadline=None)
@given(coframe_forms(), coframe_forms())
def test_wedge_matches_permutation_sign_reference(a, b):
    w = wedge(a, b)
    ta = {idx: p.terms for idx, p in a.terms.items()}
    tb = {idx: p.terms for idx, p in b.terms.items()}
    assert {idx: p.terms for idx, p in w.terms.items()} == ref_wedge(ta, tb)
    assert w.degree == a.degree + b.degree


def assert_exact_form(w):
    for p in w.terms.values():
        for c in p.terms.values():
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


@settings(max_examples=60, deadline=None)
@given(coframe_forms(), coframe_forms())
def test_form_coefficients_are_int_or_proper_fraction(a, b):
    c = b if b.degree == a.degree else a.scale(Fraction(-1, 2))
    for w in (a, a + c, a - c, -a, a.scale(Fraction(3, 2)), wedge(a, b), exterior_d(a), rumin.pi(a).form):
        assert_exact_form(w)
    for lam in (Fraction(1), Fraction(3, 7)):
        assert_exact_form(rumin._gamma(a, lam))


# -- exterior derivative ----------------------------------------------------------


def ref_exterior_d(w, tail=True, lift=True):
    """The wedge-based formula: df ^ e^I on each term f e^I, plus
    dtheta ^ e^{I minus 0} when e^0 divides e^I, with df built from
    `Poly.deriv`.  `tail=False` drops the dtheta term and `lift=False` drops
    y_i d/dz f from X_i f: the corruptions of the negative controls."""
    model = w.model
    n = model.n
    out = Form.zero(model, w.degree + 1)
    for idx, f in w.terms.items():
        tf = f.deriv(2 * n)
        df = {(0,): tf}
        for i in range(1, n + 1):
            xf = f.deriv(i - 1)
            if lift:
                xf = xf + tf * Poly.variable(model.nvars, n + i - 1)
            df[(i,)] = xf
            df[(n + i,)] = f.deriv(n + i - 1)
        out = out + wedge(Form(model, 1, df), Form.monomial(model, idx, _one(model)))
        if tail and idx and idx[0] == 0:
            out = out + wedge(model.dtheta(), Form(model, len(idx) - 1, {idx[1:]: f}))
    return out


MODELS = (M1, M2, ContactModel(3))


@st.composite
def forms_up_to_n3(draw):
    """A form at n = 1..3 of any degree, with 1..3 coframe monomials and
    coefficients of total degree <= 3."""
    model = draw(st.sampled_from(MODELS))
    nvars = model.nvars
    exponents = st.lists(st.integers(0, nvars - 1), max_size=3).map(
        lambda vs: tuple(vs.count(k) for k in range(nvars))
    )
    coefficients = st.dictionaries(
        exponents, st.fractions(min_value=-9, max_value=9, max_denominator=6), min_size=1, max_size=4
    ).map(lambda d: Poly(nvars, d))
    degree = draw(st.integers(0, model.dim))
    monomials = draw(st.lists(st.sampled_from(model.coframe_monomials(degree)), min_size=1, max_size=3, unique=True))
    return Form(model, degree, {idx: draw(coefficients) for idx in monomials})


def as_fractions(w, model):
    """w over `model` with every coefficient stored as a Fraction, past the
    int normalization of `poly`."""
    terms = {
        idx: Poly(model.nvars, {ex: Fraction(c) for ex, c in p.terms.items()})
        for idx, p in w.terms.items()
    }
    return Form(model, w.degree, terms, _canonical=True)


@settings(max_examples=100, deadline=None)
@given(forms_up_to_n3(), st.integers(0, 9))
def test_equal_forms_hash_alike(w, other_degree):
    twin = as_fractions(w, ContactModel(w.model.n))  # another model instance
    assert twin == w and hash(twin) == hash(w)
    assert {w: 1}.get(twin) == 1
    zero = Form.zero(ContactModel(w.model.n), other_degree)
    assert zero == w.scale(0) and hash(zero) == hash(w.scale(0))
    assert zero != Form.zero(ContactModel(w.model.n + 1), other_degree)


@settings(max_examples=150, deadline=None)
@given(forms_up_to_n3())
def test_d_matches_wedge_formula_reference(w):
    dw = exterior_d(w)
    assert dw.degree == w.degree + 1
    assert {idx: p.terms for idx, p in dw.terms.items()} == {
        idx: p.terms for idx, p in ref_exterior_d(w).terms.items()
    }
    assert all(p.terms for p in dw.terms.values())


def test_d_cancels_inside_x_derivative():
    # X_1(z - x1*y1) = -y1 + y1 * 1 = 0, so e^1 gets no (empty) coefficient.
    df = exterior_d(eval_text("(z - x1*y1)", M1))
    assert df == eval_text("theta - (x1) dy1", M1)
    assert (1,) not in df.terms


def test_odd_square_stores_no_empty_coefficient():
    a = eval_text("(x1) dx1 + (y1) dy1", M1)
    assert wedge(a, a).terms == {}


def test_d_theta_is_dtheta():
    assert exterior_d(M1.theta()) == M1.dtheta()
    assert exterior_d(M2.theta()) == M2.dtheta()


def test_d_of_z_rewrites_in_coframe():
    for model in (M1, M2):
        z = Form.constant(model, Poly.variable(model.nvars, 2 * model.n))
        expected_terms = {(0,): _one(model)}
        for i in range(1, model.n + 1):
            expected_terms[(i,)] = Poly.variable(model.nvars, model.n + i - 1)
        assert exterior_d(z) == Form(model, 1, expected_terms)


def test_d_squared_zero_random():
    rng = stream(6, 0)
    for model in (M1, M2):
        for deg in range(0, model.dim + 1):
            w = random_form(model, rng, deg, 2)
            assert exterior_d(exterior_d(w)).is_zero()


def test_d_squared_zero_at_large_n():
    # d((x1*z) dx1) has one block per X_i; d of it stays linear in n because a
    # block only gets moves for the coordinates its coefficient depends on.
    model = ContactModel(400)
    dw = exterior_d(eval_text("(x1*z) dx1", model))
    assert len(dw.terms) == model.n
    assert exterior_d(dw).is_zero()


def test_graded_leibniz_random():
    rng = stream(7, 0)
    for t in range(15):
        a_deg = rng.randint(0, 3)
        b_deg = rng.randint(0, 3)
        a = random_form(M2, rng, a_deg, 2)
        b = random_form(M2, rng, b_deg, 2)
        lhs = exterior_d(wedge(a, b))
        rhs = wedge(exterior_d(a), b) + wedge(a, exterior_d(b)).scale(-1 if a_deg & 1 else 1)
        assert lhs == rhs


def test_dsa_identity_on_verticals():
    rng = stream(8, 0)
    for model in (M1, M2):
        for deg in range(1, model.dim + 1):
            w = random_form(model, rng, deg, 2, vertical=True)
            assert wedge(model.theta(), exterior_d(w)) == wedge(w, model.dtheta())


# -- negative controls: a corrupted d must fail a suite --------------------------


@pytest.mark.parametrize(
    "corruption", [dict(tail=False), dict(lift=False)], ids=["no-dtheta-tail", "no-y-dz-in-X"]
)
def test_corrupted_d_fails_a_suite_with_witness(monkeypatch, corruption):
    # pi differentiates through rumin.exterior_d(..., keep=False), so the
    # patch reaches every d it evaluates; the kernel behind the real
    # exterior_d must not run at all
    def corrupted(w, keep=True):
        return ref_exterior_d(w, **corruption)

    def unreachable(w):
        raise AssertionError("a d escaped the corrupted exterior_d")

    for module in (forms, rumin, suites, parser):
        monkeypatch.setattr(module, "exterior_d", corrupted)
    monkeypatch.setattr(forms, "_exterior_d", unreachable)
    failed = [
        report
        for name in ("dsq", "dsa-lemma", "gamma-props", "retract")
        if not (report := suites.run_suite(name, n=1, trials=10)).passed
    ]
    assert failed
    for report in failed:
        witness = report.failures[0]
        assert witness.inputs and witness.residual not in ("", "0")
        for text in witness.inputs + [witness.residual]:
            assert eval_text(text, M1).model == M1


# -- verticality and the Lefschetz operator ---------------------------------------


@pytest.mark.parametrize(
    "n, degree, vertical",
    [(8, 8, False), (9, 9, False), (9, 10, True), (10, 10, False), (10, 11, True), (1000, 2, False)],
)
def test_basis_enumeration_is_bounded(n, degree, vertical):
    # C(17, 8) at n = 8 is what verify dsq --n 8 lists; C(21, 10) is past the limit
    m, k = 2 * n + 1 - vertical, degree - vertical
    model = ContactModel(n)
    listing = model.vertical_monomials if vertical else model.coframe_monomials
    if math.comb(m, k) <= forms.MAX_MONOMIALS:
        assert len(listing(degree)) == math.comb(m, k)
    else:
        with pytest.raises(DomainError, match=rf"C\({m}, {k}\)"):
            listing(degree)


def test_is_vertical():
    assert is_vertical(wedge(M1.theta(), M1.generator(1)))
    assert not is_vertical(wedge(M1.generator(1), M1.generator(2)))
    assert is_vertical(Form.zero(M1, 2))


def test_lefschetz_examples():
    assert lefschetz(M1.theta(), 1) == wedge(M1.theta(), wedge(M1.generator(1), M1.generator(2)))
    assert lefschetz(wedge(M1.theta(), M1.generator(1)), 1).is_zero()
    for n in (1, 2, 3):
        model = ContactModel(n)
        top = lefschetz(model.theta(), n)
        assert not top.is_zero()


def test_lefschetz_rejects_non_vertical():
    with pytest.raises(DomainError):
        lefschetz(M1.generator(1), 1)


def test_contact_condition():
    for n in (1, 2, 3):
        model = ContactModel(n)
        vol = model.volume()
        assert list(vol.terms) == [tuple(range(model.dim))]
        coeff = vol.terms[tuple(range(model.dim))]
        assert coeff.is_constant() and coeff.constant_value() != 0


# -- Lefschetz power matrices -------------------------------------------------------


def test_matrix_n1_k1():
    assert lefschetz_power_matrix(M1, 1) == [[Fraction(1)]]


def test_matrix_n2_k1_against_oracle():
    ours = lefschetz_power_matrix(M2, 1)
    theirs = oracle_matrix(2, 1)
    assert len(ours) == 4 and len(ours[0]) == 4
    assert [[int(x) for x in row] for row in ours] == theirs
    assert oracle_rank(theirs) == 4


def test_matrix_n2_k2_against_oracle():
    ours = lefschetz_power_matrix(M2, 2)
    theirs = oracle_matrix(2, 2)
    assert [[int(x) for x in row] for row in ours] == theirs
    assert theirs == [[-2]]  # magnitude 2; sign fixed by sorted coframe order
    assert abs(theirs[0][0]) == 2


def test_matrices_invertible_up_to_n3():
    for n in (1, 2, 3):
        model = ContactModel(n)
        for k in range(1, n + 1):
            matrix = lefschetz_power_matrix(model, k)
            assert len(matrix) == len(matrix[0])
            assert oracle_rank(matrix) == len(matrix)
            assert all(type(x) is int for row in matrix for x in row)


def test_power_matrices_hold_ints_and_full_rank_up_to_n4():
    # ints, each 0 or +-k!, so linalg.rank starts in integer arithmetic; the
    # ranks agree with the Fraction oracle and are full, as before, and the
    # dense matrix is a view of the sparse columns
    for n in (1, 2, 3, 4):
        model = ContactModel(n)
        for k in range(1, n + 1):
            matrix = lefschetz_power_matrix(model, k)
            columns = lefschetz_power_columns(model, k)
            assert {type(x) for row in matrix for x in row} == {int}
            assert {abs(x) for row in matrix for x in row} <= {0, math.factorial(k)}
            assert columns == [{r: x for r, x in enumerate(column) if x} for column in zip(*matrix)]
            assert linalg.rank(columns) == oracle_rank(matrix) == len(matrix)


def test_matrix_power_out_of_range():
    with pytest.raises(DomainError):
        lefschetz_power_matrix(M2, 3)
    with pytest.raises(DomainError):
        lefschetz_power_matrix(M2, 0)


# -- random generation ---------------------------------------------------------------


def test_random_form_deterministic():
    a = random_form(M2, stream(11, 3), 2, 2)
    b = random_form(M2, stream(11, 3), 2, 2)
    assert a == b


def test_random_vertical_form_is_vertical():
    rng = stream(12, 0)
    for deg in range(1, M2.dim + 1):
        assert is_vertical(random_form(M2, rng, deg, 2, vertical=True))


def test_subtracting_equal_forms_gives_the_zero_of_their_degree():
    rng = stream(21, 0)
    for model in (M1, M2):
        for degree in range(1, model.dim + 1):
            # every coframe monomial kept: the forms are nonzero
            a = random_form(model, rng, degree, 2, density=(1, 1))
            twin = Form(model, degree, dict(a.terms), _canonical=True)  # equal, not the same
            assert twin == a and twin is not a
            diff = a - twin
            assert diff.is_zero() and diff.degree == degree and diff.model == model
            other = random_form(model, rng, degree, 2, density=(1, 1))
            assert a - other == a + (-other) and (a - other).terms == (a + other.scale(-1)).terms
            with pytest.raises(DimensionError):
                a - random_form(model, rng, degree - 1, 2, density=(1, 1))


def test_form_degree_annotation_rules():
    with pytest.raises(DimensionError):
        Form(M1, 5, {(0, 1): _one(M1)})
    assert Form.zero(M1, 7).is_zero()  # zero may carry any degree
    assert Form.zero(M1, 2) == Form.zero(M1, 5)


@pytest.mark.parametrize(
    "degree, terms",
    [(1, {(5,): 1}), (2, {(1, 0): 1}), (1, {(0,): Poly.one(5)})],
    ids=["index-out-of-range", "index-unsorted", "wrong-coordinate-count"],
)
def test_form_rejects_bad_terms(degree, terms):
    with pytest.raises(DimensionError):
        Form(M1, degree, terms)


def test_contact_model_needs_positive_n():
    with pytest.raises(DimensionError, match="n must be positive, got 0"):
        ContactModel(0)
