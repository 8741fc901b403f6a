import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruminalg.errors import DimensionError, DomainError
from ruminalg.poly import (
    MAX_EXPONENT, MAX_POWER_BITS, MAX_POWER_WORK, Poly, add_into, mul_into, over_lcm, pack, unpack, var_name,
    variable_key,
)

X1, Y1, Z = (Poly.variable(3, i) for i in range(3))


def test_product_of_conjugates():
    assert (X1 + Y1) * (X1 - Y1) == X1 * X1 - Y1 * Y1


def test_zero_absorbs():
    p = X1 * Y1 + Poly.constant(3, Fraction(5, 7))
    assert (p * Poly.zero(3)).is_zero()
    assert (p * Poly.zero(3)) == Poly.zero(3)


def test_rational_normalization():
    half = X1.scale(Fraction(1, 2))
    assert half + half == X1


def test_zero_is_empty_map():
    assert (X1 - X1).terms == {}


def test_derivative_examples():
    assert (Z * Z).deriv(2) == Z.scale(2)
    assert Y1.deriv(0).is_zero()
    assert (X1 * Y1 * Y1).deriv(1) == (X1 * Y1).scale(2)


def test_dimension_errors():
    with pytest.raises(DimensionError):
        X1 + Poly.variable(5, 0)
    with pytest.raises(DimensionError):
        X1.deriv(3)
    with pytest.raises(DimensionError):
        Poly.variable(3, 7)


def test_constant_queries():
    c = Poly.constant(3, Fraction(-3, 4))
    assert c.is_constant() and c.constant_value() == Fraction(-3, 4)
    assert not (X1 + c).is_constant()
    with pytest.raises(ValueError):
        (X1 + c).constant_value()
    assert Poly.zero(3).constant_value() == 0


def test_binomial_powers():
    one = Poly.one(3)
    for k in (0, 1, 2, 3, 7, 64, 127, 200):
        expected = Poly(3, {(j, 0, 0): math.comb(k, j) for j in range(k + 1)})
        assert (one + X1) ** k == expected
    assert Poly.zero(3) ** 0 == one
    with pytest.raises(ValueError):
        X1 ** -1


exponents = st.tuples(*(st.integers(0, 3) for _ in range(3)))
rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)
polys = st.dictionaries(exponents, rationals, max_size=4).map(lambda d: Poly(3, d))


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p + q == q + p
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60, deadline=None)
@given(polys)
def test_additive_inverse_is_canonical(p):
    assert (p + (-p)).terms == {}


@settings(max_examples=60, deadline=None)
@given(polys, polys, st.integers(0, 2))
def test_leibniz_rule(p, q, var):
    assert (p * q).deriv(var) == p.deriv(var) * q + p * q.deriv(var)


@settings(max_examples=40, deadline=None)
@given(polys, rationals)
def test_scaling_distributes(p, c):
    assert p.scale(c) + p.scale(-c) == Poly.zero(3)
    assert p.add_scaled(p, c) == p + p.scale(c)


@settings(max_examples=30, deadline=None)
@given(polys, st.integers(0, 6))
def test_power_is_repeated_product(p, k):
    expected = Poly.one(3)
    for _ in range(k):
        expected = expected * p
    assert p ** k == expected


ONE = Poly.one(3)


@pytest.mark.parametrize(
    "base",
    [
        pytest.param(ONE + X1 - X1 * X1, id="colliding"),  # x1**2 and x1**4 cancel at k = 3
        pytest.param(X1 - ONE, id="alternating"),
        pytest.param(X1.scale(Fraction(1, 2)) + ONE.scale(Fraction(1, 3)), id="rational"),
        pytest.param(X1 * Y1 - Y1.scale(3) + Z * Z.scale(Fraction(-2, 5)) + ONE, id="four-terms"),
    ],
)
def test_power_matches_repeated_product_on_collisions_and_cancellations(base):
    expected = ONE
    for k in range(13):
        assert base ** k == expected
        expected = expected * base


def test_power_drops_compositions_that_cancel():
    cube = (ONE + X1 - X1 * X1) ** 3
    assert cube.terms == {(0, 0, 0): 1, (1, 0, 0): 3, (3, 0, 0): -5, (5, 0, 0): 3, (6, 0, 0): -1}


def test_power_of_zero_and_of_a_constant():
    zero = X1 - X1
    assert Poly.zero(3) ** 0 == zero ** 0 == ONE
    assert Poly.zero(3) ** 5 == zero ** 7 == Poly.zero(3)
    assert ONE.scale(Fraction(-2, 3)) ** 5 == Poly.constant(3, Fraction(-32, 243))
    assert (X1.scale(Fraction(2, 3)) ** 3).terms == {(3, 0, 0): Fraction(8, 27)}


def test_power_of_450_terms_is_a_walk_not_a_recursion():
    # a 450-term base squared is within MAX_POWER_WORK (101,475 terms of 18
    # bits); the walk runs with the recursion limit just above this frame
    base = Poly(3, {(i, j, 0): (-1) ** (i * j) for i in range(30) for j in range(15)})
    assert len(base.num) == 450
    expected = base * base
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 20)
    try:
        square = base ** 2
    finally:
        sys.setrecursionlimit(limit)
    assert square == expected


# -- reference arithmetic on plain dicts of Fractions ---------------------------

term_dicts = st.dictionaries(exponents, rationals, max_size=5)


def ref_clean(d):
    return {ex: Fraction(c) for ex, c in d.items() if c}


def ref_add_scaled(a, b, c):
    out = dict(a)
    for ex, v in b.items():
        out[ex] = out.get(ex, Fraction(0)) + c * v
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            ex = tuple(x + y for x, y in zip(ea, eb))
            out[ex] = out.get(ex, Fraction(0)) + ca * cb
    return ref_clean(out)


def ref_deriv(a, var):
    out = {}
    for ex, c in a.items():
        if ex[var]:
            lowered = list(ex)
            lowered[var] -= 1
            out[tuple(lowered)] = out.get(tuple(lowered), Fraction(0)) + ex[var] * c
    return ref_clean(out)


@settings(max_examples=80, deadline=None)
@given(term_dicts, term_dicts, rationals, st.integers(0, 2))
def test_arithmetic_matches_dict_reference(a, b, c, var):
    p, q = Poly(3, a), Poly(3, b)
    a, b = ref_clean(a), ref_clean(b)
    assert p.terms == a
    assert (p + q).terms == ref_add_scaled(a, b, 1)
    assert (p - q).terms == ref_add_scaled(a, b, -1)
    assert (-p).terms == ref_add_scaled({}, a, -1)
    assert p.add_scaled(q, c).terms == ref_add_scaled(a, b, c)
    assert p.scale(c).terms == ref_add_scaled({}, a, c)
    assert (p * q).terms == ref_mul(a, b)
    assert p.deriv(var).terms == ref_deriv(a, var)


# -- the coefficient invariant: int when integral, else Fraction ----------------


def assert_exact(p):
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


@settings(max_examples=80, deadline=None)
@given(polys, polys, rationals, st.integers(0, 2), st.integers(0, 4))
def test_every_coefficient_is_int_or_proper_fraction(p, q, c, var, k):
    assert_exact(p)
    for r in (p + q, p - q, p * q, -p, p.scale(c), p.add_scaled(q, c), p.deriv(var), p**k):
        assert_exact(r)


def test_exact_normalizes_every_input():
    ex = (1, 0, 2)
    for value in (Fraction(4, 2), 2, 2.0, True, "2"):
        assert_exact(Poly(3, {ex: value}))
        assert_exact(Poly.constant(3, value))
    assert_exact(X1.scale(Fraction(6, 3)))
    assert_exact(X1.scale(0.5))
    assert_exact(X1.scale(Fraction(3, 2)).scale(Fraction(2, 3)))
    assert_exact(X1.scale(Fraction(1, 2)) + X1.scale(Fraction(1, 2)))
    assert_exact(Poly.variable(3, 2))


def test_int_and_fraction_coefficients_agree():
    ex = (1, 0, 2)
    a, b = Poly(3, {ex: Fraction(2)}), Poly(3, {ex: 2})
    assert a == b and hash(a) == hash(b)
    assert a.terms == {ex: Fraction(2)}


def test_constant_value_is_a_fraction():
    for value in (0, 3, Fraction(3, 4)):
        got = Poly.constant(3, value).constant_value()
        assert type(got) is Fraction and got == value


def _k(*ex):
    """The packed key of an exponent tuple in 3 coordinates."""
    return pack(3, ex)


def test_add_into_copies_and_ignores_zero_multiples():
    terms = {_k(1, 0, 0): 2, _k(0, 0, 1): -3}
    acc = {}
    add_into(acc, terms, 1)
    assert acc == terms and acc is not terms
    acc[_k(1, 0, 0)] = 7  # the accumulator owns its entries
    assert terms == {_k(1, 0, 0): 2, _k(0, 0, 1): -3}
    add_into(acc, {_k(0, 1, 0): 5, _k(1, 0, 0): 1}, 0)  # c = 0 neither adds nor drops
    assert acc == {_k(1, 0, 0): 7, _k(0, 0, 1): -3}
    add_into(acc, {_k(0, 0, 1): 1, _k(0, 1, 0): 4}, 3)  # -3 + 3 cancels and is dropped
    assert acc == {_k(1, 0, 0): 7, _k(0, 1, 0): 12}
    fresh = {}
    add_into(fresh, terms, -2)
    assert fresh == {_k(1, 0, 0): -4, _k(0, 0, 1): 6}


def test_mul_into_accumulates_signed_products():
    x_plus_1, x_minus_1 = {_k(1, 0, 0): 1, _k(0, 0, 0): 1}, {_k(1, 0, 0): 1, _k(0, 0, 0): -1}
    acc = {_k(2, 0, 0): 2, _k(0, 1, 0): 5}
    mul_into(acc, x_plus_1, x_minus_1, -2)  # -2 (x^2 - 1) cancels the x^2 entry
    assert acc == {_k(0, 1, 0): 5, _k(0, 0, 0): 2}
    mul_into(acc, x_plus_1, x_minus_1, 0)
    assert acc == {_k(0, 1, 0): 5, _k(0, 0, 0): 2}


def test_over_lcm():
    assert over_lcm([Fraction(1, 2), 3, Fraction(-2, 3), Fraction(4)]) == ([3, 18, -4, 24], 6)
    assert over_lcm([2, -5]) == ([2, -5], 1)
    assert over_lcm([]) == ([], 1)


# -- packed exponents -----------------------------------------------------------

# small entries give equal prefixes, large ones reach the top of a field, and
# two from the upper half add up past it
field_values = st.one_of(st.integers(0, 3), st.integers(0, MAX_EXPONENT), st.integers(2**30, MAX_EXPONENT))


@st.composite
def exponent_pairs(draw):
    nvars = draw(st.integers(1, 7))
    vectors = st.tuples(*(field_values for _ in range(nvars)))
    return nvars, draw(vectors), draw(vectors)


@settings(max_examples=200, deadline=None)
@given(exponent_pairs())
def test_pack_round_trips_and_int_order_is_lexicographic(case):
    nvars, a, b = case
    ka, kb = pack(nvars, a), pack(nvars, b)
    assert unpack(nvars, ka) == a and unpack(nvars, kb) == b
    assert (ka < kb) == (a < b) and (ka == kb) == (a == b)


@st.composite
def packed_kernel_cases(draw):
    nvars = draw(st.integers(1, 5))
    tuples = st.tuples(*(field_values for _ in range(nvars)))
    dicts = st.dictionaries(tuples, st.integers(-9, 9).filter(bool), max_size=4)
    return nvars, draw(dicts), draw(dicts), draw(dicts), draw(st.integers(-3, 3))


def _packed(nvars, d):
    return {pack(nvars, ex): v for ex, v in d.items()}


@settings(max_examples=120, deadline=None)
@given(packed_kernel_cases())
def test_packed_kernels_match_a_tuple_keyed_reference(case):
    nvars, acc, a, b, c = case
    want = dict(acc)
    for ex, v in b.items():
        want[ex] = want.get(ex, 0) + c * v
    got = _packed(nvars, acc)
    add_into(got, _packed(nvars, b), c)
    assert {unpack(nvars, k): v for k, v in got.items()} == {ex: v for ex, v in want.items() if v}

    want = dict(acc)
    products = [(tuple(x + y for x, y in zip(ea, eb)), ca * cb) for ea, ca in a.items() for eb, cb in b.items()]
    got = _packed(nvars, acc)
    if c and any(max(ex) > MAX_EXPONENT for ex, _ in products):
        with pytest.raises(DomainError):
            mul_into(got, _packed(nvars, a), _packed(nvars, b), c)
        assert got == _packed(nvars, acc)  # refused before acc changes
        return
    for ex, v in products:
        want[ex] = want.get(ex, 0) + c * v
    mul_into(got, _packed(nvars, a), _packed(nvars, b), c)
    assert {unpack(nvars, k): v for k, v in got.items()} == {ex: v for ex, v in want.items() if v}


def test_exponent_budget():
    x = Poly.variable(3, 0)
    top = x**MAX_EXPONENT
    assert list(top.terms) == [(MAX_EXPONENT, 0, 0)]
    with pytest.raises(DomainError):
        top * x
    with pytest.raises(DomainError):
        x ** (MAX_EXPONENT + 1)
    with pytest.raises(DomainError):
        Poly(3, {(0, MAX_EXPONENT + 1, 0): 1})
    for bad in ((0, -1, 0), (1, 0), (1, 0, 0, 0)):
        with pytest.raises(DimensionError):
            Poly(3, {bad: 1})
    half = Poly(3, {(0, 2**30, 0): 1, (0, 2**30 - 1, 5): 1})
    assert (half * Poly(3, {(0, 2**30 - 1, 0): 1})).terms == {
        (0, MAX_EXPONENT, 0): 1, (0, 2**31 - 2, 5): 1}
    with pytest.raises(DomainError):
        half * half


def test_power_coefficient_budget():
    two, half, x = Poly.constant(3, 2), Poly.constant(3, Fraction(1, 2)), Poly.variable(3, 0)
    assert two ** MAX_POWER_BITS == Poly.constant(3, 2**MAX_POWER_BITS)
    # refused before any product: these powers would not finish
    for base, k in ((two, MAX_POWER_BITS + 1), (half, 10**18), (x + x, 2**31 - 1), (x + two, 10**6),
                    (x + Poly.one(3), MAX_POWER_BITS + 1)):
        with pytest.raises(DomainError, match=f"above the limit of {MAX_POWER_BITS}"):
            base ** k
    # 1 and -1 cost nothing
    assert Poly.constant(3, -1) ** (10**18 + 1) == Poly.constant(3, -1)
    assert (x.scale(-1) ** MAX_EXPONENT).terms == {(MAX_EXPONENT, 0, 0): -1}


def test_power_work_budget():
    one = Poly.one(3)
    wide = X1.scale(1048575) + one.scale(1048573)
    # term count times coefficient bits: 1,000 terms of 999 bits pass ...
    assert (X1 + one) ** 999 == Poly(3, {(j, 0, 0): math.comb(999, j) for j in range(1000)})
    product = one
    for _ in range(200):
        product = product * wide
    assert wide ** 200 == product
    # ... and 1,000 terms of 20,979 bits are refused before any product
    with pytest.raises(DomainError, match=f"1000 terms of 20979 bits, above the limit of {MAX_POWER_WORK}"):
        wide ** 999
    # a base of m terms counts comb(k + m - 1, m - 1) terms: 6 for (x1 + y1 + z)**2
    assert len(((X1 + Y1 + Z) ** 2).num) == 6
    with pytest.raises(DomainError, match="may have 501501 terms"):
        (X1 + Y1 + Z) ** 1000


def test_variable_key_is_the_packed_power_of_one_coordinate():
    for nvars in (1, 3, 5):
        for i in range(nvars):
            for k in (0, 1, 7, MAX_EXPONENT):
                ex = tuple(k if j == i else 0 for j in range(nvars))
                assert variable_key(nvars, i, k) == pack(nvars, ex)
        assert Poly.variable(nvars, nvars - 1) == Poly(nvars, {(0,) * (nvars - 1) + (1,): 1})
    # the same refusals as Poly.variable and Poly.__pow__
    with pytest.raises(DomainError) as err:
        variable_key(3, 1, MAX_EXPONENT + 1)
    with pytest.raises(DomainError) as pow_err:
        Poly.variable(3, 1) ** (MAX_EXPONENT + 1)
    assert str(err.value) == str(pow_err.value)
    for i in (-1, 3):
        with pytest.raises(DimensionError, match="out of range"):
            variable_key(3, i)


def reference_text(p: Poly) -> str:
    """Canonical text built from the tuple view, every field of every
    exponent visited."""
    pieces = []
    for ex in sorted(p.terms, reverse=True):
        c = Fraction(p.terms[ex])
        factors = [var_name(p.nvars, i) + (f"**{e}" if e > 1 else "") for i, e in enumerate(ex) if e]
        magnitude = str(abs(c))
        body = "*".join(factors if factors and abs(c) == 1 else [magnitude] + factors)
        sign = "-" if c < 0 else "" if not pieces else "+"
        pieces.append(f"{sign}{body}" if not pieces else f" {sign} {body}")
    return "".join(pieces) or "0"


@st.composite
def text_cases(draw):
    nvars = draw(st.sampled_from([1, 3, 5, 7, 21]))
    vectors = st.lists(field_values, min_size=nvars, max_size=nvars).map(tuple)
    return Poly(nvars, draw(st.dictionaries(vectors, rationals, max_size=5)))


@settings(max_examples=100, deadline=None)
@given(text_cases())
def test_to_text_matches_a_field_by_field_reference(p):
    assert p.to_text() == reference_text(p)

