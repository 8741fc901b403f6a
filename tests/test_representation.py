"""The scaled-integer representation: every Poly is int numerators over one
positive denominator in lowest terms, whatever built it."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruminalg import forms, poly
from ruminalg.forms import ContactModel, Form, exterior_d, wedge
from ruminalg.poly import Poly
from ruminalg.rumin import gamma, pi

NVARS = 3
LAMBDAS = (Fraction(1), Fraction(3, 7))
MODELS = (ContactModel(1), ContactModel(2))

exponents = st.tuples(*(st.integers(0, 3) for _ in range(NVARS)))
rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)
rational_dicts = st.dictionaries(exponents, rationals, max_size=5)
polys = rational_dicts.map(lambda d: Poly(NVARS, d))


def assert_lowest(p: Poly) -> None:
    assert type(p.den) is int and p.den > 0
    assert all(type(v) is int and v for v in p.num.values()), p.num
    assert gcd(p.den, *p.num.values()) == 1, (p.num, p.den)
    if not p.num:
        assert p.den == 1


def assert_lowest_form(w: Form) -> None:
    for p in w.terms.values():
        assert p.num, "a stored coefficient is zero"
        assert_lowest(p)


def reference(d: dict) -> dict:
    """The dict-of-Fractions value of a rational dict: values of equal
    exponents added, zeros dropped."""
    out = {}
    for ex, c in d.items():
        out[ex] = out.get(ex, Fraction(0)) + Fraction(c)
    return {ex: c for ex, c in out.items() if c}


@st.composite
def rational_forms(draw, model=None):
    """A form whose coefficients have denominators of their own, so that the
    blocks of one form differ in denominator."""
    model = model or draw(st.sampled_from(MODELS))
    nvars = model.nvars
    coefficients = st.dictionaries(
        st.tuples(*(st.integers(0, 2) for _ in range(nvars))), rationals, min_size=1, max_size=3
    ).map(lambda d: Poly(nvars, d))
    degree = draw(st.integers(0, model.dim))
    monomials = draw(
        st.lists(st.sampled_from(model.coframe_monomials(degree)), min_size=1, max_size=3, unique=True)
    )
    return Form(model, degree, {idx: draw(coefficients) for idx in monomials})


@settings(max_examples=80, deadline=None)
@given(polys, polys, rationals, st.integers(0, NVARS - 1), st.integers(0, 4))
def test_poly_arithmetic_is_in_lowest_terms(p, q, c, var, k):
    for r in (p, p + q, p - q, p * q, -p, p.scale(c), p.add_scaled(q, c), p.deriv(var), p**k,
              Poly.constant(NVARS, c)):
        assert_lowest(r)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_form_operations_are_in_lowest_terms(data):
    model = data.draw(st.sampled_from(MODELS))
    a, b = data.draw(rational_forms(model)), data.draw(rational_forms(model))
    c = data.draw(rationals)
    same = b if b.degree == a.degree else a.scale(Fraction(-1, 2))
    results = [a + same, a - same, -a, a.scale(c), wedge(a, b), exterior_d(a), pi(a).form]
    results += [gamma(a, _lam=lam) for lam in LAMBDAS]
    for w in results:
        assert_lowest_form(w)


@settings(max_examples=80, deadline=None)
@given(rational_dicts)
def test_int_fraction_and_mixed_dicts_agree(d):
    as_fractions = {ex: Fraction(c) for ex, c in d.items()}
    as_ints = {ex: c.numerator if c.denominator == 1 else c for ex, c in as_fractions.items()}
    mixed = {ex: c if i % 2 else as_ints[ex] for i, (ex, c) in enumerate(as_fractions.items())}
    built = [Poly(NVARS, as_fractions), Poly(NVARS, as_ints), Poly(NVARS, mixed),
             Poly(NVARS, as_fractions, _canonical=True), Poly(NVARS, dict(Poly(NVARS, d).terms))]
    for p in built:
        assert_lowest(p)
        assert p == built[0] and hash(p) == hash(built[0])


@settings(max_examples=80, deadline=None)
@given(rational_dicts, rational_dicts)
def test_terms_view_equals_the_fraction_reference(a, b):
    p, q = Poly(NVARS, a), Poly(NVARS, b)
    ra, rb = reference(a), reference(b)
    assert p.terms == ra
    total = dict(ra)
    for ex, c in rb.items():
        total[ex] = total.get(ex, Fraction(0)) + c
    assert (p + q).terms == {ex: c for ex, c in total.items() if c}
    for c in (p * q).terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)
    with pytest.raises(TypeError):
        p.terms[(0,) * NVARS] = 1  # a view, not the numerators


def test_zero_has_den_1():
    half = Poly.variable(NVARS, 0).scale(Fraction(1, 2))
    model = MODELS[0]
    x = Form.monomial(model, (1,), half)
    zeros = [Poly.zero(NVARS), Poly(NVARS, {(1, 0, 0): Fraction(0, 3)}),
             half - half, half.scale(0), half * Poly.zero(NVARS), half.add_scaled(half, -1),
             Poly.constant(NVARS, Fraction(0, 5)), half.deriv(1)]
    for z in zeros:
        assert z.is_zero() and z.den == 1 and z == Poly.zero(NVARS)
    assert (x - x).is_zero() and wedge(x, x).is_zero()


def _skip_gcd(nvars, num, den):
    p = object.__new__(Poly)
    p.nvars, p.num, p.den = nvars, num, den
    return p


def test_a_wrap_without_gcd_breaks_lowest_terms(monkeypatch):
    # Negative control for the checks above: a wrap that keeps den and
    # numerators unreduced leaves results out of lowest terms, and a value
    # then has two representations, so gamma at lambda = 3/7 no longer
    # equals gamma at lambda = 1.
    for module in (poly, forms):
        monkeypatch.setattr(module, "wrap", _skip_gcd)
    model = MODELS[1]
    x1, y2 = Poly.variable(model.nvars, 0), Poly.variable(model.nvars, 3)
    w = Form.monomial(model, (1, 3), x1 * y2 + Poly.constant(model.nvars, 3))
    scaled = gamma(w, _lam=Fraction(3, 7))
    with pytest.raises(AssertionError):
        assert_lowest_form(scaled)
    assert scaled != gamma(w)
    with pytest.raises(AssertionError):
        assert_lowest(x1.scale(Fraction(2, 3)).scale(Fraction(3, 2)))
