from fractions import Fraction

import pytest

from ruminalg.errors import DomainError
from ruminalg.forms import ContactModel, Form, random_form, wedge
from ruminalg.parser import MAX_NESTING, MAX_POWER_TERMS, ParseError, eval_text, parse_form
from ruminalg.poly import Poly
from ruminalg.prng import stream

M1 = ContactModel(1)
M2 = ContactModel(2)


def test_simple_wedge():
    assert eval_text("theta^dx1", M1) == wedge(M1.theta(), M1.generator(1))


def test_grammar_example():
    got = eval_text("(3/2*x1**2) dx1^dy1 + theta^dx1", M1)
    x1 = Poly.variable(3, 0)
    expected = wedge(M1.generator(1), M1.generator(2)).scale_poly(
        (x1 * x1).scale(Fraction(3, 2))
    ) + wedge(M1.theta(), M1.generator(1))
    assert got == expected
    assert got.degree == 2 and len(got.terms) == 2


def test_dz_normalization():
    got = eval_text("dz", M1)
    expected = M1.theta() + M1.generator(1).scale_poly(Poly.variable(3, 1))
    assert got == expected
    got2 = eval_text("dz", M2)
    assert got2.coefficient((0,)) == Poly.one(5)
    assert got2.coefficient((2,)) == Poly.variable(5, 3)  # y2 dx2


def test_rational_literals_and_scalars():
    assert eval_text("3/2", M1) == Form.constant(M1, Poly.constant(3, Fraction(3, 2)))
    assert eval_text("2 theta^dx1", M1) == wedge(M1.theta(), M1.generator(1)).scale(2)
    assert eval_text("-theta", M1) == M1.theta().scale(-1)
    assert eval_text("1 - 1", M1).is_zero()


def test_operator_calls():
    assert eval_text("d(theta)", M1) == M1.dtheta()
    assert eval_text("gamma(dx1^dy1)", M1) == M1.theta()
    assert eval_text("pi(dx1^dy1)", M1).is_zero()
    assert eval_text("L(theta,1)", M1) == M1.volume()
    assert eval_text("m2(dx1; dy1)", M1).is_zero()
    assert eval_text("m3(dx1; dy1; dx1)", M1) == wedge(M1.theta(), M1.generator(1)).scale(2)
    assert eval_text("f2(dx1; dy1)", M1) == M1.theta().scale(-1)
    assert eval_text("d(gamma(dx1^dy1))", M1) == M1.dtheta()


def test_canonical_output_examples():
    assert eval_text("pi(dx1^dy1)", M1).to_text() == "0"
    assert eval_text("gamma(dx1^dy1)", M1).to_text() == "theta"
    assert eval_text("m3(dx1; dy1; dx1)", M1).to_text() == "2 theta^dx1"


def test_roundtrip_on_random_forms():
    rng = stream(55, 0)
    for model in (M1, M2):
        for deg in range(0, model.dim + 1):
            for _ in range(4):
                w = random_form(model, rng, deg, 2)
                text = w.to_text()
                again = eval_text(text, model)
                assert again == w
                assert again.to_text() == text  # parse -> print is stable


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_form("theta ^", M1)
    assert err.value.line == 1 and err.value.col == 8
    with pytest.raises(ParseError):
        parse_form("theta theta", M1)
    with pytest.raises(ParseError):
        parse_form("(x1", M1)
    with pytest.raises(ParseError):
        parse_form("", M1)


def test_unknown_generator_and_coordinate():
    with pytest.raises(ParseError) as err:
        parse_form("dx2", M1)
    assert "dx2" in str(err.value)
    with pytest.raises(ParseError):
        parse_form("(x2) dx1", M1)
    assert eval_text("dx2^dy2", M2) is not None  # fine when n=2


def test_degree_mixing_rejected():
    with pytest.raises(DomainError) as err:
        eval_text("theta + dx1^dy1", M1)
    assert "degree" in str(err.value)


def test_call_arity_and_power_errors():
    with pytest.raises(ParseError):
        parse_form("m2(dx1)", M1)
    with pytest.raises(ParseError):
        parse_form("gamma(dx1; dy1)", M1)
    with pytest.raises(ParseError):
        parse_form("L(theta)", M1)  # missing power
    with pytest.raises(ParseError):
        parse_form("3/0", M1)


def test_domain_errors_carry_operator_context():
    with pytest.raises(DomainError) as err:
        eval_text("m2(dx1^dy1; dx1)", M1)  # first argument not in the subcomplex
    assert str(err.value).startswith("m2:")
    with pytest.raises(DomainError) as err:
        eval_text("L(dx1,1)", M1)  # non-vertical
    assert str(err.value).startswith("L:")


def test_polynomial_grammar_power_and_parens():
    p = eval_text("((x1 + 1)**2 - x1**2 - 2*x1)", M1)
    assert p == Form.constant(M1, Poly.one(3))
    q = eval_text("(1/2*z + 1/2*z) theta", M1)
    assert q == M1.theta().scale_poly(Poly.variable(3, 2))


def test_nesting_bound_counts_parentheses_and_calls():
    # the deepest allowed nesting parses; one level more fails at its '('
    for open_, inner in (("(", "x1"), ("d(", "dx1")):
        width = len(open_)
        ok = open_ * MAX_NESTING + inner + ")" * MAX_NESTING
        assert parse_form(ok, M1) is not None
        deep = open_ * (MAX_NESTING + 1) + inner + ")" * (MAX_NESTING + 1)
        with pytest.raises(ParseError, match="nesting deeper than") as err:
            parse_form(deep, M1)
        assert err.value.col == width * (MAX_NESTING + 1)
    # siblings do not add up: depth is the nesting, not the count
    assert eval_text(" + ".join(["((x1)) dx1"] * (2 * MAX_NESTING)), M1) is not None


def test_power_term_budget():
    # (1+x1)**k has k+1 terms: the largest allowed power has exactly the budget.
    k = MAX_POWER_TERMS - 1
    assert len(eval_text(f"((1+x1)**{k})", M1).terms[()].terms) == MAX_POWER_TERMS
    with pytest.raises(DomainError) as err:
        eval_text(f"((1+x1)**{k + 1})", M1)
    assert f"may have {k + 2} terms" in str(err.value) and str(MAX_POWER_TERMS) in str(err.value)
    # four terms to the 40th: comb(43, 3) possible monomials
    with pytest.raises(DomainError, match="may have 12341 terms"):
        eval_text("((1+x1+y1+z)**40)", M1)
    # a huge exponent on a large base is refused at once, without forming
    # the count at the full exponent
    big = "9" * 4000
    with pytest.raises(DomainError, match="more than"):
        eval_text(f"(((1+x1)**600*(1+y1))**{big})", M1)
    # a single term, or zero, stays one term or none at any exponent
    assert eval_text("(x1**100000)", M1).terms[()].total_degree() == 100000
    assert eval_text("((0)**5)", M1).is_zero()
