import itertools
import re
from fractions import Fraction
from functools import cache, reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruminalg.errors import DimensionError, DomainError
from ruminalg.forms import ContactModel, Form, exterior_d, random_form, wedge
from ruminalg.parser import MAX_NESTING, MAX_POWER_TERMS, ParseError, eval_text, position, tokenize
from ruminalg.poly import MAX_EXPONENT, MAX_POWER_BITS, Poly
from ruminalg.prng import stream
from ruminalg.rumin import gamma, pi

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
    assert got2.terms[(0,)] == Poly.one(5)
    assert got2.terms[(2,)] == Poly.variable(5, 3)  # y2 dx2


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
        eval_text("theta ^", M1)
    assert err.value.line == 1 and err.value.col == 8
    with pytest.raises(ParseError):
        eval_text("theta theta", M1)
    with pytest.raises(ParseError):
        eval_text("(x1", M1)
    with pytest.raises(ParseError):
        eval_text("", M1)


def test_unknown_generator_and_coordinate():
    with pytest.raises(ParseError) as err:
        eval_text("dx2", M1)
    assert "dx2" in str(err.value)
    with pytest.raises(ParseError):
        eval_text("(x2) dx1", M1)
    assert eval_text("dx2^dy2", M2) is not None  # fine when n=2


def test_degree_mixing_rejected():
    with pytest.raises(DomainError) as err:
        eval_text("theta + dx1^dy1", M1)
    assert "degree" in str(err.value)


def test_call_arity_and_power_errors():
    with pytest.raises(ParseError):
        eval_text("m2(dx1)", M1)
    with pytest.raises(ParseError):
        eval_text("gamma(dx1; dy1)", M1)
    with pytest.raises(ParseError):
        eval_text("L(theta)", M1)  # missing power
    with pytest.raises(ParseError):
        eval_text("3/0", M1)


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
    # terms over different denominators, and a denominator met twice
    r = eval_text("(1/2*x1 + 1/3*x1*1/2*2 - 5/6*x1 + 3/4*y1 - 2/8*y1*2) theta", M1)
    assert r == M1.theta().scale_poly(Poly.variable(3, 1).scale(Fraction(1, 4)))


def test_nesting_bound_counts_parentheses_and_calls():
    # the deepest allowed nesting parses; one level more fails at its '('
    for open_, inner in (("(", "x1"), ("d(", "dx1")):
        width = len(open_)
        ok = open_ * MAX_NESTING + inner + ")" * MAX_NESTING
        assert eval_text(ok, M1) is not None
        deep = open_ * (MAX_NESTING + 1) + inner + ")" * (MAX_NESTING + 1)
        with pytest.raises(ParseError, match="nesting deeper than") as err:
            eval_text(deep, M1)
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
    assert [sum(e) for e in eval_text("(x1**100000)", M1).terms[()].terms] == [100000]
    assert eval_text("((0)**5)", M1).is_zero()


def test_power_coefficient_budget():
    # refused before powering, whatever the size of the power
    for text in ("(2**99999999999)", "((2*x1)**2000000000)", "(2**300000000)", "((1/2)**300000000)"):
        with pytest.raises(DomainError, match=f"above the limit of {MAX_POWER_BITS}"):
            eval_text(text, M1)
    # the budget is far above what prints: these still evaluate
    assert eval_text("(2**20000 - 2**20000) theta", M1) == Form.zero(M1, 1)
    assert eval_text(f"(2**{MAX_POWER_BITS})", M1).terms[()] == Poly.constant(3, 2**MAX_POWER_BITS)
    # a coefficient of 1 or -1 costs nothing, at any power
    assert eval_text("(1**99999999999 - (-x1)**2147483647)", M1).terms[()] == Poly(
        3, {(0, 0, 0): 1, (MAX_EXPONENT, 0, 0): 1})


@pytest.mark.parametrize(
    "text, message",
    [
        ("(x1**2147483647*x1)", "an exponent above the limit of 2147483647"),
        ("(x1**2147483648)", "power 2147483648 has an exponent 2147483648, above the limit of 2147483647"),
        ("(x1**2147483647*x1*0)", "an exponent above the limit of 2147483647"),
        ("(x1**2147483647*(x1)*0)", "an exponent above the limit of 2147483647"),
        ("(0*x1**2147483648)", "power 2147483648 has an exponent 2147483648"),
    ],
)
def test_exponent_limit_texts(text, message):
    # a product is checked as it is formed, left to right
    with pytest.raises(DomainError) as err:
        eval_text(text, M1)
    assert str(err.value).startswith(message)


_TOP_Y1 = "d((y1**2147483647*x2) theta)"  # coefficients y1**2147483647 at n = 2


@pytest.mark.parametrize(
    "text, error, message",
    [
        # dz is wedged in as soon as it is read, before the next atom
        (f"{_TOP_Y1} ^ dz ^ )", DomainError, "an exponent above the limit of 2147483647"),
        (f"{_TOP_Y1} ^ dz ^ m2(theta; theta)", DomainError, "an exponent above the limit of 2147483647"),
        (f"{_TOP_Y1} ^ theta ^ dz ^ )", DomainError, "an exponent above the limit of 2147483647"),
        (f"dz ^ {_TOP_Y1} ^ )", DomainError, "an exponent above the limit of 2147483647"),
        # theta and dx1 take the terms that dz would push past the limit
        (f"theta ^ {_TOP_Y1} ^ dx1 ^ dz ^ )", ParseError, "line 1, column 51"),
        # a coefficient scales its chain once the chain has been read
        ("(y1**2147483647) dz ^ )", ParseError, "line 1, column 23"),
        ("(y1**2147483647) dz + )", DomainError, "an exponent above the limit of 2147483647"),
    ],
)
def test_a_chain_is_wedged_as_it_is_read(text, error, message):
    with pytest.raises(error, match=re.escape(message)):
        eval_text(text, M2)


def test_chains_match_wedge_in_every_order():
    # every chain of up to three generators, dz among them, with no sign,
    # a minus sign or a coefficient: sorted, unsorted and repeated runs
    for model in (M1, M2):
        names = _generators(model.n) + ["dz"]
        gens = [model.generator(i) for i in range(model.dim)] + [evaluate_form(("gen", "dz"), model)]
        for k in (1, 2, 3):
            for chain in itertools.product(range(len(names)), repeat=k):
                text = "^".join(names[i] for i in chain)
                want = reduce(wedge, [gens[i] for i in chain])
                assert eval_text(text, model) == want, text
                assert eval_text(f"-{text}", model) == want.scale(-1), text
                assert eval_text(f"(3/2*y1) {text}", model) == want.scale_poly(
                    Poly.variable(model.nvars, model.n).scale(Fraction(3, 2))), text


def test_exponent_limit_products_that_fit_or_vanish():
    top = Form.constant(M1, Poly.variable(3, 0) ** MAX_EXPONENT)
    assert eval_text("(x1*x1**2147483646)", M1) == top
    assert eval_text("(x1**2147483646*x1) - (x1**2147483647)", M1).is_zero()
    # a zero factor ends the product before the exponents would pass the limit
    assert eval_text("(0*x1**2147483647*x1)", M1).is_zero()
    assert eval_text("(x1**2147483647*0*x1)", M1).is_zero()


# -- tokens: the regular expression against the character loop it replaced ----

_SYMBOLS = ("**", "+", "-", "*", "^", "(", ")", ";", ",", "/")


def reference_tokenize(text):
    """The tokens of `text` as (kind, text, line, col), read one character at
    a time: only '\n' ends a line, str.isspace is blank, str.isdigit runs
    are INT, and a NAME starts with str.isalpha and goes on over str.isalnum
    and '_'."""
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(("SYM", sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("EOF", "", line, col))
    return tokens


# the grammar's characters, blanks that are not '\n', and characters whose
# str.isdigit, str.isalpha and str.isalnum disagree with ASCII intuition
TOKEN_ALPHABET = "thetadxyzgmpiLf0123456789+-*^();,/ " + "\n\r\t\x1c\u0663\u00b2\u00bd\u03b8_"


def _tokens_or_error(tokens):
    try:
        return tokens()
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.col)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=TOKEN_ALPHABET, max_size=40))
def test_tokens_match_the_character_loop_reference(text):
    got = _tokens_or_error(lambda: [(kind, word, *position(text, at)) for kind, word, at in tokenize(text)])
    assert got == _tokens_or_error(lambda: reference_tokenize(text))


def test_unicode_digits_and_letters_keep_their_meaning():
    assert eval_text("\u0663 theta", M1) == M1.theta().scale(3)  # an Arabic-Indic 3
    with pytest.raises(ParseError, match="cannot read number \u00b2"):  # superscript 2: a digit, not a number
        eval_text("\u00b2", M1)
    with pytest.raises(ParseError, match="unexpected character '\u00bd'"):  # 1/2: numeric, not a digit
        eval_text("\u00bd", M1)
    with pytest.raises(ParseError, match="unknown generator '\u03b8'"):
        eval_text("\u03b8", M1)
    with pytest.raises(ParseError) as err:
        eval_text("theta +\r\n  2_", M1)
    assert "unexpected character '_'" in str(err.value) and (err.value.line, err.value.col) == (2, 4)


# -- the evaluator against Form/Poly/wedge arithmetic on expression trees -------

# Trees are tuples.  Polynomials: ("poly", [(sign, [factor, ...]), ...]) with
# factors ("rat", p, q or None, k), ("coord", name, k) and ("paren", poly, k),
# k the power or None.  Forms: ("sum", [(sign, (coefficient, [atom, ...])), ...])
# with coefficient None, ("rat", p, q or None, None) or a poly, and atoms
# ("gen", name) or ("call", operator, sum).

signs = st.sampled_from([1, -1])


def _coordinates(n):
    return [f"x{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, n + 1)] + ["z"]


def _generators(n):
    return ["theta"] + [f"dx{i}" for i in range(1, n + 1)] + [f"dy{i}" for i in range(1, n + 1)]


def rationals(power):
    return st.tuples(
        st.just("rat"), st.integers(1, 10).map(lambda p: p % 10), st.sampled_from([None, 2, 3, 1, 6, 4]),
        st.one_of(st.none(), st.integers(0, 3)) if power else st.none(),
    )


def _cancelling(terms, cancel):
    """terms, or terms followed by their negatives, whose sum is zero."""
    return terms + [(-sign, term) for sign, term in terms] if cancel else terms


@cache
def poly_trees(n, depth):
    factor = st.one_of(
        rationals(power=True),
        st.tuples(st.just("coord"), st.sampled_from(_coordinates(n)), st.one_of(st.none(), st.integers(0, 3))),
        *([st.tuples(st.just("paren"), poly_trees(n, depth - 1), st.one_of(st.none(), st.integers(0, 2)))]
          if depth else []),
    )
    terms = st.lists(st.tuples(signs, st.lists(factor, min_size=1, max_size=3)), min_size=1, max_size=2)
    return st.tuples(terms, st.integers(0, 9)).map(lambda t: ("poly", _cancelling(t[0], t[1] == 9)))


@st.composite
def form_trees(draw, n, degree, depth):
    """A sum of terms of the given degree."""
    dim = 2 * n + 1
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        coefficient = draw(st.one_of(st.none(), rationals(power=False), poly_trees(n, depth % 2)))
        atoms, left = [], degree
        if degree == 0 and (not depth or coefficient is not None and draw(st.booleans())):
            coefficient = coefficient or draw(rationals(power=False))
        else:
            while left > 0 or not atoms:
                # mostly a generator the chain does not hold yet; dz = theta + ... holds theta
                held = {atom[1] for atom in atoms if atom[0] == "gen"}
                if "dz" in held:
                    held.add("theta")
                fresh = [g for g in _generators(n) if g not in held] if draw(st.integers(0, 7)) < 7 else []
                kinds = (["gen", "gen", "dz"] if left else []) + (["call"] if depth else [])
                if fresh and "theta" in held:
                    kinds = [k for k in kinds if k != "dz"]
                kind = draw(st.sampled_from(kinds))
                if kind == "gen":
                    atoms.append(("gen", draw(st.sampled_from(fresh or _generators(n)))))
                elif kind == "dz":
                    atoms.append(("gen", "dz"))
                else:
                    size = draw(st.integers(0, left))
                    # gamma of a 1-form is zero, so gamma makes forms of degree 1 and up
                    ops = (["d"] if size else []) + (["gamma"] if 0 < size < dim else []) + ["pi"]
                    op = draw(st.sampled_from(ops))
                    inner = size - 1 if op == "d" else size + 1 if op == "gamma" else size
                    atoms.append(("call", op, draw(form_trees(n, inner, depth - 1))))
                    left -= size
                    continue
                left -= 1
        terms.append((draw(signs), (coefficient, atoms)))
    return ("sum", _cancelling(terms, draw(st.integers(0, 9)) == 9))


def _signed(pieces):
    return "".join(
        ("-" if sign < 0 else "") + body if i == 0 else (" - " if sign < 0 else " + ") + body
        for i, (sign, body) in enumerate(pieces)
    )


def render(tree) -> str:
    kind = tree[0]
    if kind == "poly":
        return _signed([(sign, "*".join(map(render, factors))) for sign, factors in tree[1]])
    if kind in ("rat", "coord", "paren"):
        if kind == "rat":
            base = str(tree[1]) if tree[2] is None else f"{tree[1]}/{tree[2]}"
        else:
            base = tree[1] if kind == "coord" else f"({render(tree[1])})"
        return base if tree[-1] is None else f"{base}**{tree[-1]}"
    if kind == "sum":
        pieces = []
        for sign, (coefficient, atoms) in tree[1]:
            chain = "^".join(map(render, atoms))
            if coefficient is None:
                pieces.append((sign, chain))
            else:
                c = render(coefficient) if coefficient[0] == "rat" else f"({render(coefficient)})"
                pieces.append((sign, f"{c} {chain}" if chain else c))
        return _signed(pieces)
    if kind == "gen":
        return tree[1]
    return f"{tree[1]}({render(tree[2])})"


def evaluate_poly(tree, model) -> Poly:
    nvars = model.nvars
    kind = tree[0]
    if kind == "poly":
        total = Poly.zero(nvars)
        for sign, factors in tree[1]:
            product = Poly.one(nvars)
            for factor in factors:
                product = product * evaluate_poly(factor, model)
            total = total + product.scale(sign)
        return total
    if kind == "rat":
        base = Poly.constant(nvars, Fraction(tree[1], tree[2] or 1))
    elif kind == "coord":
        base = Poly.variable(nvars, _coordinates(model.n).index(tree[1]))
    else:
        base = evaluate_poly(tree[1], model)
    return base if tree[-1] is None else base ** tree[-1]


def evaluate_form(tree, model) -> Form:
    kind = tree[0]
    if kind == "sum":
        total = None
        for sign, (coefficient, atoms) in tree[1]:
            value = None
            for atom in atoms:
                factor = evaluate_form(atom, model)
                value = factor if value is None else wedge(value, factor)
            if coefficient is not None:
                c = evaluate_poly(coefficient, model)
                value = Form.constant(model, c) if value is None else value.scale_poly(c)
            value = value.scale(sign)
            try:
                total = value if total is None else total + value
            except DimensionError as exc:
                raise DomainError(f"degree mixing in sum: {exc}") from exc
        return total
    if kind == "gen":
        if tree[1] == "dz":
            n, nvars = model.n, model.nvars
            dz = model.theta()
            for i in range(1, n + 1):
                dz = dz + model.generator(i).scale_poly(Poly.variable(nvars, n + i - 1))
            return dz
        return model.generator(_generators(model.n).index(tree[1]))
    inner = evaluate_form(tree[2], model)
    return {"d": exterior_d, "gamma": gamma, "pi": lambda w: pi(w).form}[tree[1]](inner)


def _outcome(evaluate):
    try:
        value = evaluate()
    except (DomainError, ParseError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", value, value.degree


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_eval_matches_form_arithmetic_on_expression_trees(data):
    n = data.draw(st.sampled_from([1, 2]))
    model = ContactModel(n)
    # one degree past the top now and then: such a form is always zero
    degree = data.draw(st.integers(0, model.dim + data.draw(st.integers(0, 3)) // 3))
    tree = data.draw(form_trees(n, degree, depth=2))
    text = render(tree)
    assert _outcome(lambda: eval_text(text, model)) == _outcome(lambda: evaluate_form(tree, model)), text


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_eval_matches_poly_arithmetic_on_coefficient_trees(data):
    n = data.draw(st.sampled_from([1, 2]))
    model = ContactModel(n)
    tree = data.draw(poly_trees(n, depth=2))
    text = f"({render(tree)})"
    want = _outcome(lambda: Form.constant(model, evaluate_poly(tree, model)))
    assert _outcome(lambda: eval_text(text, model)) == want, text
