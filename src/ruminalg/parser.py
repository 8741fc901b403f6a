"""Form-expression language: parser, evaluator, canonical printing.

Grammar (whitespace insignificant, `#` not special):

    sum      := ['-'] term (('+' | '-') term)*
    term     := coefficient [chain] | chain
    chain    := atom ('^' atom)*
    atom     := GENERATOR | call
    call     := NAME '(' sum (';' sum)* [',' INT] ')'
    coefficient := RATIONAL | '(' polyexpr ')'

    polyexpr := ['-'] polyterm (('+' | '-') polyterm)*
    polyterm := polyfactor ('*' polyfactor)*
    polyfactor := (RATIONAL | COORD | '(' polyexpr ')') ['**' INT]

Wedge is `^`, polynomial power is `**`, and a coefficient polynomial is
parenthesized and juxtaposed before its monomial, e.g.
``(3/2*x1**2) dx1^dy1 + theta^dx1``; bare rationals need no parentheses
(``2 theta^dx1``).  Generators are `theta`, `dx1..dxn`, `dy1..dyn` and `dz`,
the last normalized through dz = theta + sum y_i dx_i at evaluation.
RATIONAL is INT or INT/INT.  Operator calls: d(.), gamma(.), pi(.),
L(., power), m2(.;.), m3(.;.;.), f2(.;.) -- the certified-input operators
check Rumin membership of their arguments and fail with context otherwise.
A power that could exceed MAX_POWER_TERMS terms is refused with
DomainError before it is computed, and parentheses and operator calls nested
more than MAX_NESTING deep are a ParseError at the opening token, so no input
can exhaust the interpreter's stack.

Canonical output (`Form.to_text`) reparses to an equal form, and reprints
byte-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError, DomainError
from .forms import ContactModel, Form, exterior_d, lefschetz, wedge
from .poly import Poly
from .rumin import certify, f2, gamma, m2, m3, pi


# Most terms a `**` in an expression may produce, estimated before powering.
MAX_POWER_TERMS = 1000

# Deepest nesting of parentheses and operator calls an expression may have.
# The parser and the evaluator recurse once per level.
MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"syntax error at line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# -- tokens -------------------------------------------------------------------

_SYMBOLS = ("**", "+", "-", "*", "^", "(", ")", ";", ",", "/")


@dataclass
class Token:
    kind: str  # NAME, INT, SYM, EOF
    text: str
    line: int
    col: int


def _int(tok: Token, digits: str | None = None) -> int:
    """The value of the token's digits, or of `digits` cut from its text.
    What `int` refuses, such as more digits than Python converts, is a
    ParseError at the token."""
    digits = tok.text if digits is None else digits
    try:
        return int(digits)
    except ValueError:
        shown = digits if len(digits) <= 20 else f"{digits[:20]}... ({len(digits)} digits)"
        raise ParseError(f"cannot read number {shown}", tok.line, tok.col) from None


def tokenize(text: str):
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
            tokens.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token("SYM", sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# -- abstract syntax ------------------------------------------------------------


@dataclass
class Lit:
    poly: Poly


@dataclass
class Gen:
    index: int  # coframe index, or -1 for dz


@dataclass
class WedgeNode:
    factors: list


@dataclass
class Scaled:
    poly: Poly
    inner: object


@dataclass
class SumNode:
    terms: list  # (sign, node) pairs


@dataclass
class Call:
    name: str
    args: list
    power: int | None = None


_OPERATORS = {"d": 1, "gamma": 1, "pi": 1, "L": 1, "m2": 2, "m3": 3, "f2": 2}


class Parser:
    def __init__(self, text: str, model: ContactModel):
        self.tokens = tokenize(text)
        self.model = model
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return self.advance()

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "SYM" and tok.text == text

    def open_group(self, tok: Token) -> None:
        """Enter one level of nesting at `tok`; `close_group` leaves it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.line, tok.col)

    def close_group(self) -> None:
        self.expect("SYM", ")")
        self.depth -= 1

    # -- form grammar ---------------------------------------------------------

    def parse(self):
        node = self.parse_sum()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col)
        return node

    def parse_sum(self):
        terms = []
        sign = 1
        if self.at_sym("-"):
            self.advance()
            sign = -1
        terms.append((sign, self.parse_term()))
        while self.at_sym("+") or self.at_sym("-"):
            sign = 1 if self.advance().text == "+" else -1
            terms.append((sign, self.parse_term()))
        return terms[0][1] if len(terms) == 1 and terms[0][0] == 1 else SumNode(terms)

    def parse_term(self):
        coeff = None
        tok = self.peek()
        if tok.kind == "INT":
            coeff = self.parse_rational()
        elif self.at_sym("("):
            self.open_group(self.advance())
            coeff = self.parse_polyexpr()
            self.close_group()
        if coeff is not None:
            tok = self.peek()
            if tok.kind == "NAME":
                return Scaled(coeff, self.parse_chain())
            return Lit(coeff)
        return self.parse_chain()

    def parse_rational(self) -> Poly:
        tok = self.expect("INT")
        value = Fraction(_int(tok))
        if self.at_sym("/"):
            self.advance()
            den = self.expect("INT")
            den_value = _int(den)
            if den_value == 0:
                raise ParseError("zero denominator", den.line, den.col)
            value /= den_value
        return Poly.constant(self.model.nvars, value)

    def parse_chain(self):
        factors = [self.parse_atom()]
        while self.at_sym("^"):
            self.advance()
            factors.append(self.parse_atom())
        return factors[0] if len(factors) == 1 else WedgeNode(factors)

    def parse_atom(self):
        tok = self.peek()
        if tok.kind != "NAME":
            raise ParseError(
                f"expected a generator or operator call, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        name = self.advance().text
        if name in _OPERATORS and self.at_sym("("):
            return self.parse_call(name, tok)
        return Gen(self.resolve_generator(name, tok))

    def parse_call(self, name: str, tok: Token) -> Call:
        arity = _OPERATORS[name]
        self.open_group(self.expect("SYM", "("))
        args = [self.parse_sum()]
        while self.at_sym(";"):
            self.advance()
            args.append(self.parse_sum())
        power = None
        if name == "L":
            self.expect("SYM", ",")
            ptok = self.expect("INT")
            power = _int(ptok)
        if len(args) != arity:
            raise ParseError(f"{name} takes {arity} argument(s), got {len(args)}", tok.line, tok.col)
        self.close_group()
        return Call(name, args, power)

    def resolve_generator(self, name: str, tok: Token) -> int:
        n = self.model.n
        if name == "theta":
            return 0
        if name == "dz":
            return -1
        if name.startswith("dx") and name[2:].isdigit():
            i = _int(tok, name[2:])
            if 1 <= i <= n:
                return i
        if name.startswith("dy") and name[2:].isdigit():
            i = _int(tok, name[2:])
            if 1 <= i <= n:
                return n + i
        raise ParseError(f"unknown generator {name!r} for n={n}", tok.line, tok.col)

    # -- polynomial grammar -----------------------------------------------------

    def parse_polyexpr(self) -> Poly:
        sign = 1
        if self.at_sym("-"):
            self.advance()
            sign = -1
        total = self.parse_polyterm().scale(sign)
        while self.at_sym("+") or self.at_sym("-"):
            sign = 1 if self.advance().text == "+" else -1
            total = total + self.parse_polyterm().scale(sign)
        return total

    def parse_polyterm(self) -> Poly:
        value = self.parse_polyfactor()
        while self.at_sym("*") and not self.at_sym("**"):
            self.advance()
            value = value * self.parse_polyfactor()
        return value

    def parse_polyfactor(self) -> Poly:
        tok = self.peek()
        if tok.kind == "INT":
            base = self.parse_rational()
        elif self.at_sym("("):
            self.open_group(self.advance())
            base = self.parse_polyexpr()
            self.close_group()
        elif tok.kind == "NAME":
            base = self.resolve_coordinate(self.advance())
        else:
            raise ParseError(
                f"expected a coordinate, number or '(', found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        if self.at_sym("**"):
            self.advance()
            k = _int(self.expect("INT"))
            m = len(base.terms)
            if m > 1:
                # p**k has at most comb(k + m - 1, m - 1) terms, the monomials
                # of degree k in m letters.  The count grows with k, so it is
                # formed at k <= MAX_POWER_TERMS: cheap, and still over the
                # limit whenever the count at k is.
                capped = min(k, MAX_POWER_TERMS)
                estimate = math.comb(capped + m - 1, m - 1)
                if estimate > MAX_POWER_TERMS:
                    more = "more than " if capped < k else ""
                    raise DomainError(
                        f"power {k} of a {m}-term polynomial may have {more}{estimate} terms, "
                        f"above the limit of {MAX_POWER_TERMS}"
                    )
            base = base ** k
        return base

    def resolve_coordinate(self, tok: Token) -> Poly:
        n = self.model.n
        name = tok.text
        if name == "z":
            return Poly.variable(self.model.nvars, 2 * n)
        if name[:1] in ("x", "y") and name[1:].isdigit():
            i = _int(tok, name[1:])
            if 1 <= i <= n:
                return Poly.variable(self.model.nvars, i - 1 if name[0] == "x" else n + i - 1)
        raise ParseError(f"unknown coordinate {name!r} for n={n}", tok.line, tok.col)


def parse_form(text: str, model: ContactModel):
    """Parse to the expression tree (no evaluation)."""
    return Parser(text, model).parse()


def _dz_form(model: ContactModel) -> Form:
    # dz = theta + sum_i y_i dx_i in the adapted coframe.
    terms = {(0,): Poly.one(model.nvars)}
    for i in range(1, model.n + 1):
        terms[(i,)] = Poly.variable(model.nvars, model.n + i - 1)
    return Form(model, 1, terms, _canonical=True)


def evaluate(node, model: ContactModel) -> Form:
    """Evaluate an expression tree to a homogeneous form."""
    if isinstance(node, Lit):
        return Form.constant(model, node.poly)
    if isinstance(node, Gen):
        return _dz_form(model) if node.index == -1 else model.generator(node.index)
    if isinstance(node, Scaled):
        return evaluate(node.inner, model).scale_poly(node.poly)
    if isinstance(node, WedgeNode):
        out = evaluate(node.factors[0], model)
        for factor in node.factors[1:]:
            out = wedge(out, evaluate(factor, model))
        return out
    if isinstance(node, SumNode):
        total = None
        for sign, term in node.terms:
            value = evaluate(term, model).scale(sign)
            try:
                total = value if total is None else total + value
            except DimensionError as exc:
                raise DomainError(f"degree mixing in sum: {exc}") from exc
        return total
    if isinstance(node, Call):
        args = [evaluate(a, model) for a in node.args]
        try:
            if node.name == "d":
                return exterior_d(args[0])
            if node.name == "gamma":
                return gamma(args[0])
            if node.name == "pi":
                return pi(args[0]).form
            if node.name == "L":
                return lefschetz(args[0], node.power)
            if node.name == "m2":
                return m2(certify(args[0]), certify(args[1])).form
            if node.name == "m3":
                return m3(certify(args[0]), certify(args[1]), certify(args[2])).form
            if node.name == "f2":
                return f2(certify(args[0]), certify(args[1]))
        except DomainError as exc:
            raise DomainError(f"{node.name}: {exc}") from exc
    raise TypeError(f"unknown expression node {node!r}")


def eval_text(text: str, model: ContactModel) -> Form:
    """Parse and evaluate in one step."""
    return evaluate(parse_form(text, model), model)
