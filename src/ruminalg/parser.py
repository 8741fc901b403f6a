"""Form-expression language: a one-pass parser that evaluates as it reads.

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
the last normalized through dz = theta + sum y_i dx_i as it is read.
RATIONAL is INT or INT/INT.  Operator calls: d(.), gamma(.), pi(.),
L(., power), m2(.;.), m3(.;.;.), f2(.;.) -- the certified-input operators
check Rumin membership of their arguments and fail with context otherwise.
A power that could exceed MAX_POWER_TERMS terms is refused with
DomainError before it is computed, and parentheses and operator calls nested
more than MAX_NESTING deep are a ParseError at the opening token, so no input
can exhaust the interpreter's stack.

The text is split into tokens first, so a character outside the language is
a ParseError before anything is evaluated.  Then the input is read and
evaluated in one pass, with no syntax tree: each generator, wedge, sum and
operator call is computed as soon as it has been read.  So the first error
met decides the exception: in ``m2(theta; theta) )`` the DomainError of m2
comes before the ParseError of the stray ``)``.

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
# The parser recurses a few frames per level.
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


# -- one-pass parser and evaluator ---------------------------------------------

# name -> (arity, the operator applied to the argument forms and L's power).
# Each lambda looks its operator up when it is called, so a wrapper later put
# on the module attribute (a tracer, a test's monkeypatch) is the one that runs.
_OPERATORS = {
    "d": (1, lambda args, power: exterior_d(args[0])),
    "gamma": (1, lambda args, power: gamma(args[0])),
    "pi": (1, lambda args, power: pi(args[0]).form),
    "L": (1, lambda args, power: lefschetz(args[0], power)),
    "m2": (2, lambda args, power: m2(*map(certify, args)).form),
    "m3": (3, lambda args, power: m3(*map(certify, args)).form),
    "f2": (2, lambda args, power: f2(*map(certify, args))),
}


class Parser:
    """Recursive descent over the tokens of one text.  Every `parse_*`
    method returns the value it has read, a `Form` or a coefficient `Poly`,
    so the input is evaluated as it is read."""

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
            raise self.unexpected(tok, repr(text or kind))
        return self.advance()

    def unexpected(self, tok: Token, want: str) -> ParseError:
        return ParseError(f"expected {want}, found {tok.text or 'end of input'!r}", tok.line, tok.col)

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

    def parenthesized(self, parse_inner):
        self.open_group(self.advance())
        value = parse_inner()
        self.close_group()
        return value

    def signed_sum(self, parse_term):
        """['-'] term (('+' | '-') term)*, each term read by `parse_term` and
        added as soon as it is read."""
        sign = 1
        if self.at_sym("-"):
            self.advance()
            sign = -1
        total = parse_term().scale(sign)
        while self.at_sym("+") or self.at_sym("-"):
            sign = 1 if self.advance().text == "+" else -1
            term = parse_term().scale(sign)
            try:
                total = total + term
            except DimensionError as exc:
                raise DomainError(f"degree mixing in sum: {exc}") from exc
        return total

    # -- form grammar ---------------------------------------------------------

    def parse(self) -> Form:
        form = self.parse_sum()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col)
        return form

    def parse_sum(self) -> Form:
        return self.signed_sum(self.parse_term)

    def parse_term(self) -> Form:
        if self.peek().kind == "INT":
            coeff = self.parse_rational()
        elif self.at_sym("("):
            coeff = self.parenthesized(self.parse_polyexpr)
        else:
            return self.parse_chain()
        if self.peek().kind == "NAME":
            return self.parse_chain().scale_poly(coeff)
        return Form.constant(self.model, coeff)

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

    def parse_chain(self) -> Form:
        out = self.parse_atom()
        while self.at_sym("^"):
            self.advance()
            out = wedge(out, self.parse_atom())
        return out

    def parse_atom(self) -> Form:
        tok = self.peek()
        if tok.kind != "NAME":
            raise self.unexpected(tok, "a generator or operator call")
        name = self.advance().text
        if name in _OPERATORS and self.at_sym("("):
            return self.parse_call(name, tok)
        return self.resolve_generator(name, tok)

    def parse_call(self, name: str, tok: Token) -> Form:
        arity, apply = _OPERATORS[name]
        self.open_group(self.expect("SYM", "("))
        args = [self.parse_sum()]
        while self.at_sym(";"):
            self.advance()
            args.append(self.parse_sum())
        power = None
        if name == "L":
            self.expect("SYM", ",")
            power = _int(self.expect("INT"))
        if len(args) != arity:
            raise ParseError(f"{name} takes {arity} argument(s), got {len(args)}", tok.line, tok.col)
        self.close_group()
        try:
            return apply(args, power)
        except DomainError as exc:
            raise DomainError(f"{name}: {exc}") from exc

    def resolve_generator(self, name: str, tok: Token) -> Form:
        model, n = self.model, self.model.n
        if name == "theta":
            return model.generator(0)
        if name == "dz":  # theta + sum_i y_i dx_i in the adapted coframe
            terms = {(0,): Poly.one(model.nvars)}
            for i in range(1, n + 1):
                terms[(i,)] = Poly.variable(model.nvars, n + i - 1)
            return Form(model, 1, terms, _canonical=True)
        if name[:2] in ("dx", "dy") and name[2:].isdigit():
            i = _int(tok, name[2:])
            if 1 <= i <= n:
                return model.generator(i if name[1] == "x" else n + i)
        raise ParseError(f"unknown generator {name!r} for n={n}", tok.line, tok.col)

    # -- polynomial grammar -----------------------------------------------------

    def parse_polyexpr(self) -> Poly:
        return self.signed_sum(self.parse_polyterm)

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
            base = self.parenthesized(self.parse_polyexpr)
        elif tok.kind == "NAME":
            base = self.resolve_coordinate(self.advance())
        else:
            raise self.unexpected(tok, "a coordinate, number or '('")
        if self.at_sym("**"):
            self.advance()
            k = _int(self.expect("INT"))
            m = len(base.num)
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


def eval_text(text: str, model: ContactModel) -> Form:
    """Read and evaluate `text` in one pass."""
    return Parser(text, model).parse()
