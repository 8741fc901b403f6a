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
A power that could exceed MAX_POWER_TERMS terms, or whose coefficients
could pass `poly.MAX_POWER_BITS` bits, or whose term count times bits could
pass `poly.MAX_POWER_WORK`, is refused with DomainError before it is
computed, and parentheses and operator calls nested more than MAX_NESTING
deep are a ParseError at the opening token, so no input can exhaust the
interpreter's stack.

One regular expression splits the text into tokens (kind, text, offset)
first, so a character outside the language is a ParseError before anything
is evaluated.  Then the input is read and evaluated in one pass, with no
syntax tree, so the first error met decides the exception: in
``m2(theta; theta) )`` the DomainError of m2 comes before the ParseError of
the stray ``)``.  Literals skip `Poly` and `Form` arithmetic: a polyterm
is a numerator map multiplied with `poly.mul_into` factor by factor, a
polyexpr sums its terms into one numerator map, and a run of plain
generators is one sorted coframe index and its permutation's sign.  Only
parenthesized factors and powers other than a coordinate's go through
`Poly`, and only dz, calls and the runs between them through `wedge`.

Canonical output (`Form.to_text`) reparses to an equal form, and reprints
byte-identically.
"""

from __future__ import annotations

import math
import re

from .errors import DimensionError, DomainError
from .forms import ContactModel, Form, exterior_d, lefschetz, wedge
from .poly import Poly, add_into, mul_into, read_int, variable_key, wrap
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


def position(text: str, offset: int) -> tuple:
    """(line, column) of `offset` in `text`, both from 1: only '\\n' ends a
    line, and every other character takes one column."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


# -- tokens -------------------------------------------------------------------

# Blanks (\s is str.isspace), then a word (\w is str.isalnum or '_'), a
# symbol, any other character or the end, which is an alternative so that
# trailing blanks are one match, never rescanned.
_TOKEN = re.compile(r"\s*(?:(\w+)|(\*\*|[-+*^();,/])|(\S)|\Z)")


def tokenize(text: str) -> list:
    """The tokens (kind, text, offset) of `text`, kind NAME, INT, SYM or EOF,
    the last one EOF.  A word that starts with a letter (str.isalpha) is a
    NAME; otherwise its leading digits (str.isdigit) are an INT, and the rest
    of it, if any, must start with a letter."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastindex
        if kind == 1:
            word, at = m[1], m.start(1)
            j = (0 if word[0].isalpha() else len(word) if word.isdigit()
                 else next(j for j, ch in enumerate(word) if not ch.isdigit()))
            if j:
                tokens.append(("INT", word[:j], at))
            if j < len(word):
                if not word[j].isalpha():
                    raise ParseError(f"unexpected character {word[j]!r}", *position(text, at + j))
                tokens.append(("NAME", word[j:], at + j))
        elif kind == 2:
            tokens.append(("SYM", m[2], m.start(2)))
        elif kind == 3:
            raise ParseError(f"unexpected character {m[3]!r}", *position(text, m.start(3)))
        else:
            tokens.append(("EOF", "", len(text)))
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
    method returns the value it has read, so the input is evaluated as it is
    read: a `Form`, a coefficient `Poly`, or for a polyterm and a polyfactor
    a numerator map and its denominator."""

    def __init__(self, text: str, model: ContactModel):
        self.text = text
        self.tokens = tokenize(text)
        self.model = model
        self.pos = 0
        self.depth = 0

    def error(self, message: str, tok: tuple) -> ParseError:
        return ParseError(message, *position(self.text, tok[2]))

    def expect(self, kind: str, text: str | None = None) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] != kind or (text is not None and tok[1] != text):
            raise self.unexpected(tok, repr(text or kind))
        self.pos += 1
        return tok

    def unexpected(self, tok: tuple, want: str) -> ParseError:
        return self.error(f"expected {want}, found {tok[1] or 'end of input'!r}", tok)

    def at_sym(self, text: str) -> bool:
        # no NAME, INT or EOF token has a symbol's text
        return self.tokens[self.pos][1] == text

    def int_value(self, tok: tuple, digits: str | None = None) -> int:
        """The value of the token's digits, or of `digits` cut from its text.
        What `int` refuses, such as more digits than Python converts, is a
        ParseError at the token."""
        try:
            return read_int(tok[1] if digits is None else digits)
        except ValueError as exc:
            raise self.error(str(exc), tok) from None

    def open_group(self, tok: tuple) -> None:
        """Enter one level of nesting at `tok`; `close_group` leaves it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels", tok)

    def close_group(self) -> None:
        self.expect("SYM", ")")
        self.depth -= 1

    def parenthesized(self, parse_inner):
        self.open_group(self.tokens[self.pos])
        self.pos += 1
        value = parse_inner()
        self.close_group()
        return value

    def signed_terms(self, parse_term):
        """['-'] term (('+' | '-') term)*: yields parse_term(sign), sign +1
        or -1, for each term as it is read."""
        sign = 1
        if self.at_sym("-"):
            self.pos += 1
            sign = -1
        while True:
            yield parse_term(sign)
            text = self.tokens[self.pos][1]
            if text != "+" and text != "-":
                return
            self.pos += 1
            sign = 1 if text == "+" else -1

    # -- form grammar ---------------------------------------------------------

    def parse(self) -> Form:
        form = self.parse_sum()
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            raise self.error(f"unexpected {tok[1]!r}", tok)
        return form

    def parse_sum(self) -> Form:
        """A sum of forms, each term added as soon as it is read."""
        terms = self.signed_terms(self.parse_term)
        total = next(terms)
        for term in terms:
            try:
                total = total + term
            except DimensionError as exc:
                raise DomainError(f"degree mixing in sum: {exc}") from exc
        return total

    def parse_term(self, sign: int) -> Form:
        tok = self.tokens[self.pos]
        if tok[0] == "INT":
            n, d = self.parse_rational()
            coeff = wrap(self.model.nvars, {0: sign * n} if n else {}, d)
        elif tok[1] == "(":
            coeff = self.parenthesized(self.parse_polyexpr)
            coeff = -coeff if sign < 0 else coeff
        else:
            return self.parse_chain().scale(sign)
        if self.tokens[self.pos][0] == "NAME":
            return self.parse_chain().scale_poly(coeff)
        return Form.constant(self.model, coeff)

    def parse_rational(self) -> tuple:
        """RATIONAL as (numerator, denominator) in lowest terms."""
        n = self.int_value(self.expect("INT"))
        if not self.at_sym("/"):
            return n, 1
        self.pos += 1
        den = self.expect("INT")
        d = self.int_value(den)
        if d == 0:
            raise self.error("zero denominator", den)
        g = math.gcd(n, d)
        return n // g, d // g

    def parse_chain(self) -> Form:
        """A chain, wedged as it is read: a run of plain generators waits as
        a list of coframe indices, and is wedged in as one form (`wedge_run`)
        when dz, a call or the end of the chain follows it."""
        out, run = None, []
        while True:
            atom = self.parse_atom()
            if type(atom) is int:
                run.append(atom)
            else:
                out = self.wedge_run(out, run)
                out = atom if out is None else wedge(out, atom)
                run = []
            if not self.at_sym("^"):
                return self.wedge_run(out, run)
            self.pos += 1

    def wedge_run(self, out: Form | None, run: list) -> Form | None:
        """out (None for 1) wedged with the plain generators `run`, coframe
        indices in the order read: one sorted index and the sign of its
        permutation, or a zero of degree len(run) when an index repeats."""
        if not run:
            return out
        idx = tuple(sorted(run))
        s = -1 if sum(a > b for j, a in enumerate(run) for b in run[j + 1:]) & 1 else 1
        terms = {idx: wrap(self.model.nvars, {0: s}, 1)} if len(set(idx)) == len(idx) else {}
        form = Form(self.model, len(run), terms, _canonical=True)
        return form if out is None else wedge(out, form)

    def parse_atom(self):
        """A plain generator's coframe index, or the Form of dz or a call."""
        tok = self.tokens[self.pos]
        if tok[0] != "NAME":
            raise self.unexpected(tok, "a generator or operator call")
        self.pos += 1
        name = tok[1]
        if name in _OPERATORS and self.at_sym("("):
            return self.parse_call(name, tok)
        return self.resolve_generator(name, tok)

    def parse_call(self, name: str, tok: tuple) -> Form:
        arity, apply = _OPERATORS[name]
        self.open_group(self.expect("SYM", "("))
        args = [self.parse_sum()]
        while self.at_sym(";"):
            self.pos += 1
            args.append(self.parse_sum())
        power = None
        if name == "L":
            self.expect("SYM", ",")
            power = self.int_value(self.expect("INT"))
        if len(args) != arity:
            raise self.error(f"{name} takes {arity} argument(s), got {len(args)}", tok)
        self.close_group()
        try:
            return apply(args, power)
        except DomainError as exc:
            raise DomainError(f"{name}: {exc}") from exc

    def resolve_generator(self, name: str, tok: tuple):
        model, n = self.model, self.model.n
        if name == "theta":
            return 0
        if name == "dz":  # theta + sum_i y_i dx_i in the adapted coframe
            terms = {(0,): Poly.one(model.nvars)}
            for i in range(1, n + 1):
                terms[(i,)] = Poly.variable(model.nvars, n + i - 1)
            return Form(model, 1, terms, _canonical=True)
        if name[:2] in ("dx", "dy") and name[2:].isdigit():
            i = self.int_value(tok, name[2:])
            if 1 <= i <= n:
                return i if name[1] == "x" else n + i
        raise self.error(f"unknown generator {name!r} for n={n}", tok)

    # -- polynomial grammar -----------------------------------------------------

    def parse_polyexpr(self) -> Poly:
        """The terms summed into one numerator map over their lcm, wrapped once."""
        terms = list(self.signed_terms(self.parse_polyterm))
        num, den = {}, math.lcm(*[d for _, d in terms])
        for term, d in terms:
            add_into(num, term, den // d)
        return wrap(self.model.nvars, num, den)

    def parse_polyterm(self, sign: int) -> tuple:
        """sign times the product of the factors, multiplied as each is read,
        as (numerator map, denominator)."""
        num, den = {0: sign}, 1
        while True:
            factor, d = self.parse_polyfactor()
            product, num = num, {}
            mul_into(num, product, factor, 1)
            den *= d
            if not self.at_sym("*"):
                return num, den
            self.pos += 1

    def parse_polyfactor(self) -> tuple:
        """(numerator map, denominator) of a factor.  A coordinate's power is
        one packed exponent; any other power is a `Poly` power, refused before
        any product when it could have more than MAX_POWER_TERMS terms."""
        tok = self.tokens[self.pos]
        if tok[0] == "NAME":
            self.pos += 1
            index = self.resolve_coordinate(tok)
            num, den = {variable_key(self.model.nvars, index): 1}, 1
        elif tok[0] == "INT":
            n, d = self.parse_rational()
            num, den = ({0: n} if n else {}), d
        elif tok[1] == "(":
            base = self.parenthesized(self.parse_polyexpr)
            num, den = base.num, base.den
        else:
            raise self.unexpected(tok, "a coordinate, number or '('")
        if not self.at_sym("**"):
            return num, den
        self.pos += 1
        k = self.int_value(self.expect("INT"))
        if tok[0] == "NAME":
            return {variable_key(self.model.nvars, index, k): 1}, 1
        m = len(num)
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
        power = wrap(self.model.nvars, num, den) ** k
        return power.num, power.den

    def resolve_coordinate(self, tok: tuple) -> int:
        """The index of the coordinate named by `tok`: x1..xn, y1..yn, z."""
        n = self.model.n
        name = tok[1]
        if name == "z":
            return 2 * n
        if name[:1] in ("x", "y") and name[1:].isdigit():
            i = self.int_value(tok, name[1:])
            if 1 <= i <= n:
                return i - 1 if name[0] == "x" else n + i - 1
        raise self.error(f"unknown coordinate {name!r} for n={n}", tok)


def eval_text(text: str, model: ContactModel) -> Form:
    """Read and evaluate `text` in one pass."""
    return Parser(text, model).parse()
