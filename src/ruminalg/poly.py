"""Exact multivariate polynomials over the rationals, as scaled integers.

These are the coefficient functions of all differential forms in the package:
polynomials in the coordinates x_1..x_n, y_1..y_n, z of the Heisenberg group
H^{2n+1}, with exact rational coefficients.  All identities checked
downstream are exact ring identities, so no floating point appears anywhere.

A polynomial is stored as integer numerators over one positive denominator:
`num` maps exponent tuples (length 2n+1, entries >= 0, coordinate order
x_1..x_n, y_1..y_n, z) to nonzero ints, and `den` is a positive int.  The
pair is in lowest terms, gcd(den, every numerator) = 1, and the zero
polynomial is the empty map over den 1, so each value has exactly one
representation and equality and hashing use (nvars, den, num).  Every
arithmetic result is built by `wrap`, which divides by gcd(den, content) once
per result; an integral polynomial has den 1 and pays no gcd at all.  So
`+`, `-`, `*`, `scale` and `deriv` multiply and add ints only, after bringing
two operands to the lcm of their dens.  Values are immutable after
construction and all operations are pure, so sharing across threads is safe.

This module holds the integer arithmetic of the whole package, on numerator
maps {exponent: int}: `add_into` (acc += c * terms) and `mul_into`
(acc += c * a * b) accumulate in place and drop what cancels, and `over_lcm`
brings rationals to their least common denominator.  `Poly` is built on
them, and so are `forms.wedge`, the dtheta term of `forms.exterior_d` and
gamma's pair operators and Horner sum in `rumin`, which run on whole blocks
of numerators.  `deriv` keeps its own loop: the tests check `exterior_d`
against it as an independent reference.

`terms` is the read-only {exponent: coefficient} view for readers of values,
built on demand: each coefficient in lowest terms, an `int` when integral and
a `fractions.Fraction` otherwise.  No arithmetic reads it.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from operator import add
from types import MappingProxyType

from .errors import DimensionError, DomainError

_new = object.__new__


def exact(c):
    """The rational c as an int when it is integral, else as a Fraction with
    denominator > 1 (how `finite` stores coordinates)."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _ratio(c) -> tuple:
    """(numerator, denominator) of the rational c, the denominator > 0."""
    if type(c) is int:
        return c, 1
    c = Fraction(c)
    return c.numerator, c.denominator


def wrap(nvars: int, num: dict, den: int) -> "Poly":
    """The polynomial num / den, for nonzero int numerators and den > 0, in
    lowest terms: both are divided by gcd(den, content), and the empty map
    gets den 1.  The caller hands over `num`, which is kept when no division
    is needed."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {ex: v // g for ex, v in num.items()}
    p = _new(Poly)
    p.nvars = nvars
    p.num = num
    p.den = den
    return p


def coefficient_text(v: int, den: int) -> str:
    """The rational v / den (v >= 0, den > 0) as canonical text, "a" or
    "a/b" in lowest terms.  A number with more digits than Python prints
    (and than the parser reads back) is a DomainError."""
    if den != 1:
        g = gcd(v, den)
        v, den = v // g, den // g
    try:
        return str(v) if den == 1 else f"{v}/{den}"
    except ValueError:
        raise DomainError(
            f"a coefficient has more than {sys.get_int_max_str_digits()} digits, too long to print"
        ) from None


def add_into(acc: dict, terms: dict, c: int) -> None:
    """acc += c * terms on {exponent: int} dictionaries, dropping the entries
    that cancel; c = 0 does nothing.  An empty acc is filled with a copy,
    never with `terms` itself, which other values may share."""
    if not c:
        return
    if not acc:
        acc.update(terms if c == 1 else {ex: v * c for ex, v in terms.items()})
        return
    for ex, v in terms.items():
        s = acc.get(ex, 0) + c * v
        if s:
            acc[ex] = s
        else:
            del acc[ex]


def mul_into(acc: dict, a: dict, b: dict, c: int) -> None:
    """acc += c * a * b on {exponent: int} dictionaries: exponents add and
    numerators multiply, and the entries that cancel are dropped."""
    if not c:
        return
    b = b.items()
    for ea, ca in a.items():
        ca *= c
        for eb, cb in b:
            ex = tuple(map(add, ea, eb))
            s = acc.get(ex, 0) + ca * cb
            if s:
                acc[ex] = s
            else:
                del acc[ex]


def over_lcm(values) -> tuple:
    """(numerators, den): the rationals `values` (a sequence of ints and
    Fractions) as ints over their least common denominator, in order."""
    # lowest terms already: a prime of the lcm divides no numerator of a
    # reduced fraction with the largest power of it in its denominator
    den = lcm(*[c.denominator for c in values if type(c) is not int])
    return [c * den if type(c) is int else c.numerator * (den // c.denominator) for c in values], den


def _scaled(nvars: int, terms: dict, checked: bool) -> tuple:
    """(num, den) in lowest terms of a {exponent: rational} dictionary, whose
    values may be ints, Fractions or anything Fraction reads; values of one
    exponent add up.  `checked` skips the exponent validation."""
    values = {}
    for ex, c in terms.items():
        if not checked:
            ex = tuple([int(e) for e in ex])
            if len(ex) != nvars or min(ex, default=0) < 0:
                raise DimensionError(f"bad exponent tuple {ex} for {nvars} variables")
        if type(c) is not int:
            c = Fraction(c)
        if c:
            values[ex] = values.get(ex, 0) + c
    nums, den = over_lcm(values.values())
    return {ex: v for ex, v in zip(values, nums) if v}, den


def var_name(nvars: int, index: int) -> str:
    """Coordinate name for variable `index`: x1..xn, y1..yn, z."""
    n = (nvars - 1) // 2
    if index < n:
        return f"x{index + 1}"
    if index < 2 * n:
        return f"y{index - n + 1}"
    return "z"


class Poly:
    """Immutable exact polynomial in ``nvars`` coordinates: int numerators
    `num` over the positive denominator `den`, in lowest terms."""

    __slots__ = ("nvars", "num", "den")

    def __init__(self, nvars: int, terms=None, _canonical=False):
        """The polynomial with the rational coefficients `terms`
        ({exponent: rational}); `_canonical` vouches for the exponents."""
        self.nvars = nvars
        self.num, self.den = _scaled(nvars, terms, _canonical) if terms else ({}, 1)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return wrap(nvars, {}, 1)

    @classmethod
    def constant(cls, nvars: int, value) -> "Poly":
        v, den = _ratio(value)
        return wrap(nvars, {(0,) * nvars: v} if v else {}, den)

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return wrap(nvars, {(0,) * nvars: 1}, 1)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        if not 0 <= index < nvars:
            raise DimensionError(f"variable index {index} out of range for {nvars} variables")
        ex = [0] * nvars
        ex[index] = 1
        return wrap(nvars, {tuple(ex): 1}, 1)

    def _check(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise DimensionError(f"mixed coordinate counts: {self.nvars} vs {other.nvars}")

    # -- queries -----------------------------------------------------------

    @property
    def terms(self):
        """Read-only {exponent: coefficient} view, built on demand; each
        coefficient in lowest terms, an int when integral, else a Fraction."""
        den = self.den
        if den == 1:
            return MappingProxyType(self.num)
        return MappingProxyType(
            {ex: Fraction(v, den) if v % den else v // den for ex, v in self.num.items()}
        )

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return not self.num or (len(self.num) == 1 and (0,) * self.nvars in self.num)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self.num[(0,) * self.nvars], self.den)

    # -- arithmetic --------------------------------------------------------

    def _linear(self, other: "Poly", cn: int, cd: int) -> "Poly":
        """self + (cn / cd) * other, over the lcm of the two denominators."""
        self._check(other)
        da, db = self.den, other.den * cd
        den = lcm(da, db)
        out = {}
        add_into(out, self.num, den // da)
        add_into(out, other.num, cn * (den // db))
        return wrap(self.nvars, out, den)

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self._linear(other, 1, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self._linear(other, -1, 1)

    def __neg__(self) -> "Poly":
        return wrap(self.nvars, {ex: -v for ex, v in self.num.items()}, self.den)

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        out = {}
        mul_into(out, self.num, other.num, 1)
        return wrap(self.nvars, out, self.den * other.den)

    def scale(self, c) -> "Poly":
        cn, cd = _ratio(c)
        if not cn:
            return wrap(self.nvars, {}, 1)
        return wrap(self.nvars, {ex: cn * v for ex, v in self.num.items()}, self.den * cd)

    def add_scaled(self, other: "Poly", c) -> "Poly":
        """self + c*other."""
        return self._linear(other, *_ratio(c))

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        out = Poly.one(self.nvars)
        base = self
        while k:  # square and multiply
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def deriv(self, index: int) -> "Poly":
        """Exact partial derivative with respect to coordinate `index`."""
        if not 0 <= index < self.nvars:
            raise DimensionError(f"derivative index {index} out of range for {self.nvars} variables")
        out = {}
        for ex, c in self.num.items():
            e = ex[index]
            if e:
                nex = ex[:index] + (e - 1,) + ex[index + 1 :]
                s = out.get(nex, 0) + c * e
                if s:
                    out[nex] = s
                else:
                    del out[nex]
        return wrap(self.nvars, out, self.den)

    # -- equality / display ------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.num.items())))

    def to_text(self) -> str:
        """Canonical text: monomials in descending lexicographic exponent
        order, `**` for powers, `*` between factors, e.g. ``3/2*x1**2*y1``."""
        if not self.num:
            return "0"
        den = self.den
        pieces = []
        for ex in sorted(self.num, reverse=True):
            v = self.num[ex]
            factors = []
            for i, e in enumerate(ex):
                if e == 1:
                    factors.append(var_name(self.nvars, i))
                elif e > 1:
                    factors.append(f"{var_name(self.nvars, i)}**{e}")
            if not factors:
                body = coefficient_text(abs(v), den)
            elif abs(v) == den:
                body = "*".join(factors)
            else:
                body = "*".join([coefficient_text(abs(v), den)] + factors)
            pieces.append((v < 0, body))
        out = []
        for i, (negative, body) in enumerate(pieces):
            if i == 0:
                out.append(("-" if negative else "") + body)
            else:
                out.append((" - " if negative else " + ") + body)
        return "".join(out)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {self.to_text()!r})"
