"""Exact multivariate polynomials over the rationals.

These are the coefficient functions of all differential forms in the package:
polynomials in the coordinates x_1..x_n, y_1..y_n, z of the Heisenberg group
H^{2n+1}, with exact rational coefficients.  All identities checked
downstream are exact ring identities, so no floating point appears anywhere.

A polynomial is canonically a map from exponent tuples (length 2n+1, entries
>= 0, coordinate order x_1..x_n, y_1..y_n, z) to nonzero rationals; the zero
polynomial is the empty map.  A stored coefficient is a Python `int` when it
is integral and a `fractions.Fraction` with denominator > 1 otherwise (see
`exact`), so the common integral case pays no gcd.  Since
``Fraction(2) == 2`` and ``hash(Fraction(2)) == hash(2)``, the term map
compares and hashes like the same map with all-`Fraction` values.  Values are
immutable after construction and all operations are pure, so sharing across
threads is safe.

The arithmetic works on raw term dictionaries (exponent tuple -> nonzero
coefficient, zero never stored); `forms.wedge` and `forms.exterior_d` build
such dictionaries themselves and wrap them as `Poly` once.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import DimensionError


def exact(c):
    """The stored form of the rational c: an int when it is integral, else a
    Fraction with denominator > 1."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def exact_terms(terms: dict) -> dict:
    """Make every value of a term dictionary `exact`, in place; arithmetic on
    Fractions can land on integers, arithmetic on ints stays integral."""
    for ex, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[ex] = c.numerator
    return terms


def _add_terms(a, b):
    """a + b on term dictionaries."""
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for ex, c in b.items():
        s = out.get(ex, 0) + c
        if s:
            out[ex] = s
        elif ex in out:
            del out[ex]
    return out


def _add_scaled_terms(a, b, c):
    """a + c*b on term dictionaries, without an intermediate scaled copy."""
    if not c or not b:
        return dict(a)
    out = dict(a)
    for ex, v in b.items():
        s = out.get(ex, 0) + c * v
        if s:
            out[ex] = s
        elif ex in out:
            del out[ex]
    return out


def _neg_terms(a):
    return {ex: -c for ex, c in a.items()}


def _mul_terms(a, b):
    """a * b on term dictionaries: exponents add, coefficients multiply."""
    if not a or not b:
        return {}
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            ex = tuple(map(add, ea, eb))
            s = out.get(ex, 0) + ca * cb
            if s:
                out[ex] = s
            elif ex in out:
                del out[ex]
    return out


def var_name(nvars: int, index: int) -> str:
    """Coordinate name for variable `index`: x1..xn, y1..yn, z."""
    n = (nvars - 1) // 2
    if index < n:
        return f"x{index + 1}"
    if index < 2 * n:
        return f"y{index - n + 1}"
    return "z"


class Poly:
    """Immutable exact polynomial in ``nvars`` coordinates."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None, _canonical=False):
        self.nvars = nvars
        if terms is None:
            self.terms = {}
        elif _canonical:
            self.terms = terms
        else:
            clean = {}
            for ex, c in terms.items():
                ex = tuple(int(e) for e in ex)
                if len(ex) != nvars or any(e < 0 for e in ex):
                    raise DimensionError(f"bad exponent tuple {ex} for {nvars} variables")
                c = exact(c)
                if c:
                    clean[ex] = clean.get(ex, 0) + c
            self.terms = exact_terms({ex: c for ex, c in clean.items() if c})

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, {}, _canonical=True)

    @classmethod
    def constant(cls, nvars: int, value) -> "Poly":
        c = exact(value)
        if not c:
            return cls.zero(nvars)
        return cls(nvars, {(0,) * nvars: c}, _canonical=True)

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        if not 0 <= index < nvars:
            raise DimensionError(f"variable index {index} out of range for {nvars} variables")
        ex = [0] * nvars
        ex[index] = 1
        return cls(nvars, {tuple(ex): 1}, _canonical=True)

    def _wrap(self, terms) -> "Poly":
        return Poly(self.nvars, exact_terms(terms), _canonical=True)

    def _check(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise DimensionError(f"mixed coordinate counts: {self.nvars} vs {other.nvars}")

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0,) * self.nvars in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self.terms[(0,) * self.nvars])

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(ex) for ex in self.terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        return self._wrap(_add_terms(self.terms, other.terms))

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        return self._wrap(_add_scaled_terms(self.terms, other.terms, -1))

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, _neg_terms(self.terms), _canonical=True)

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        return self._wrap(_mul_terms(self.terms, other.terms))

    def scale(self, c) -> "Poly":
        c = exact(c)
        if not c:
            return self._wrap({})
        return self._wrap({ex: c * v for ex, v in self.terms.items()})

    def add_scaled(self, other: "Poly", c) -> "Poly":
        """self + c*other."""
        self._check(other)
        return self._wrap(_add_scaled_terms(self.terms, other.terms, exact(c)))

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
        for ex, c in self.terms.items():
            e = ex[index]
            if e:
                nex = ex[:index] + (e - 1,) + ex[index + 1 :]
                s = out.get(nex, 0) + c * e
                if s:
                    out[nex] = s
                elif nex in out:
                    del out[nex]
        return self._wrap(out)

    # -- equality / display ------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def to_text(self) -> str:
        """Canonical text: monomials in descending lexicographic exponent
        order, `**` for powers, `*` between factors, e.g. ``3/2*x1**2*y1``."""
        if not self.terms:
            return "0"
        pieces = []
        for ex in sorted(self.terms, reverse=True):
            c = self.terms[ex]
            factors = []
            for i, e in enumerate(ex):
                if e == 1:
                    factors.append(var_name(self.nvars, i))
                elif e > 1:
                    factors.append(f"{var_name(self.nvars, i)}**{e}")
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            pieces.append((c < 0, body))
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
