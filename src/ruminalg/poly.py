"""Exact multivariate polynomials over the rationals, as scaled integers.

These are the coefficient functions of all differential forms in the package:
polynomials in the coordinates x_1..x_n, y_1..y_n, z of the Heisenberg group
H^{2n+1}, with exact rational coefficients.  All identities checked
downstream are exact ring identities, so no floating point appears anywhere.

A polynomial is stored as integer numerators over one positive denominator:
`num` maps packed exponents (below) to nonzero ints, and `den` is a positive
int.  The pair is in lowest terms, gcd(den, every numerator) = 1, and the
zero polynomial is the empty map over den 1, so each value has exactly one
representation and equality and hashing use (nvars, den, num).  Every
arithmetic result is built by `wrap`, which divides by gcd(den, content) once
per result; an integral polynomial has den 1 and pays no gcd at all.  So
`+`, `-`, `*`, `scale` and `deriv` multiply and add ints only, after bringing
two operands to the lcm of their dens.  Values are immutable after
construction and all operations are pure, so sharing across threads is safe.

A monomial's exponent vector (length nvars = 2n+1, coordinate order
x_1..x_n, y_1..y_n, z) is packed into one int, Kronecker style: each
coordinate owns a FIELD-bit field, coordinate i at bit FIELD * (nvars-1-i),
so x_1 is the most significant field and z the least.  Int order of keys is
then the lexicographic order of the tuples, the constant monomial is key 0,
a monomial product is one int addition and a field is read as
`(key >> shift) & FIELD_MASK`.  `pack` and `unpack` convert through a
big-endian `struct` of nvars signed 32-bit fields, built once per
coordinate count by `layout`, and `variable_key` gives the key of one
coordinate to a power.  Every stored exponent is
at most MAX_EXPONENT = 2**31 - 1, so the top bit of each field (the guard,
`layout(nvars)[1]`) is clear in every key and the sum of two keys never
carries from one field into the next.  A sum that sets a guard bit has an
exponent of 2**31 or more: `mul_into` refuses such a product with
DomainError, and so do the y_i d/dz move of `forms.exterior_d`, `Poly(...)`,
`variable_key` and `Poly.__pow__` for an exponent they would make or are
given.
`Poly.__pow__` also refuses, before it powers, a power whose coefficients
could have more than MAX_POWER_BITS bits, or whose term count times
coefficient bits could pass MAX_POWER_WORK.  It expands the power by the
multinomial theorem in one walk that adds each counted term once, so that
budget bounds the work of the power, not only its output.

This module holds the integer arithmetic of the whole package, on numerator
maps {packed exponent: int}: `add_into` (acc += c * terms), `mul_into`
(acc += c * a * b) and `power_into` (acc += a**k) accumulate in place and
drop what cancels, and `over_lcm` brings rationals to their least common
denominator.  `Poly` is built on
them, and so are `forms.wedge`, the dtheta term of `forms.exterior_d` and
gamma's pair operators and Horner sum in `rumin`, which run on whole blocks
of numerators.  `deriv` keeps its own loop on unpacked tuples (unpack, slice,
pack), sharing no field arithmetic with `exterior_d`: the tests check
`exterior_d` against it as an independent reference.

`terms` is the read-only {exponent tuple: coefficient} view for readers of
values, built on demand: each coefficient in lowest terms, an `int` when
integral and a `fractions.Fraction` otherwise.  No arithmetic reads it.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cache, reduce
from math import comb, gcd, lcm
from operator import or_
from struct import Struct
from struct import error as StructError
from types import MappingProxyType

from .errors import DimensionError, DomainError

_new = object.__new__

FIELD = 32  # bits per coordinate in a packed exponent
FIELD_MASK = (1 << FIELD) - 1
MAX_EXPONENT = (1 << (FIELD - 1)) - 1  # the largest exponent a field may hold
# The most bits a coefficient of a power may have, estimated before powering:
# far above the 4,300 digits (about 14,300 bits) a coefficient may print with.
MAX_POWER_BITS = 100_000
# The most term-bits a power may have, estimated before powering as its term
# count times its coefficient bits: twice the estimate of (1+x1)**999.
MAX_POWER_WORK = 2_000_000


@cache
def layout(nvars: int) -> tuple:
    """(codec, guard) of packed exponents in nvars coordinates: the
    big-endian Struct of nvars signed 32-bit fields, and the int with the
    top bit of every field set."""
    return Struct(f">{nvars}i"), int.from_bytes(b"\x80\0\0\0" * nvars, "big")


def pack(nvars: int, ex) -> int:
    """The exponent tuple ex (nvars ints, each 0..MAX_EXPONENT) as one int.
    A wrong length or a negative entry is a DimensionError, an entry above
    MAX_EXPONENT a DomainError."""
    codec, guard = layout(nvars)
    try:
        key = int.from_bytes(codec.pack(*ex), "big")
    except StructError:
        if len(ex) == nvars and all(type(e) is int for e in ex) and min(ex) >= 0:
            raise exponent_error() from None
        raise DimensionError(f"bad exponent tuple {tuple(ex)} for {nvars} variables") from None
    if key & guard:  # a negative entry, in two's complement
        raise DimensionError(f"bad exponent tuple {tuple(ex)} for {nvars} variables")
    return key


def unpack(nvars: int, key: int) -> tuple:
    """The exponent tuple of the packed key."""
    return layout(nvars)[0].unpack(key.to_bytes(4 * nvars, "big"))


def exponent_error() -> DomainError:
    return DomainError(f"an exponent above the limit of {MAX_EXPONENT}")


def check_power(k: int, top: int) -> None:
    """DomainError when the power k of a polynomial whose largest exponent
    is top has an exponent above MAX_EXPONENT."""
    if top * k > MAX_EXPONENT:
        raise DomainError(f"power {k} has an exponent {top * k}, above the limit of {MAX_EXPONENT}")


def variable_key(nvars: int, index: int, k: int = 1) -> int:
    """The packed exponent of coordinate `index` to the power k."""
    if not 0 <= index < nvars:
        raise DimensionError(f"variable index {index} out of range for {nvars} variables")
    check_power(k, 1)
    return k << FIELD * (nvars - 1 - index)


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


def signed_join(pieces) -> str:
    """The canonical text of a sum of (negative, body) `pieces`, at least one:
    "-" before a negative first body, " - " or " + " before each later one."""
    return signed_text("".join((" - " if negative else " + ") + body for negative, body in pieces))


def signed_text(text: str) -> str:
    """The canonical text of a sum written with " - " or " + " before every
    term: the first term's sign becomes "-" or nothing."""
    return "-" + text[3:] if text.startswith(" - ") else text[3:]


def read_int(digits: str) -> int:
    """The int of the text `digits`.  What `int` refuses, such as more digits
    than Python converts, is a one-line ValueError that shows at most 20 of
    them: "cannot read number 12345678901234567890... (5000 digits)"."""
    try:
        return int(digits)
    except ValueError:
        shown = digits if len(digits) <= 20 else f"{digits[:20]}... ({len(digits)} digits)"
        raise ValueError(f"cannot read number {shown}") from None


def add_into(acc: dict, terms: dict, c: int) -> None:
    """acc += c * terms on {packed exponent: int} dictionaries, dropping the
    entries that cancel; c = 0 does nothing.  An empty acc is filled with a
    copy, never with `terms` itself, which other values may share."""
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
    """acc += c * a * b on {packed exponent: int} dictionaries: exponents
    add and numerators multiply, and the entries that cancel are dropped.  A
    product with an exponent above MAX_EXPONENT is a DomainError, raised
    before acc changes.

    Each field of a key is at most the same field of the OR of its
    dictionary's keys, so no product has a guard bit set when the sum of the
    two ORs has none; only when it does is each product checked."""
    if not c or not a or not b:
        return
    top = reduce(or_, a) + reduce(or_, b)
    guard = layout(-(-top.bit_length() // FIELD))[1]
    if top & guard and any((ea + eb) & guard for ea in a for eb in b):
        raise exponent_error()
    b = b.items()
    for ea, ca in a.items():
        ca *= c
        for eb, cb in b:
            ex = ea + eb
            s = acc.get(ex, 0) + ca * cb
            if s:
                acc[ex] = s
            else:
                del acc[ex]


def power_into(acc: dict, a: dict, k: int) -> None:
    """acc += a**k on {packed exponent: int} dictionaries, for k >= 1 and a
    of m >= 2 terms (e_i, c_i), by the multinomial theorem: one walk over
    the compositions j_1 + ... + j_m = k, each adding
    k!/(j_1! ... j_m!) * c_1**j_1 ... c_m**j_m at the key j_1 e_1 + ... +
    j_m e_m.  Compositions that collide add up and the entries that cancel
    are dropped.  The caller checks the exponents: no field of a key may
    pass MAX_EXPONENT.

    A node (i, r, key, coef) of the walk fixes the multiplicities of the
    terms before i and leaves r of k; key and coef hold their sum and their
    product of binomials comb(r', j) * c**j.  The node adds the one
    composition that puts all r on the last term, and its children put
    j >= 1 on a term t in i..m-2 and nothing on the terms between, with
    comb(r, j) updated from comb(r, j - 1) as j rises.  So the walk visits
    each composition exactly once, and the nodes wait on a list: its depth
    does not grow with m."""
    items = list(a.items())
    last = len(items) - 1
    e_last, c_last = items[last]
    tail = [1]  # c_last**r for r = 0..k
    for _ in range(k):
        tail.append(tail[-1] * c_last)
    nodes = [(0, k, 0, 1)]
    while nodes:
        i, r, key, coef = nodes.pop()
        ex = key + r * e_last
        s = acc.get(ex, 0) + coef * tail[r]
        if s:
            acc[ex] = s
        else:
            del acc[ex]
        if not r:
            continue
        for t in range(i, last):
            e, c = items[t]
            ex, v = key, coef
            for j in range(1, r + 1):  # j of the r on term t
                ex += e
                v = v * c * (r - j + 1) // j  # coef * comb(r, j) * c**j
                nodes.append((t + 1, r - j, ex, v))


def over_lcm(values) -> tuple:
    """(numerators, den): the rationals `values` (a sequence of ints and
    Fractions) as ints over their least common denominator, in order."""
    # lowest terms already: a prime of the lcm divides no numerator of a
    # reduced fraction with the largest power of it in its denominator
    den = lcm(*[c.denominator for c in values if type(c) is not int])
    return [c * den if type(c) is int else c.numerator * (den // c.denominator) for c in values], den


def _scaled(nvars: int, terms: dict) -> tuple:
    """(num, den) in lowest terms of a {exponent tuple: rational} dictionary,
    whose values may be ints, Fractions or anything Fraction reads; values of
    one exponent add up."""
    values = {}
    for ex, c in terms.items():
        ex = pack(nvars, ex)
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


@cache
def field_names(nvars: int) -> tuple:
    """The coordinate names of the fields of a packed key, least significant
    first: field f holds coordinate nvars - 1 - f."""
    return tuple(var_name(nvars, nvars - 1 - field) for field in range(nvars))


class Poly:
    """Immutable exact polynomial in ``nvars`` coordinates: int numerators
    `num` over the positive denominator `den`, in lowest terms."""

    __slots__ = ("nvars", "num", "den")

    def __init__(self, nvars: int, terms=None):
        """The polynomial with the rational coefficients `terms`
        ({exponent: rational})."""
        self.nvars = nvars
        self.num, self.den = _scaled(nvars, terms) if terms else ({}, 1)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return wrap(nvars, {}, 1)

    @classmethod
    def constant(cls, nvars: int, value) -> "Poly":
        v, den = _ratio(value)
        return wrap(nvars, {0: v} if v else {}, den)

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return wrap(nvars, {0: 1}, 1)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        return wrap(nvars, {variable_key(nvars, index): 1}, 1)

    def _check(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise DimensionError(f"mixed coordinate counts: {self.nvars} vs {other.nvars}")

    # -- queries -----------------------------------------------------------

    @property
    def terms(self):
        """Read-only {exponent tuple: coefficient} view, built on demand; each
        coefficient in lowest terms, an int when integral, else a Fraction."""
        den, nvars = self.den, self.nvars
        return MappingProxyType({
            unpack(nvars, ex): v if den == 1 else Fraction(v, den) if v % den else v // den
            for ex, v in self.num.items()
        })

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return not self.num or (len(self.num) == 1 and 0 in self.num)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self.num[0], self.den)

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
        """self**k by the multinomial theorem (`power_into`): 1 for k = 0,
        even for the zero polynomial, and c**k at once for one term c.
        DomainError before the power when an exponent of it would be above
        MAX_EXPONENT, or when a coefficient could have more than
        MAX_POWER_BITS bits: a numerator of the power is at most (m*c)**k
        for m terms and largest numerator c, and its denominator divides
        den**k, so k times the larger of ceil(log2 c) + ceil(log2 m) and
        ceil(log2 den) bounds its bits.  A coefficient of 1 or -1 costs
        none.  The power has at most comb(k + m - 1, m - 1) terms, one per
        composition j_1 + ... + j_m = k, and DomainError also comes first
        when that count times the bits is above MAX_POWER_WORK.  The walk
        adds exactly those compositions, each once, so the budget bounds
        the work of the power itself."""
        if k < 0:
            raise ValueError("negative polynomial power")
        check_power(k, max([max(unpack(self.nvars, ex)) for ex in self.num], default=0))
        if self.num:
            m, c = len(self.num), max(map(abs, self.num.values()))
            size = max((c - 1).bit_length() + (m - 1).bit_length(), (self.den - 1).bit_length())
            if k * size > MAX_POWER_BITS:
                raise DomainError(
                    f"power {k} may have a coefficient of {k * size} bits, above the limit of {MAX_POWER_BITS}"
                )
            terms = comb(k + m - 1, m - 1)  # k <= MAX_POWER_BITS here unless size is 0
            if terms * k * size > MAX_POWER_WORK:
                raise DomainError(
                    f"power {k} may have {terms} terms of {k * size} bits, "
                    f"above the limit of {MAX_POWER_WORK} term-bits"
                )
        if not k:
            return Poly.one(self.nvars)
        if len(self.num) > 1:
            out = {}
            power_into(out, self.num, k)
        else:
            out = {ex * k: v**k for ex, v in self.num.items()}
        return wrap(self.nvars, out, self.den**k)

    def deriv(self, index: int) -> "Poly":
        """Exact partial derivative with respect to coordinate `index`, on
        unpacked exponent tuples."""
        nvars = self.nvars
        if not 0 <= index < nvars:
            raise DimensionError(f"derivative index {index} out of range for {nvars} variables")
        out = {}
        for ex, c in self.num.items():
            ex = unpack(nvars, ex)
            e = ex[index]
            if e:
                # lowering one exponent maps distinct monomials apart: no sums
                out[pack(nvars, ex[:index] + (e - 1,) + ex[index + 1 :])] = c * e
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
        order (descending key order), `**` for powers, `*` between factors,
        e.g. ``3/2*x1**2*y1``.  A key's nonzero fields are read from its
        most significant set bit down, so a monomial costs its number of
        coordinates, not nvars."""
        if not self.num:
            return "0"
        den, names = self.den, field_names(self.nvars)
        out = []
        for ex, v in sorted(self.num.items(), reverse=True):
            out.append(" - " if v < 0 else " + ")
            star = ""
            if not ex or abs(v) != den:  # a coefficient other than 1 or -1
                out.append(coefficient_text(abs(v), den))
                star = "*"
            while ex:
                field = (ex.bit_length() - 1) // FIELD
                e = ex >> FIELD * field  # the top nonzero field: nothing above it
                ex ^= e << FIELD * field
                out.append(star + names[field] if e == 1 else f"{star}{names[field]}**{e}")
                star = "*"
        return signed_text("".join(out))

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {self.to_text()!r})"
