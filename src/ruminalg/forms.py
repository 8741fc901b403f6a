"""Polynomial differential forms on the Heisenberg group H^{2n+1}.

Coordinates are x_1..x_n, y_1..y_n, z and the contact form is
theta = dz - sum_i y_i dx_i, so theta ^ (dtheta)^n never vanishes.  Every
form is expressed in the adapted coframe

    e^0 = theta,   e^i = dx_i,   e^{n+i} = dy_i        (i = 1..n),

in which dtheta = sum_i e^i ^ e^{n+i} has constant integer coefficients.
Dually, the frame vector fields are the Reeb field T = d/dz and the
horizontal fields X_i = d/dx_i + y_i d/dz, Y_i = d/dy_i.  The exterior
derivative applies them to the coefficients directly: on f e^I it adds
(Tf) e^0 ^ e^I, (X_i f) e^i ^ e^I and (Y_i f) e^{n+i} ^ e^I, and, when e^0
divides e^I, f dtheta ^ e^{I minus 0}, monomial by monomial into one
accumulator of coefficient dictionaries; `wedge` multiplies coefficient
pairs into the same kind of accumulator, skipping the pairs of coframe
monomials whose index bitmasks meet.

Denominators are cleared on the way in and restored once on the way out.
A coefficient is a `poly.Poly`, int numerators over one denominator; `_blocks`
brings the coefficients of a form to the lcm L of their denominators (free
when every coefficient is integral, as every random input is), so the
accumulators (`Blocks`) hold int numerators over one denominator: L for
`exterior_d`, the product of the two operands' for `wedge`.  Only ints are
multiplied and added, by `poly.mul_into` (one call per pair of disjoint
blocks in `wedge`) and `poly.add_into` (the dtheta term of `exterior_d`);
only exterior_d's frame derivatives keep a loop of their own.  That loop
works on packed exponents (`poly`): a block's used coordinates are the
nonzero fields of the OR of its keys, and the derivative along coordinate p
reads the field `(key >> s) & FIELD_MASK` at its offset s and moves the key
by one precomputed step, -(1 << s), plus 1 << s_q for the y_q d/dz part of
X_q.  That part is the one move that raises an exponent: a block with a
monomial in z whose y_q exponent is MAX_EXPONENT is refused with DomainError
before it is differentiated.  The dtheta term, like gamma's L and Lambda,
moves coframe pairs by bisection (`pair_moves`); `merge_indices` serves
`wedge` alone.
`_form_from_accumulator` wraps each output coefficient once, dividing by the
gcd of its denominator and content.  User input written in coordinate
differentials is normalized through dz = e^0 + sum_i y_i e^i.

Listing a coframe basis is bounded: a degree with more than MAX_MONOMIALS
monomials is a DomainError before any is built.

Forms are homogeneous: a Form stores a single degree and a map from strictly
increasing coframe index tuples to nonzero polynomial coefficients.  The zero
form of any degree is the empty map (degrees above the manifold dimension are
allowed for zero only, so wedges may annotate their honest target degree).
All values are immutable and hashable, and all operations pure.

A form keeps its d: the first `exterior_d(w)` stores the value on w, and
later calls return it, as `rumin.gamma` keeps gamma(w).  Neither enters ==
or the hash.  `rumin.pi` reads a kept d but keeps none
(`exterior_d(w, keep=False)`) unless its value is w itself, because the
products a `RuminElement` keeps would otherwise each carry their
derivatives.  The unscaled gamma's constants are kept on the `ContactModel`
(`_gamma_weights` once, `_gamma_cj` per degree); the rescaled gamma
computes its own on every call.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from itertools import combinations, compress
from math import factorial, lcm
from operator import add, or_, sub

from .errors import DimensionError, DomainError
from .poly import (
    FIELD,
    FIELD_MASK,
    MAX_EXPONENT,
    Poly,
    add_into,
    coefficient_text,
    exact,
    exponent_error,
    mul_into,
    unpack,
    wrap,
)
from .prng import SplitMix64

MAX_MONOMIALS = 10**5  # the most coframe monomials one basis query lists


def _check_count(m: int, k: int, what: str) -> None:
    """Raise DomainError when C(m, k), the number of `what`, exceeds
    MAX_MONOMIALS.  The count is built one factor at a time and stops there,
    so a huge count costs no more than a small one."""
    count = 1
    for i in range(min(k, m - k)):
        count = count * (m - i) // (i + 1)  # C(m, i + 1)
        if count > MAX_MONOMIALS:
            raise DomainError(f"{what}: C({m}, {k}) of them, more than {MAX_MONOMIALS} to list")


class ContactModel:
    """The Heisenberg model H^{2n+1} with its adapted coframe."""

    def __init__(self, n: int):
        if n < 1:
            raise DimensionError(f"n must be positive, got {n}")
        self.n = n
        self.dim = 2 * n + 1          # manifold dimension, also top form degree
        self.nvars = 2 * n + 1        # polynomial coordinates x_1..x_n, y_1..y_n, z
        self._dtheta_powers: dict = {}
        self._monomial_cache: dict = {}
        # rumin's unscaled gamma constants: the pair weights and theta's
        # scalar once, the c_j over their lcm per degree
        self._gamma_weights = None
        self._gamma_cj: dict = {}

    def __eq__(self, other) -> bool:
        return isinstance(other, ContactModel) and self.n == other.n

    def __hash__(self):
        return hash(("ContactModel", self.n))

    def __repr__(self) -> str:
        return f"ContactModel(n={self.n})"

    def coframe_label(self, i: int) -> str:
        if i == 0:
            return "theta"
        if 1 <= i <= self.n:
            return f"dx{i}"
        if self.n < i <= 2 * self.n:
            return f"dy{i - self.n}"
        raise DimensionError(f"coframe index {i} out of range for n={self.n}")

    def generator(self, i: int) -> "Form":
        """The coframe one-form e^i."""
        self.coframe_label(i)  # range check
        return Form(self, 1, {(i,): Poly.one(self.nvars)})

    def theta(self) -> "Form":
        return self.generator(0)

    def dtheta(self) -> "Form":
        terms = {
            (i, self.n + i): Poly.one(self.nvars)
            for i in range(1, self.n + 1)
        }
        return Form(self, 2, terms)

    def dtheta_power(self, k: int) -> "Form":
        """(dtheta)^k, cached; (dtheta)^0 is the constant 1, and (dtheta)^k
        is the zero 2k-form once k > n."""
        if k < 0:
            raise DomainError(f"negative dtheta power {k}")
        if k > self.n:
            return Form.zero(self, 2 * k)
        if k not in self._dtheta_powers:
            if k == 0:
                val = Form.constant(self, Poly.one(self.nvars))
            else:
                val = wedge(self.dtheta_power(k - 1), self.dtheta())
            self._dtheta_powers[k] = val
        return self._dtheta_powers[k]

    def volume(self) -> "Form":
        """theta ^ (dtheta)^n = n! (-1)^(n(n-1)/2) e^0 ^ ... ^ e^{2n}, nonzero by
        the contact condition: sorting the n pairs e^i ^ e^{n+i} takes
        n(n-1)/2 transpositions."""
        c = factorial(self.n) * (-1) ** (self.n * (self.n - 1) // 2)
        return Form.monomial(self, range(self.dim), Poly.constant(self.nvars, c))

    def coframe_monomials(self, degree: int):
        """All strictly increasing index tuples of the given cardinality,
        in lexicographic order; DomainError when there are more than
        MAX_MONOMIALS."""
        key = ("all", degree)
        if key not in self._monomial_cache:
            if 0 <= degree <= self.dim:
                _check_count(self.dim, degree, f"coframe monomials of degree {degree} at n={self.n}")
                self._monomial_cache[key] = list(combinations(range(self.dim), degree))
            else:
                self._monomial_cache[key] = []
        return self._monomial_cache[key]

    def vertical_monomials(self, degree: int):
        """Index tuples containing 0, i.e. the coframe basis of forms
        divisible by theta; DomainError when there are more than
        MAX_MONOMIALS."""
        key = ("vert", degree)
        if key not in self._monomial_cache:
            if 1 <= degree <= self.dim:
                what = f"vertical monomials of degree {degree} at n={self.n}"
                _check_count(self.dim - 1, degree - 1, what)
                self._monomial_cache[key] = [
                    (0,) + rest for rest in combinations(range(1, self.dim), degree - 1)
                ]
            else:
                self._monomial_cache[key] = []
        return self._monomial_cache[key]


class Form:
    """Homogeneous differential form with polynomial coefficients."""

    # _hash, _d and _gamma are left unset by __init__: the first __hash__
    # call fills _hash, the first exterior_d(self) fills _d and the first
    # unscaled rumin.gamma(self) fills _gamma with its value, which lives as
    # long as the form; none of them enters == or hash
    __slots__ = ("model", "degree", "terms", "_hash", "_d", "_gamma")

    def __init__(self, model: ContactModel, degree: int, terms=None, _canonical=False):
        self.model = model
        self.degree = degree
        if terms is None:
            self.terms = {}
        elif _canonical:
            self.terms = terms
        else:
            clean = {}
            for idx, p in terms.items():
                idx = tuple(idx)
                if len(idx) != degree:
                    raise DimensionError(f"index {idx} has wrong cardinality for degree {degree}")
                if any(not 0 <= i < model.dim for i in idx) or list(idx) != sorted(set(idx)):
                    raise DimensionError(f"bad coframe index tuple {idx}")
                if not isinstance(p, Poly):
                    p = Poly.constant(model.nvars, p)
                if p.nvars != model.nvars:
                    raise DimensionError("coefficient over wrong coordinate count")
                if not p.is_zero():
                    clean[idx] = p
            self.terms = clean
        if self.terms and not 0 <= degree <= model.dim:
            raise DimensionError(f"nonzero form of impossible degree {degree}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, model: ContactModel, degree: int) -> "Form":
        return cls(model, degree, {}, _canonical=True)

    @classmethod
    def constant(cls, model: ContactModel, coefficient: Poly) -> "Form":
        """Degree-zero form with the given polynomial coefficient."""
        if coefficient.is_zero():
            return cls.zero(model, 0)
        return cls(model, 0, {(): coefficient}, _canonical=True)

    @classmethod
    def monomial(cls, model: ContactModel, idx, coefficient: Poly) -> "Form":
        return cls(model, len(tuple(idx)), {tuple(idx): coefficient})

    def zero_of_degree(self, degree: int) -> "Form":
        return Form.zero(self.model, degree)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, idx) -> Poly:
        return self.terms.get(tuple(idx), Poly.zero(self.model.nvars))

    def _check(self, other: "Form") -> None:
        if self.model != other.model:
            raise DimensionError("forms over different models")

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "Form") -> "Form":
        return self._combine(other, add)

    def __sub__(self, other: "Form") -> "Form":
        return self._combine(other, sub)

    def _combine(self, other: "Form", op) -> "Form":
        """self + other or self - other (op is operator.add or operator.sub)
        in one pass over other's terms; equal forms subtract to zero after
        one comparison of their terms."""
        if not isinstance(other, Form):
            return NotImplemented
        self._check(other)
        if self.is_zero():
            return other if op is add else -other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise DimensionError(f"adding degrees {self.degree} and {other.degree}")
        if op is sub and self.terms == other.terms:
            return Form.zero(self.model, self.degree)
        out = dict(self.terms)
        for idx, p in other.terms.items():
            if idx in out:
                s = op(out[idx], p)
            else:
                s = p if op is add else -p
            if s.is_zero():
                out.pop(idx, None)
            else:
                out[idx] = s
        return Form(self.model, self.degree, out, _canonical=True)

    def __neg__(self) -> "Form":
        negated = {idx: -p for idx, p in self.terms.items()}
        return Form(self.model, self.degree, negated, _canonical=True)

    def scale(self, c) -> "Form":
        c = exact(c)
        if not c:
            return Form.zero(self.model, self.degree)
        if c == 1:
            return self
        if c == -1:
            return -self
        return Form(
            self.model,
            self.degree,
            {idx: p.scale(c) for idx, p in self.terms.items()},
            _canonical=True,
        )

    def scale_poly(self, f: Poly) -> "Form":
        if f.is_zero():
            return Form.zero(self.model, self.degree)
        out = {}
        for idx, p in self.terms.items():
            q = p * f
            if not q.is_zero():
                out[idx] = q
        return Form(self.model, self.degree, out, _canonical=True)

    def __eq__(self, other) -> bool:
        # Mathematical equality in the graded algebra: all zero forms agree
        # regardless of their degree annotation.
        if not isinstance(other, Form):
            return NotImplemented
        if self.model != other.model:
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        # Agrees with __eq__: every zero form hashes alike, whatever its
        # degree, and each Poly coefficient has one representation.
        try:
            return self._hash
        except AttributeError:
            shape = (self.degree, frozenset(self.terms.items())) if self.terms else None
            self._hash = hash((self.model.n, shape))
            return self._hash

    # -- display -------------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text, reparseable by the expression grammar: terms sorted
        by coframe index tuple; constant coefficients bare, polynomial ones
        parenthesized; '0' for the zero form."""
        if not self.terms:
            return "0"
        rendered = []
        for idx in sorted(self.terms):
            p = self.terms[idx]
            word = "^".join(self.model.coframe_label(i) for i in idx)
            if p.is_constant():
                c = p.constant_value()
                text = coefficient_text(abs(c.numerator), c.denominator)
                if not word:
                    rendered.append((c < 0, text))
                elif abs(c) == 1:
                    rendered.append((c < 0, word))
                else:
                    rendered.append((c < 0, f"{text} {word}"))
            else:
                body = f"({p.to_text()})"
                rendered.append((False, f"{body} {word}" if word else body))
        out = []
        for i, (negative, body) in enumerate(rendered):
            if i == 0:
                out.append(("-" if negative else "") + body)
            else:
                out.append((" - " if negative else " + ") + body)
        return "".join(out)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Form(n={self.model.n}, deg={self.degree}, {self.to_text()!r})"


# -- algebra operations ------------------------------------------------------


def merge_indices(i, j):
    """Concatenate two strictly increasing index tuples and sort.

    Returns (sign, merged) with sign in {+1, -1}, or (0, ()) when the tuples
    share an index (the wedge of repeated generators vanishes).  The sign is
    the parity of the merge permutation: the number of pairs (a in i, b in j)
    with a > b.
    """
    inversions = 0
    for b in j:
        for a in i:
            if a == b:
                return 0, ()
            if a > b:
                inversions += 1
    merged = tuple(sorted(i + j))
    return (-1 if inversions & 1 else 1), merged


def pair_moves(idx: tuple, n: int, lower: bool = False) -> list:
    """The moves of the coframe pairs (e^i, e^{n+i}) on e^idx, for a sorted
    idx free of e^0: a list of (i, sign, moved).

    Raising (L) puts a pair that idx lacks entirely at the bisection
    positions p1 of i and p2 of n + i, with e^i ^ e^{n+i} ^ e^idx =
    (-1)^(p1+p2) e^moved.  Lowering (Lambda) takes out a pair that idx holds
    at p1 < p2, with e^idx = (-1)^(p1+p2-1) e^i ^ e^{n+i} ^ e^moved.  A pair
    with one member in idx has no move."""
    size = len(idx)
    moves = []
    if lower:
        for p1, i in enumerate(idx):
            if i > n:
                break
            p2 = bisect_left(idx, n + i, p1 + 1)
            if p2 < size and idx[p2] == n + i:
                moves.append((i, 1 if (p1 + p2) & 1 else -1, idx[:p1] + idx[p1 + 1 : p2] + idx[p2 + 1 :]))
    else:
        for i in range(1, n + 1):
            p1 = bisect_left(idx, i)
            if p1 < size and idx[p1] == i:
                continue
            p2 = bisect_left(idx, n + i, p1)
            if p2 < size and idx[p2] == n + i:
                continue
            moves.append((i, -1 if (p1 + p2) & 1 else 1, idx[:p1] + (i,) + idx[p1:p2] + (n + i,) + idx[p2:]))
    return moves


def wedge(a: Form, b: Form) -> Form:
    """Exterior product; graded commutative and associative.

    Both operands are brought to their common denominators, and each product
    of int numerators is multiplied straight into the accumulator of its
    merged index, with the merge sign folded into the left factor."""
    a._check(b)
    degree = a.degree + b.degree
    if a.is_zero() or b.is_zero() or degree > a.model.dim:
        return Form.zero(a.model, degree)
    left, right = _blocks(a.terms), _blocks(b.terms)
    right_items = [(ib, _mask(ib), tb) for ib, tb in right.items()]
    out = Blocks(left.den * right.den)
    for ia, ta in left.items():
        ma = _mask(ia)
        for ib, mb, tb in right_items:
            if ma & mb:  # a shared generator: the product vanishes
                continue
            sign, merged = merge_indices(ia, ib)
            mul_into(out.setdefault(merged, {}), ta, tb, sign)
    return _form_from_accumulator(a.model, degree, out)


def _mask(idx) -> int:
    """The coframe index tuple as a bitmask, bit i for e^i."""
    m = 0
    for i in idx:
        m |= 1 << i
    return m


class Blocks(dict):
    """Coefficient blocks {index tuple: {packed exponent: nonzero int}} over
    one positive denominator `den`: the accumulators of `wedge`,
    `exterior_d` and gamma."""

    __slots__ = ("den",)

    def __init__(self, den: int = 1):
        self.den = den


def _blocks(terms: dict) -> Blocks:
    """The coefficients {index: Poly} over the lcm of their denominators; an
    integral coefficient keeps its numerators as they are (shared, never
    mutated)."""
    den = lcm(*[p.den for p in terms.values()])
    out = Blocks(den)
    for idx, p in terms.items():
        out[idx] = p.num if p.den == den else {ex: v * (den // p.den) for ex, v in p.num.items()}
    return out


def _form_from_accumulator(model: ContactModel, degree: int, out: Blocks) -> Form:
    """Wrap the blocks as a Form of the given degree, each coefficient in
    lowest terms, dropping the indices whose coefficients cancelled."""
    nvars, den = model.nvars, out.den
    terms = {idx: wrap(nvars, t, den) for idx, t in out.items() if t}
    return Form(model, degree, terms, _canonical=True)


def exterior_d(w: Form, keep: bool = True) -> Form:
    """Exterior derivative, kept on w: the first exterior_d(w) stores its
    value in w's `_d` slot, and each later call returns it.  With
    keep=False a kept value is still returned, but a computed one is not
    stored (`rumin.pi` differentiates so, see there).  The zero form's d
    is a new zero, kept like any other d, and never reaches the kernel."""
    out = getattr(w, "_d", None)
    if out is None:
        out = _exterior_d(w) if w.terms else Form.zero(w.model, w.degree + 1)
        if keep:
            w._d = out
    return out


def _exterior_d(w: Form) -> Form:
    """Exterior derivative, computed afresh on the coefficients.

    On a term f e^I this is df ^ e^I plus, when e^0 divides e^I,
    f dtheta ^ e^{I minus 0}: d(e^j) = 0 for j >= 1 and d(e^0) = dtheta since
    theta = dz - sum y_i dx_i.  df = (Tf) e^0 + sum (X_i f) e^i + (Y_i f) e^{n+i}
    with T = d/dz, X_i = d/dx_i + y_i d/dz, Y_i = d/dy_i.  One pass over f's
    monomials adds each frame derivative straight into the accumulator of its
    output index, so cancellations such as X_1(z - x1*y1) = 0 leave nothing
    behind.  e^j ^ e^I puts j at its position p in I, with sign (-1)^p."""
    model = w.model
    n, nvars = model.n, model.nvars
    z = last = 2 * n
    # A frame field is a sum of moves (q, j): the q-th coordinate (1 when q is
    # None) times d/dp, feeding e^j.  Coordinate positions are x_1..x_n,
    # y_1..y_n, z; d/dx_i (p = i - 1) feeds X_i and d/dy_i (p = n + i - 1)
    # feeds Y_i, so both land on e^(p + 1), and d/dz feeds T and every X_i.
    z_moves = [(None, 0)] + [(n + i - 1, i) for i in range(1, n + 1)]
    blocks = _blocks(w.terms)
    out = Blocks(blocks.den)
    for idx, f in blocks.items():
        # moves only for the coordinates f depends on, each as (offset of
        # p's field, step of the key, sign, accumulator of e^j ^ e^I), j not
        # in I
        used = unpack(nvars, reduce(or_, f))
        active = []
        for p in compress(range(nvars), used):
            at = FIELD * (last - p)
            for q, j in z_moves if p == z else ((None, p + 1),):
                pos = bisect_left(idx, j)
                if pos == len(idx) or idx[pos] != j:
                    step = -(1 << at)
                    if q is not None:  # y_q d/dz raises y_q's exponent
                        at_q = FIELD * (last - q)
                        step += 1 << at_q
                        if used[q] == MAX_EXPONENT and any(
                            (ex >> at_q) & FIELD_MASK == MAX_EXPONENT and ex & FIELD_MASK for ex in f
                        ):
                            raise exponent_error()
                    merged = idx[:pos] + (j,) + idx[pos:]
                    active.append((at, step, -1 if pos & 1 else 1, out.setdefault(merged, {})))
        for ex, c in f.items():
            for at, step, sign, acc in active:
                e = (ex >> at) & FIELD_MASK
                if e:
                    key = ex + step
                    s = acc.get(key, 0) + c * (sign * e)
                    if s:
                        acc[key] = s
                    else:
                        del acc[key]
        if idx and idx[0] == 0:
            for _, sign, merged in pair_moves(idx[1:], n):
                add_into(out.setdefault(merged, {}), f, sign)
    return _form_from_accumulator(model, w.degree + 1, out)


def is_vertical(w: Form) -> bool:
    """True when every stored coframe monomial contains e^0, i.e. when
    theta ^ w = 0.  The zero form is vertical."""
    return all(idx and idx[0] == 0 for idx in w.terms)


def lefschetz(w: Form, power: int) -> Form:
    """w ^ (dtheta)^power for vertical w.

    The symplectic-type isomorphism statements hold on vertical forms only,
    so non-vertical input is rejected.
    """
    if not is_vertical(w):
        raise DomainError("lefschetz requires a vertical form")
    return wedge(w, w.model.dtheta_power(power))  # a negative power: DomainError


def lefschetz_power_matrix(model: ContactModel, k: int):
    """Matrix of wedging with (dtheta)^k from vertical coframe monomials of
    degree n-k+1 to those of degree n+k+1, both in lexicographic order.

    Entries are ints (each is 0 or +-k!), so `linalg.rank` starts in
    integer arithmetic, and the matrix is square and invertible for
    1 <= k <= n (the vertical Lefschetz isomorphism).
    """
    n = model.n
    if not 1 <= k <= n:
        raise DomainError(f"lefschetz power {k} outside 1..{n}")
    src = model.vertical_monomials(n - k + 1)
    tgt = model.vertical_monomials(n + k + 1)
    tgt_pos = {idx: i for i, idx in enumerate(tgt)}
    matrix = [[0] * len(src) for _ in tgt]
    for j, idx in enumerate(src):
        mono = Form(model, len(idx), {idx: Poly.one(model.nvars)}, _canonical=True)
        image = lefschetz(mono, k)
        for out_idx, p in image.terms.items():
            matrix[tgt_pos[out_idx]][j] = exact(p.constant_value())
    return matrix


# -- random generation (seeded, for the verification suites) -----------------


def random_poly(rng: SplitMix64, nvars: int, max_degree: int) -> Poly:
    """Nonzero polynomial with 1..3 monomials, total degree <= max_degree,
    integer coefficients in [-9, 9] minus {0}."""
    last = nvars - 1
    terms = {}
    for _ in range(rng.randint(1, 3)):
        total = rng.randint(0, max_degree)
        ex = 0  # packed: coordinate i adds 1 << FIELD * (nvars - 1 - i)
        for _ in range(total):
            ex += 1 << FIELD * (last - rng.randint(0, last))
        c = rng.randint(1, 9) * (1 if rng.chance(1, 2) else -1)
        terms[ex] = terms.get(ex, 0) + c
    num = {ex: c for ex, c in terms.items() if c}
    return wrap(nvars, num, 1) if num else Poly.one(nvars)


def random_form(
    model: ContactModel,
    rng: SplitMix64,
    degree: int,
    max_poly_degree: int = 2,
    density=(1, 2),
    vertical: bool = False,
) -> Form:
    """Random homogeneous form: each coframe monomial of the degree is kept
    independently with probability `density`, with a random_poly coefficient.
    May be zero."""
    monos = model.vertical_monomials(degree) if vertical else model.coframe_monomials(degree)
    terms = {}
    for idx in monos:
        if rng.chance(*density):
            terms[idx] = random_poly(rng, model.nvars, max_poly_degree)
    return Form(model, degree, terms, _canonical=True)
