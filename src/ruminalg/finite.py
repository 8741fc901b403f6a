"""Finite-dimensional graded algebras and exact cohomology rings.

This is the desk-scale side of the package: a `FiniteGradedAlgebra` stores a
basis per degree, the differential as label rows (label -> {label:
coefficient}, a `CochainMap` of degree +1 on itself) and the product as rows
of structure constants, all over the rationals, with the algebra axioms
(d^2 = 0, graded commutativity, associativity, the Leibniz rule) checked at
construction.  Every linear map -- d, the retract maps, any other -- is a
`CochainMap` built from label rows {source label: {target label:
coefficient}}, the shape of `d` and of the file format; it stores only sparse
columns and makes a dense block only on demand (`CochainMap.matrix`, which
`d_matrix` and `cohomology` read).  The product stores only its nonzero
entries.  So building an algebra costs the basis plus the stored entries,
not the square of the basis.  Two loops do all the coefficient work on
vectors: `CochainMap.apply` applies a map, and `mu_vec` multiplies.
`cohomology` computes ker d / im d with representative cocycles and the
induced product; `check_ring_isomorphism` compares two cohomology rings
through a cochain map.

The construction checks make no vector: they read the stored rows of d and
mu (label -> coefficient), and each one asks whether a sum of c * row over
(coefficient, row) pairs is zero.  They run in basis order -- d^2 = 0 on each
basis element, then graded commutativity and the Leibniz rule on each pair,
then associativity on each triple -- and the first failure raises an
`AxiomError` (a `ConstructionError`) that names the axiom and the basis
labels.  The pair and triple checks visit only the labels that have a
differential or are a factor of a stored product (any other label makes every
sum zero), a pair with no products and no differentials is skipped, and for a
triple (u, v, w) whose product uv is zero only the w with a nonzero vw are
visited, so the work is the stored entries the sums touch: m^3 short sums for
m generators whose products are all nonzero, and none for bare basis labels.

The rows are checked once, where they are read: the `CochainMap` built from
the d rows refuses an unknown label or a target of the wrong degree (the
algebra re-raises that as a `ConstructionError` naming the differential), and
the loop that stores the product rows refuses an unknown label or a target
that breaks degree additivity.

Coefficients follow the rule of `ruminalg.poly`: a stored coefficient -- of a
`FiniteVector`, of the `d` and `mu` tables, of a `CochainMap` column -- is an
`int` when it is integral and a `Fraction` with denominator > 1 otherwise.
Every operation normalizes its result once with `poly.exact`, so the common
integral case builds no `Fraction`; a coordinate given as ``Fraction(2)``
is stored as ``2``, so both make one vector.  Every number is printed through
`poly.coefficient_text`, as a `Form` prints its coefficients: a number with
more digits than Python prints is a one-line DomainError, not a traceback.

Vectors are interned.  An algebra keeps one table from (degree, coefficients)
to the one vector of that value, and every way of making a vector (the
constructor, `element`, `scale`, `+`, `-`, `apply_d`, `mu_vec`,
`CochainMap.apply`) returns the table's vector; a zero value is the
algebra's one zero of its degree.  Equal nonzero vectors are therefore one
object, so equality is identity (the zeros of all degrees of one algebra
are equal too) and the hash is the identity hash: a memo hit keyed by a
tuple of vectors is hashed and compared in C.  The table keeps every vector
made in the algebra for the algebra's lifetime; building an algebra makes
none.

Zeros cost nothing: a vector records when it is built whether it is zero, so
`is_zero` reads a slot, and `zero`, `apply_d`, `mu_vec` and
`CochainMap.apply` return the kept zero at once when an input is zero (the
homotopy transfer of the built-in model meets mostly zero values).

The built-in model is the exterior algebra on three degree-one generators
a, b, c with da = db = 0 and dc = a^b -- the left-invariant forms of the
three-dimensional Heisenberg group.  It is read off `ruminalg.forms` (n = 1):
a basis word such as "ac" stands for the wedge dx1 ^ theta of its letters'
coframe forms (a = dx1, b = dy1, c = theta), and d and the product are
`exterior_d` and `wedge` of those forms, read back into word coordinates.
The operators gamma and pi of `ruminalg.rumin` preserve constant
coefficients, so they restrict too: the six-dimensional Rumin subcomplex
spanned by 1; a, b; c^a, c^b; c^a^b takes the projected wedge pi(u ^ v) as
its product, and `heisenberg_ce_retract` reads (inclusion, pi, gamma) of each
basis word into a row, a deformation retract onto it, ready for the generic
homotopy transfer.

File format (consumed by the CLI `cohomology` subcommand), line oriented,
`#` starts a comment:

    algebra NAME            optional header
    basis LABEL DEGREE      one line per basis element
    d SRC DST COEFF         entry of the differential: d(SRC) += COEFF * DST
    mu A B C COEFF          structure constant: A * B += COEFF * C

DEGREE is an integer as `dumps` writes it: an optional `-` and ASCII digits.
COEFF is an integer or a `p/q` rational, as `dumps` writes it: an optional
sign, ASCII digits, and optionally `/` and digits.  Any other text (`+2`,
`1_0`, `1.5`, `1e5`, non-ASCII digits) is refused with its line, and so are a
zero denominator and a number of more digits than Python reads (4,300).
Omitted entries are zero, and repeated records of one entry add up.  NAME
and every LABEL are one word with no `#`; the constructor refuses any other,
so `dumps` writes text that `loads` reads back to the same algebra: it
writes the stored entries sorted by the basis positions of their labels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import linalg, rumin
from .cinfty import RetractData
from .errors import ConstructionError, DimensionError, DomainError
from .forms import ContactModel, Form, exterior_d, wedge
from .poly import Poly, coefficient_text, exact, read_int, signed_join


class FiniteVector:
    """Homogeneous element of a FiniteGradedAlgebra (immutable, hashable).

    `coeffs` holds one exact coordinate per basis element of `degree`: an
    `int` when it is integral, else a `Fraction` with denominator > 1.  The
    constructor accepts any rationals and normalizes them.

    Vectors are interned: every way of making a vector returns the one object
    its algebra keeps for that value (a zero value, the algebra's zero of
    that degree), so equal nonzero vectors are the same object: `==` is
    `is`, and the hash is the identity hash, in C.  Zeros of every degree
    are equal, so they hash by value.  `str` prints each coefficient
    through `poly.coefficient_text`."""

    __slots__ = ("algebra", "degree", "coeffs", "_zero")

    def __new__(cls, algebra: "FiniteGradedAlgebra", degree: int, coeffs):
        coeffs = tuple(map(exact, coeffs))
        if len(coeffs) != algebra.dim(degree):
            raise DimensionError(
                f"vector of length {len(coeffs)} in degree {degree} "
                f"(dimension {algebra.dim(degree)})"
            )
        return FiniteVector._make(algebra, degree, coeffs)

    @staticmethod
    def _make(algebra, degree, coeffs) -> "FiniteVector":
        """The vector `algebra` keeps for this value, made on first use.
        Internal fast path: `coeffs` must already be a tuple of stored
        (`exact`) coefficients of the right length."""
        key = (degree, coeffs)
        v = algebra._vectors.get(key)
        if v is None:
            if any(coeffs):
                v = _new_vector(FiniteVector, algebra, degree, coeffs)
            else:
                v = algebra.zero(degree)
            algebra._vectors[key] = v
        return v

    def __reduce__(self):
        # copy.copy gets the vector itself back; unpickled, a vector is
        # interned again in the unpickled algebra
        return FiniteVector, (self.algebra, self.degree, self.coeffs)

    def __deepcopy__(self, memo) -> "FiniteVector":
        # immutable and interned: the copy is the vector, in its own algebra
        return self

    def is_zero(self) -> bool:
        return self._zero

    def zero_of_degree(self, degree: int) -> "FiniteVector":
        return self.algebra.zero(degree)

    def scale(self, c) -> "FiniteVector":
        if c == 1 or self._zero:
            return self
        if c == -1:
            return FiniteVector._make(self.algebra, self.degree, tuple(-x for x in self.coeffs))
        c = exact(c)
        return FiniteVector._make(self.algebra, self.degree, tuple(exact(c * x) for x in self.coeffs))

    def __add__(self, other: "FiniteVector") -> "FiniteVector":
        if not isinstance(other, FiniteVector):
            return NotImplemented
        if self.algebra is not other.algebra:
            raise DimensionError("vectors from different algebras")
        if self._zero:
            return other
        if other._zero:
            return self
        if self.degree != other.degree:
            raise DimensionError(f"adding degrees {self.degree} and {other.degree}")
        return FiniteVector._make(
            self.algebra, self.degree, tuple(exact(x + y) for x, y in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "FiniteVector") -> "FiniteVector":
        return self + other.scale(-1)

    def __eq__(self, other) -> bool:
        # equal nonzero values are one object (see `_make`)
        if self is other:
            return True
        if not isinstance(other, FiniteVector):
            return NotImplemented
        return self._zero and other._zero and self.algebra is other.algebra

    # Identity is a hash that agrees with ==, and dict lookups use object's
    # C slot.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        pieces = []
        for c, label in zip(self.coeffs, self.algebra.labels(self.degree)):
            if c:
                text = _number_text(abs(c))
                pieces.append((c < 0, label if text == "1" else f"{text}*{label}"))
        return signed_join(pieces) if pieces else "0"

    def __repr__(self) -> str:
        return f"FiniteVector({self.degree}, {self})"


class _ZeroVector(FiniteVector):
    """The zero an algebra keeps for one degree.  All zeros of an algebra are
    equal whatever their degree, so they hash alike."""

    __slots__ = ()

    def __hash__(self):
        return hash((id(self.algebra), None))


def _new_vector(cls, algebra, degree, coeffs) -> FiniteVector:
    v = object.__new__(cls)
    v.algebra, v.degree, v.coeffs, v._zero = algebra, degree, coeffs, cls is _ZeroVector
    return v


class AxiomError(ConstructionError):
    """A FiniteGradedAlgebra breaks the axiom `axiom` on the basis element,
    pair or triple `labels`."""

    def __init__(self, axiom: str, labels, message: str):
        self.axiom, self.labels = axiom, tuple(labels)
        super().__init__(message)


class FiniteGradedAlgebra:
    """Graded commutative differential algebra with explicit basis and exact
    structure constants: the differential as label rows `d` (label -> {label:
    coefficient}) and the product as rows `mu` ((label, label) -> {label:
    coefficient})."""

    def __init__(self, basis, d, mu, name: str = ""):
        if name != "" and not _is_word(name):
            raise ConstructionError(f"algebra name {name!r} is not one word free of '#'")
        self.name = name
        self.basis = {deg: list(labels) for deg, labels in sorted(basis.items()) if labels}
        self.degrees = sorted(self.basis)
        self._pos: dict = {}
        self._zeros: dict = {}  # degree -> its one zero vector
        # (degree, coeffs) -> the one vector of that value, kept for the
        # algebra's lifetime (see FiniteVector._make)
        self._vectors: dict = {}
        for deg, labels in self.basis.items():
            for i, label in enumerate(labels):
                if not _is_word(label):
                    raise ConstructionError(f"basis label {label!r} is not one word free of '#'")
                if label in self._pos:
                    raise ConstructionError(f"duplicate basis label {label!r}")
                self._pos[label] = (deg, i)
        self.d = {src: {dst: e for dst, c in row.items() if (e := exact(c))} for src, row in d.items()}
        self.mu = {
            pair: {dst: e for dst, c in row.items() if (e := exact(c))}
            for pair, row in mu.items()
        }
        try:
            self._differential = CochainMap(self, self, self.d, shift=1)
        except DimensionError as exc:
            raise ConstructionError(f"differential: {exc}") from None
        # The stored products by degree: _mu_rows[(p, q)] lists (i, j, row)
        # for each nonzero product of basis element i of degree p and j of
        # degree q, its row as (target index, coefficient) pairs.
        self._mu_rows: dict = {}
        for (a, b), row in self.mu.items():
            if a not in self._pos or b not in self._pos:
                raise ConstructionError(f"product on unknown labels ({a!r}, {b!r})")
            (p, i), (q, j) = self._pos[a], self._pos[b]
            targets = []
            for dst, c in row.items():
                where = self._pos.get(dst)
                if where is None:
                    raise ConstructionError(f"product into unknown label {dst!r}")
                if where[0] != p + q:
                    raise ConstructionError(f"mu {a} {b} -> {dst} violates degree additivity")
                targets.append((where[1], c))
            if targets:
                self._mu_rows.setdefault((p, q), []).append((i, j, tuple(targets)))
        self._check_axioms()

    # A pickle holds the algebra's structure, not the vectors it keeps: a
    # kept vector's arguments would name the algebra before its state is set.
    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in ("_zeros", "_vectors")}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _zeros={}, _vectors={})

    # -- basic structure -----------------------------------------------------

    def dim(self, degree: int) -> int:
        return len(self.basis.get(degree, ()))

    def labels(self, degree: int):
        return self.basis.get(degree, [])

    def degree_of(self, label: str) -> int:
        return self._pos[label][0]

    def zero(self, degree: int) -> FiniteVector:
        """The zero of `degree`: one vector per degree, built on first use."""
        z = self._zeros.get(degree)
        if z is None:
            z = self._zeros[degree] = _new_vector(_ZeroVector, self, degree, (0,) * self.dim(degree))
        return z

    def element(self, label: str) -> FiniteVector:
        deg, i = self._pos[label]
        coeffs = [0] * self.dim(deg)
        coeffs[i] = 1
        return FiniteVector._make(self, deg, tuple(coeffs))

    def all_basis_vectors(self):
        return [self.element(label) for deg in self.degrees for label in self.labels(deg)]

    def d_matrix(self, degree: int):
        """Matrix of d from degree to degree+1 (rows indexed by the target),
        a fresh copy."""
        return self._differential.matrix(degree)

    def apply_d(self, v: FiniteVector) -> FiniteVector:
        return self._differential.apply(v)

    def mu_vec(self, u: FiniteVector, v: FiniteVector) -> FiniteVector:
        degree = u.degree + v.degree
        if u._zero or v._zero:
            return self.zero(degree)
        out = [0] * self.dim(degree)
        cu, cv = u.coeffs, v.coeffs
        for i, j, row in self._mu_rows.get((u.degree, v.degree), ()):
            c = cu[i] * cv[j]
            if c:
                for dst, w in row:
                    out[dst] += c * w
        return FiniteVector._make(self, degree, tuple(map(exact, out)))

    # -- construction checks ---------------------------------------------------

    def _check_axioms(self):
        """Check the axioms on the stored rows of d and mu, in basis order:
        the first basis element, pair or triple that fails raises an
        AxiomError."""
        labels = [label for deg in self.degrees for label in self.labels(deg)]
        d, mu, empty = self.d, self.mu, {}
        for u in labels:
            if _nonzero((c, d.get(w, empty)) for w, c in d.get(u, empty).items()):
                raise AxiomError("d^2 = 0", (u,), f"d^2 != 0 on {u}")
        # a label with no differential that is no factor of a stored product
        # makes every sum of its pairs and triples zero, so it is left out
        busy = {u for u, row in d.items() if row}
        busy.update(x for pair, row in mu.items() if row for x in pair)
        labels = [u for u in labels if u in busy]
        for u in labels:
            for v in labels:
                uv, vu = mu.get((u, v), empty), mu.get((v, u), empty)
                du, dv = d.get(u, empty), d.get(v, empty)
                if not (uv or vu or du or dv):
                    continue
                odd_u, odd_v = self.degree_of(u) & 1, self.degree_of(v) & 1
                # uv - (-1)^(|u||v|) vu
                if _nonzero([(1, uv), (1 if odd_u and odd_v else -1, vu)]):
                    raise AxiomError(
                        "graded commutativity", (u, v), f"product not graded commutative on ({u}, {v})"
                    )
                # d(uv) - d(u)v - (-1)^|u| u d(v)
                terms = [(c, d.get(w, empty)) for w, c in uv.items()]
                terms += [(-c, mu.get((w, v), empty)) for w, c in du.items()]
                terms += [(c if odd_u else -c, mu.get((u, w), empty)) for w, c in dv.items()]
                if _nonzero(terms):
                    raise AxiomError("Leibniz rule", (u, v), f"Leibniz rule fails on ({u}, {v})")
        # (uv)w - u(vw) is zero at once where uv and vw are both zero, so for a
        # zero uv only the w with a nonzero vw are visited
        partners = {v: [w for w in labels if mu.get((v, w))] for v in labels}
        for u in labels:
            for v in labels:
                uv = mu.get((u, v), empty)
                for w in labels if uv else partners[v]:
                    terms = [(c, mu.get((x, w), empty)) for x, c in uv.items()]
                    terms += [(-c, mu.get((u, x), empty)) for x, c in mu.get((v, w), empty).items()]
                    if _nonzero(terms):
                        raise AxiomError(
                            "associativity", (u, v, w), f"product not associative on ({u}, {v}, {w})"
                        )

    # -- plain-text serialization ----------------------------------------------

    def dumps(self) -> str:
        d = (((src, dst), c) for src, row in self.d.items() for dst, c in row.items())
        mu = (((a, b, dst), c) for (a, b), row in self.mu.items() for dst, c in row.items())
        lines = [f"algebra {self.name}"] if self.name else []
        lines += [f"basis {label} {deg}" for deg in self.degrees for label in self.labels(deg)]
        lines += self._records("d", d) + self._records("mu", mu)
        return "\n".join(lines) + "\n"

    def _records(self, kind: str, entries) -> list:
        """The `kind` lines of the stored (labels, coefficient) `entries`,
        sorted by the basis positions of their labels."""
        ordered = sorted(entries, key=lambda entry: [self._pos[label] for label in entry[0]])
        return [f"{kind} {' '.join(labels)} {_number_text(c)}" for labels, c in ordered]

    @classmethod
    def loads(cls, text: str) -> "FiniteGradedAlgebra":
        name = ""
        basis: dict = {}
        d: dict = {}
        mu: dict = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            kind = fields[0]
            try:
                if kind == "algebra" and len(fields) == 2:
                    name = fields[1]
                elif kind == "basis" and len(fields) == 3:
                    basis.setdefault(_degree(fields[2]), []).append(fields[1])
                elif kind == "d" and len(fields) == 4:
                    _add_entry(d.setdefault(fields[1], {}), fields[2], fields[3])
                elif kind == "mu" and len(fields) == 5:
                    _add_entry(mu.setdefault((fields[1], fields[2]), {}), fields[3], fields[4])
                else:
                    raise ValueError(f"unrecognized record {kind!r}")
            except ValueError as exc:
                raise ConstructionError(f"line {lineno}: {exc}") from exc
        return cls(basis, d, mu, name=name)


def _is_word(text) -> bool:
    """Can `text` be a name or label of the file format: a non-empty str
    with no whitespace and no '#'?"""
    return isinstance(text, str) and text.split() == [text] and "#" not in text


def _number_text(c) -> str:
    """The rational `c` as the file format and `str` write it: an optional
    '-', then `poly.coefficient_text` (a DomainError for more digits than
    Python prints)."""
    return "-" * (c < 0) + coefficient_text(abs(c.numerator), c.denominator)


def _nonzero(terms) -> bool:
    """Is the sum of c * row over the (coefficient c, row) `terms` nonzero?  A
    row maps labels to coefficients, as a stored d or mu row does."""
    total: dict = {}
    for c, row in terms:
        for label, x in row.items():
            total[label] = total.get(label, 0) + c * x
    return any(total.values())


def _degree(field: str) -> int:
    """The DEGREE `field`: an optional '-' and ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+", field):
        raise ValueError(f"degree {field!r} is not an integer")
    return read_int(field)


def _add_entry(row: dict, dst: str, field: str) -> None:
    """row[dst] += the COEFF `field` (records of one entry add up)."""
    match = re.fullmatch(r"([+-]?[0-9]+)(?:/([0-9]+))?", field)
    if not match:
        raise ValueError(f"coefficient {field!r} is not an integer or p/q")
    num, den = read_int(match[1]), read_int(match[2] or "1")
    if not den:
        raise ValueError(f"zero denominator in {field!r}")
    row[dst] = row.get(dst, 0) + Fraction(num, den)


# -- exact cohomology ----------------------------------------------------------


class Cohomology:
    """Per-degree basis of ker d / im d with representative cocycles.

    One elimination per degree chooses them: the kernel columns that are
    pivots of [every nonzero column of d from degree k - 1 | a kernel
    basis].  A kernel column is a pivot exactly when it lies outside the
    span of the columns before it, which dependent image columns do not
    change."""

    def __init__(self, algebra: FiniteGradedAlgebra):
        self.algebra = algebra
        self._reps: dict = {}
        self._im_cols: dict = {}
        for k in algebra.degrees:
            dim_k = algebra.dim(k)
            kernel = linalg.nullspace(algebra.d_matrix(k), dim_k)
            im_cols = [list(column) for column in zip(*algebra.d_matrix(k - 1)) if any(column)]
            stacked = linalg.from_columns(im_cols + kernel, dim_k)
            _, pivots = linalg.rref(stacked)
            reps = [kernel[p - len(im_cols)] for p in pivots if p >= len(im_cols)]
            self._im_cols[k] = im_cols
            self._reps[k] = [FiniteVector(algebra, k, v) for v in reps]

    def betti(self, degree: int) -> int:
        return len(self._reps.get(degree, ()))

    def betti_numbers(self):
        return tuple(self.betti(k) for k in self.algebra.degrees)

    def representatives(self, degree: int):
        return list(self._reps.get(degree, ()))

    def reduce(self, v: FiniteVector):
        """Coordinates of the class [v] in the representative basis of its
        degree; v must be a cocycle."""
        if not self.algebra.apply_d(v).is_zero():
            raise DomainError(f"not a cocycle: {v}")
        im_cols = self._im_cols.get(v.degree, [])
        reps = self._reps.get(v.degree, [])
        if not reps:
            return ()
        matrix = linalg.from_columns(im_cols + [list(r.coeffs) for r in reps], len(v.coeffs))
        x = linalg.solve_exact(matrix, list(v.coeffs))
        if x is None:
            raise DomainError(f"cocycle outside ker/im decomposition: {v}")
        return tuple(x[len(im_cols) :])


def cohomology(algebra: FiniteGradedAlgebra) -> Cohomology:
    """Exact kernel/image quotient per degree with the induced product
    available through `Cohomology.reduce`."""
    return Cohomology(algebra)


class CochainMap:
    """Linear map between finite algebras that changes degree by `shift`,
    given by label rows {source label: {target label: coefficient}} -- the
    shape of `FiniteGradedAlgebra.d` and of the file format; a source label
    without a row maps to zero.  A label that is not in the source or the
    target, or a target outside degree + shift, is a DimensionError: the
    rows are checked here, where they are read, and nowhere else.  Only
    sparse columns are stored; `matrix` makes a dense block on demand.
    Cochain maps have shift 0; a homotopy has shift -1."""

    def __init__(self, src: FiniteGradedAlgebra, dst: FiniteGradedAlgebra, rows, shift: int = 0):
        self.src = src
        self.dst = dst
        self.shift = shift
        # Column j of degree deg as (target index, coefficient) pairs of its
        # nonzero entries.
        self._columns = {deg: [()] * src.dim(deg) for deg in src.degrees}
        for label, row in rows.items():
            if label not in src._pos:
                raise DimensionError(f"map from unknown label {label!r}")
            deg, j = src._pos[label]
            column = []
            for target, c in row.items():
                where = dst._pos.get(target)
                if where is None or where[0] != deg + shift:
                    raise DimensionError(
                        f"map sends {label} to {target!r}, not a label of degree {_number_text(deg + shift)}"
                    )
                if e := exact(c):
                    column.append((where[1], e))
            self._columns[deg][j] = tuple(column)

    def matrix(self, degree: int):
        """The dense block from `degree`: dst.dim(degree + shift) rows x
        src.dim(degree) columns, a fresh copy."""
        block = linalg.zeros(self.dst.dim(degree + self.shift), self.src.dim(degree))
        for j, column in enumerate(self._columns.get(degree, ())):
            for r, c in column:
                block[r][j] = c
        return block

    def apply(self, v: FiniteVector) -> FiniteVector:
        degree = v.degree + self.shift
        columns = self._columns.get(v.degree)
        if columns is None or v._zero:
            return self.dst.zero(degree)
        out = [0] * self.dst.dim(degree)
        for c, column in zip(v.coeffs, columns):
            if c:
                for r, w in column:
                    out[r] += c * w
        return FiniteVector._make(self.dst, degree, tuple(map(exact, out)))


@dataclass
class RingIsoResult:
    ok: bool
    witnesses: list

    def __bool__(self) -> bool:
        return self.ok


def check_ring_isomorphism(fmap: CochainMap, ha: Cohomology, hb: Cohomology) -> RingIsoResult:
    """Does the map induce a graded-ring isomorphism from `ha`, the cohomology
    of its source, to `hb`, that of its target?

    Checks per degree that the induced matrix on classes is square and
    invertible, and on all pairs of class representatives that the map sends
    products to products.  Returns witnesses instead of raising.
    """
    witnesses = []
    degrees = sorted(set(fmap.src.degrees) | set(fmap.dst.degrees))
    for deg in degrees:
        reps = ha.representatives(deg)
        if len(reps) != hb.betti(deg):
            witnesses.append(
                f"degree {deg}: betti {len(reps)} vs {hb.betti(deg)}"
            )
            continue
        if not reps:
            continue
        try:
            cols = [list(hb.reduce(fmap.apply(r))) for r in reps]
        except DomainError as exc:
            witnesses.append(f"degree {deg}: {exc}")
            continue
        matrix = linalg.from_columns(cols, hb.betti(deg))
        if linalg.rank(matrix) != len(reps):
            witnesses.append(f"degree {deg}: induced map on classes is singular")
    for p in degrees:
        for q in degrees:
            for rp in ha.representatives(p):
                for rq in ha.representatives(q):
                    lhs = fmap.apply(fmap.src.mu_vec(rp, rq))
                    rhs = fmap.dst.mu_vec(fmap.apply(rp), fmap.apply(rq))
                    try:
                        if hb.reduce(lhs) != hb.reduce(rhs):
                            witnesses.append(
                                f"product mismatch on classes [{rp}] * [{rq}]"
                            )
                    except DomainError as exc:
                        witnesses.append(str(exc))
    return RingIsoResult(ok=not witnesses, witnesses=witnesses)


# -- the built-in Heisenberg model ----------------------------------------------

# A basis word stands for the wedge of its letters' generators, in order, among
# the constant-coefficient forms on H^3 (n = 1): a = dx1 = e^1, b = dy1 = e^2,
# c = theta = e^0.  The empty word is the unit, labelled 1.
_LETTERS = {"a": 1, "b": 2, "c": 0}
_CE_BASIS = {k: ["".join(w) for w in combinations("abc", k)] for k in range(4)}
_RUMIN_BASIS = {0: [""], 1: ["a", "b"], 2: ["ca", "cb"], 3: ["cab"]}


class SpanError(DomainError):
    """A form read into word coordinates is not in the span of the basis
    words: `op` of the basis words `words` has the part `outside` (a
    nonzero form) outside it."""

    def __init__(self, op: str, words, outside: Form):
        self.op, self.words, self.outside = op, tuple(words), outside
        super().__init__(
            f"{op}({', '.join(self.words)}) is not in the span of the basis words: "
            f"{outside} lies outside it"
        )


def _reader(forms):
    """Coordinates {label: coefficient} of a constant-coefficient form over the
    word forms `forms` (label -> form), each of which is +-1 times one coframe
    monomial.  `read(form, op, words)` reads `form`, which is `op` of the
    basis words `words`; its terms on other monomials or with non-constant
    coefficients are outside the span, and raise SpanError."""
    slots = {}
    for label, form in forms.items():
        ((idx, sign),) = form.terms.items()
        slots[idx] = (label, sign.constant_value())

    def read(form: Form, op: str, words) -> dict:
        outside = {idx: p for idx, p in form.terms.items() if idx not in slots or not p.is_constant()}
        if outside:
            raise SpanError(op, words, Form(form.model, form.degree, outside, _canonical=True))
        row = {}
        for idx, p in form.terms.items():
            label, sign = slots[idx]
            row[label] = sign * p.constant_value()
        return row

    return read


def _word_algebra(words, name: str, project):
    """The algebra on `words` (degree -> words) whose d and product are
    `exterior_d` and `wedge` of the word forms, read back after `project`.
    Returns (algebra, word form by label, reader)."""
    model = ContactModel(1)
    forms = {}
    for row in words.values():
        for word in row:
            form = Form.constant(model, Poly.one(model.nvars))
            for letter in word:
                form = wedge(form, model.generator(_LETTERS[letter]))
            forms[word or "1"] = form
    read = _reader(forms)
    d = {u: row for u, fu in forms.items() if (row := read(project(exterior_d(fu)), "d", (u,)))}
    mu = {
        (u, v): row
        for u, fu in forms.items()
        for v, fv in forms.items()
        if (row := read(project(wedge(fu, fv)), "mu", (u, v)))
    }
    basis = {k: [word or "1" for word in row] for k, row in words.items()}
    return FiniteGradedAlgebra(basis, d, mu, name=name), forms, read


def _identity(w: Form) -> Form:
    return w


def _pi(w: Form) -> Form:
    return rumin.pi(w).form


def _ce_words():
    """(algebra, word forms, reader) of the CE algebra."""
    return _word_algebra(_CE_BASIS, "heisenberg-ce", _identity)


def _rumin_words():
    """As `_ce_words`, for the Rumin subcomplex; its basis forms must lie in R."""
    words = _word_algebra(_RUMIN_BASIS, "heisenberg-rumin", _pi)
    for form in words[1].values():
        rumin.certify(form)
    return words


def _sample(src, dst, op, name: str, shift: int = 0) -> CochainMap:
    """The linear map u -> op(form of u) on the basis words u of `src`, each
    image read into a row of `dst`; both are (algebra, word forms, reader)
    triples, and a SpanError names `op` as `name`."""
    (a, forms, _), (b, _, read) = src, dst
    return CochainMap(a, b, {u: read(op(forms[u]), name, (u,)) for u in a._pos}, shift)


def heisenberg_ce_algebra() -> FiniteGradedAlgebra:
    """Exterior algebra on a, b, c (all degree 1) with da = db = 0 and
    dc = a^b: the left-invariant forms of the 3-dimensional Heisenberg
    group."""
    return _ce_words()[0]


def heisenberg_rumin_model() -> FiniteGradedAlgebra:
    """The six-dimensional subcomplex 1; a, b; c^a, c^b; c^a^b with zero
    differential and the projected wedge pi(u ^ v) as its product."""
    return _rumin_words()[0]


@dataclass
class FiniteModelBundle:
    """The built-in finite model: the CE algebra, its Rumin subcomplex, the
    restricted deformation retract, and the inclusion as a cochain map."""

    ce: FiniteGradedAlgebra
    rumin: FiniteGradedAlgebra
    retract: RetractData
    inclusion: CochainMap


def heisenberg_ce_retract() -> FiniteModelBundle:
    """Restrict (inclusion, pi, gamma) from symbolic forms on H^3 to the
    constant-coefficient CE algebra; the retract identities are checked on
    the full CE and Rumin bases (`cinfty.RetractError` when one fails).  A
    broken pi or gamma can already make a value that is not in the span of
    the basis words while the two algebras are read, a `SpanError`.

    The three maps are read once through the symbolic operators, one row
    per basis word, and then applied through their sparse columns, which
    keeps exhaustive transfer sweeps over all basis tuples cheap.
    """
    ce_words, rm_words = _ce_words(), _rumin_words()
    ce, rm = ce_words[0], rm_words[0]
    inclusion = _sample(rm_words, ce_words, _identity, "i")
    project = _sample(ce_words, rm_words, _pi, "pi")
    homotopy = _sample(ce_words, ce_words, rumin.gamma, "gamma", shift=-1)

    retract = RetractData(
        d=ce.apply_d,
        mu=ce.mu_vec,
        h=homotopy.apply,
        i=inclusion.apply,
        pi=project.apply,
        b_d=rm.apply_d,
        a_samples=ce.all_basis_vectors(),
        b_samples=rm.all_basis_vectors(),
        name="heisenberg finite model",
    )
    return FiniteModelBundle(ce=ce, rumin=rm, retract=retract, inclusion=inclusion)
