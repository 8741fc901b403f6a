"""Finite-dimensional graded algebras and exact cohomology rings.

This is the desk-scale side of the package: a `FiniteGradedAlgebra` stores a
basis per degree, the differential as exact matrices, and the product as
structure constants, all over the rationals, with the algebra axioms (d^2 = 0,
graded commutativity, associativity, the Leibniz rule) checked at
construction.  `cohomology` computes ker d / im d with representative
cocycles and the induced product; `check_ring_isomorphism` compares two
cohomology rings through a cochain map.

Coefficients follow the rule of `ruminalg.poly`: a stored coefficient -- of a
`FiniteVector`, of the `d` and `mu` tables, of a `CochainMap` block -- is an
`int` when it is integral and a `Fraction` with denominator > 1 otherwise.
Every operation normalizes its result once with `poly.exact`, so the common
integral case builds no `Fraction`.  Since ``Fraction(2) == 2`` and
``hash(Fraction(2)) == hash(2)``, vectors compare and hash exactly as they
would with all-`Fraction` coordinates.

Zeros cost nothing: a vector records when it is built whether it is zero, so
`is_zero` reads a slot, and an algebra keeps one zero vector per degree,
which `zero`, `apply_d`, `mu_vec` and `CochainMap.apply` return at once when
an input is zero (the homotopy transfer of the built-in model meets mostly
zero values).

The built-in model is the exterior algebra on three degree-one generators
a, b, c with da = db = 0 and dc = a^b -- the left-invariant forms of the
three-dimensional Heisenberg group.  It is read off `ruminalg.forms` (n = 1):
a basis word such as "ac" stands for the wedge dx1 ^ theta of its letters'
coframe forms (a = dx1, b = dy1, c = theta), and d and the product are
`exterior_d` and `wedge` of those forms, read back into word coordinates.
The operators gamma and pi of `ruminalg.rumin` preserve constant
coefficients, so they restrict too: the six-dimensional Rumin subcomplex
spanned by 1; a, b; c^a, c^b; c^a^b takes the projected wedge pi(u ^ v) as
its product, and `heisenberg_ce_retract` samples (inclusion, pi, gamma) into
a deformation retract onto it, ready for the generic homotopy transfer.

File format (consumed by the CLI `cohomology` subcommand), line oriented,
`#` starts a comment:

    algebra NAME            optional header
    basis LABEL DEGREE      one line per basis element
    d SRC DST COEFF         entry of the differential: d(SRC) += COEFF * DST
    mu A B C COEFF          structure constant: A * B += COEFF * C

COEFF is an integer or `p/q` rational.  Omitted entries are zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import linalg, rumin
from .cinfty import RetractData
from .errors import ConstructionError, DimensionError, DomainError
from .forms import ContactModel, Form, exterior_d, wedge
from .poly import Poly, exact


class FiniteVector:
    """Homogeneous element of a FiniteGradedAlgebra (immutable, hashable).

    `coeffs` holds one exact coordinate per basis element of `degree`: an
    `int` when it is integral, else a `Fraction` with denominator > 1.  The
    constructor accepts any rationals and normalizes them."""

    __slots__ = ("algebra", "degree", "coeffs", "_zero", "_hash")

    def __init__(self, algebra: "FiniteGradedAlgebra", degree: int, coeffs):
        self.algebra = algebra
        self.degree = degree
        self.coeffs = tuple(map(exact, coeffs))
        self._zero = not any(self.coeffs)
        self._hash = None
        if len(self.coeffs) != algebra.dim(degree):
            raise DimensionError(
                f"vector of length {len(self.coeffs)} in degree {degree} "
                f"(dimension {algebra.dim(degree)})"
            )

    @classmethod
    def _make(cls, algebra, degree, coeffs) -> "FiniteVector":
        """Internal fast path: `coeffs` must already be a tuple of stored
        (`exact`) coefficients of the right length."""
        v = object.__new__(cls)
        v.algebra = algebra
        v.degree = degree
        v.coeffs = coeffs
        v._zero = not any(coeffs)
        v._hash = None
        return v

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
        if not isinstance(other, FiniteVector):
            return NotImplemented
        if self.algebra is not other.algebra:
            return False
        if self._zero and other._zero:
            return True
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            # All zero vectors are equal whatever their degree, so they hash alike.
            shape = None if self._zero else (self.degree, self.coeffs)
            self._hash = hash((id(self.algebra), shape))
        return self._hash

    def __str__(self) -> str:
        labels = self.algebra.labels(self.degree)
        parts = []
        for c, label in zip(self.coeffs, labels):
            if not c:
                continue
            if c == 1:
                parts.append(label)
            elif c == -1:
                parts.append(f"-{label}")
            else:
                parts.append(f"{c}*{label}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

    def __repr__(self) -> str:
        return f"FiniteVector({self.degree}, {self})"


class FiniteGradedAlgebra:
    """Graded commutative differential algebra with explicit basis, exact
    differential matrices and product structure constants."""

    def __init__(self, basis, d, mu, name: str = ""):
        self.name = name
        self.basis = {deg: list(labels) for deg, labels in sorted(basis.items()) if labels}
        self.degrees = sorted(self.basis)
        self._pos: dict = {}
        self._zeros: dict = {}  # degree -> its one zero vector
        for deg, labels in self.basis.items():
            for i, label in enumerate(labels):
                if label in self._pos:
                    raise ConstructionError(f"duplicate basis label {label!r}")
                self._pos[label] = (deg, i)
        self.d = {src: {dst: e for dst, c in row.items() if (e := exact(c))} for src, row in d.items()}
        self.mu = {
            pair: {dst: e for dst, c in row.items() if (e := exact(c))}
            for pair, row in mu.items()
        }
        self._check_labels()
        # The tables by position: _d_rows[deg][j] lists (target index,
        # coefficient) of d on basis element j of degree deg, and
        # _mu_rows[(p, q)][i][j] does the same for the product of basis
        # elements i of degree p and j of degree q.
        self._d_rows = {
            deg: [self._row(self.d.get(label)) for label in labels]
            for deg, labels in self.basis.items()
        }
        self._mu_rows = {
            (p, q): [[self._row(self.mu.get((a, b))) for b in self.basis[q]] for a in self.basis[p]]
            for p in self.degrees
            for q in self.degrees
        }
        self._check_axioms()

    def _row(self, row) -> tuple:
        return tuple((self._pos[dst][1], c) for dst, c in row.items()) if row else ()

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
            z = self._zeros[degree] = FiniteVector._make(self, degree, (0,) * self.dim(degree))
        return z

    def element(self, label: str) -> FiniteVector:
        deg, i = self._pos[label]
        coeffs = [0] * self.dim(deg)
        coeffs[i] = 1
        return FiniteVector._make(self, deg, tuple(coeffs))

    def basis_vectors(self, degree: int):
        return [self.element(label) for label in self.labels(degree)]

    def all_basis_vectors(self):
        return [self.element(label) for deg in self.degrees for label in self.labels(deg)]

    def d_matrix(self, degree: int):
        """Matrix of d from degree to degree+1 (rows indexed by the target)."""
        rows, cols = self.dim(degree + 1), self.dim(degree)
        m = linalg.zeros(rows, cols)
        for j, label in enumerate(self.labels(degree)):
            for dst, c in self.d.get(label, {}).items():
                m[self._pos[dst][1]][j] = c
        return m

    def apply_d(self, v: FiniteVector) -> FiniteVector:
        if v._zero:
            return self.zero(v.degree + 1)
        out = [0] * self.dim(v.degree + 1)
        for c, row in zip(v.coeffs, self._d_rows.get(v.degree, ())):
            if c:
                for dst, w in row:
                    out[dst] += c * w
        return FiniteVector._make(self, v.degree + 1, tuple(map(exact, out)))

    def mu_vec(self, u: FiniteVector, v: FiniteVector) -> FiniteVector:
        degree = u.degree + v.degree
        if u._zero or v._zero:
            return self.zero(degree)
        out = [0] * self.dim(degree)
        for cu, rows in zip(u.coeffs, self._mu_rows.get((u.degree, v.degree), ())):
            if cu:
                for cv, row in zip(v.coeffs, rows):
                    if cv:
                        c = cu * cv
                        for dst, w in row:
                            out[dst] += c * w
        return FiniteVector._make(self, degree, tuple(map(exact, out)))

    # -- construction checks ---------------------------------------------------

    def _check_labels(self):
        for src, row in self.d.items():
            if src not in self._pos:
                raise ConstructionError(f"differential from unknown label {src!r}")
            for dst in row:
                if dst not in self._pos:
                    raise ConstructionError(f"differential into unknown label {dst!r}")
                if self.degree_of(dst) != self.degree_of(src) + 1:
                    raise ConstructionError(f"d {src} -> {dst} does not raise degree by one")
        for (a, b), row in self.mu.items():
            if a not in self._pos or b not in self._pos:
                raise ConstructionError(f"product on unknown labels ({a!r}, {b!r})")
            for dst in row:
                if self.degree_of(dst) != self.degree_of(a) + self.degree_of(b):
                    raise ConstructionError(f"mu {a} {b} -> {dst} violates degree additivity")

    def _product_table(self) -> list:
        """The nonzero products of basis vectors, read off the structure
        constants: entry i maps each j with u_i.u_j != 0 to that product,
        with i and j in the order of `all_basis_vectors`."""
        cells = [(deg, i) for deg in self.degrees for i in range(self.dim(deg))]
        table = []
        for p, i in cells:
            out = {}
            for j, (q, jj) in enumerate(cells):
                row = self._mu_rows[(p, q)][i][jj]
                if row:  # stored constants are nonzero, so the product is too
                    coeffs = [0] * self.dim(p + q)
                    for dst, c in row:
                        coeffs[dst] = c
                    out[j] = FiniteVector._make(self, p + q, tuple(coeffs))
            table.append(out)
        return table

    def _check_axioms(self):
        vectors = self.all_basis_vectors()
        differentials = [self.apply_d(v) for v in vectors]
        for v, dv in zip(vectors, differentials):
            if not self.apply_d(dv).is_zero():
                raise ConstructionError(f"d^2 != 0 on {v}")
        closed = [dv.is_zero() for dv in differentials]
        products = self._product_table()
        # A pair whose products and differentials are all zero passes both
        # pair checks at once, so it is skipped, in the same order.
        for i, u in enumerate(vectors):
            for j, v in enumerate(vectors):
                uv, vu = products[i].get(j), products[j].get(i)
                if uv is None and vu is None and closed[i] and closed[j]:
                    continue
                zero = self.zero(u.degree + v.degree)
                uv, vu = uv or zero, vu or zero
                sign = -1 if (u.degree & 1) and (v.degree & 1) else 1
                if uv != vu.scale(sign):
                    raise ConstructionError(f"product not graded commutative on ({u}, {v})")
                left = self.apply_d(uv)
                right = self.mu_vec(differentials[i], v) + self.mu_vec(
                    u, differentials[j]
                ).scale(-1 if u.degree & 1 else 1)
                if left != right:
                    raise ConstructionError(f"Leibniz rule fails on ({u}, {v})")
        # (uv)w = u(vw) holds at once where uv and vw are both zero, so for a
        # zero uv only the w with a nonzero vw are checked, in the same order.
        # Every zero vector equals every other, so one stands for a zero side.
        everything, zero = range(len(vectors)), self.zero(0)
        for i, u in enumerate(vectors):
            for j, v in enumerate(vectors):
                uv = products[i].get(j)
                for k in everything if uv is not None else products[j]:
                    w, vw = vectors[k], products[j].get(k)
                    left = zero if uv is None else self.mu_vec(uv, w)
                    right = zero if vw is None else self.mu_vec(u, vw)
                    if left != right:
                        raise ConstructionError(f"product not associative on ({u}, {v}, {w})")

    # -- plain-text serialization ----------------------------------------------

    def dumps(self) -> str:
        lines = []
        if self.name:
            lines.append(f"algebra {self.name}")
        for deg in self.degrees:
            for label in self.labels(deg):
                lines.append(f"basis {label} {deg}")
        for deg in self.degrees:
            for label in self.labels(deg):
                for dst in self.labels(deg + 1):
                    c = self.d.get(label, {}).get(dst)
                    if c:
                        lines.append(f"d {label} {dst} {c}")
        ordered = [label for deg in self.degrees for label in self.labels(deg)]
        for a in ordered:
            for b in ordered:
                row = self.mu.get((a, b))
                if not row:
                    continue
                for dst in ordered:
                    c = row.get(dst)
                    if c:
                        lines.append(f"mu {a} {b} {dst} {c}")
        return "\n".join(lines) + "\n"

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
                    basis.setdefault(int(fields[2]), []).append(fields[1])
                elif kind == "d" and len(fields) == 4:
                    d.setdefault(fields[1], {})[fields[2]] = Fraction(fields[3])
                elif kind == "mu" and len(fields) == 5:
                    mu.setdefault((fields[1], fields[2]), {})[fields[3]] = Fraction(fields[4])
                else:
                    raise ValueError(f"unrecognized record {kind!r}")
            except (ValueError, ZeroDivisionError) as exc:
                raise ConstructionError(f"line {lineno}: {exc}") from exc
        return cls(basis, d, mu, name=name)


# -- exact cohomology ----------------------------------------------------------


class Cohomology:
    """Per-degree basis of ker d / im d with representative cocycles."""

    def __init__(self, algebra: FiniteGradedAlgebra):
        self.algebra = algebra
        self._reps: dict = {}
        self._im_cols: dict = {}
        for k in algebra.degrees:
            dim_k = algebra.dim(k)
            dk = algebra.d_matrix(k)
            kernel = linalg.nullspace(dk, dim_k) if dim_k else []
            dprev = algebra.d_matrix(k - 1)
            if algebra.dim(k - 1):
                _, pivots = linalg.rref(dprev)
                im_cols = [[dprev[r][c] for r in range(dim_k)] for c in pivots]
            else:
                im_cols = []
            stacked = linalg.from_columns(im_cols + kernel, dim_k)
            _, pivots = linalg.rref(stacked) if dim_k else ([], [])
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
    """Linear map between finite algebras that changes degree by `shift`, one
    exact matrix per source degree (dst.dim(deg + shift) rows x src.dim(deg)
    columns).  Cochain maps have shift 0; a homotopy has shift -1."""

    def __init__(self, src: FiniteGradedAlgebra, dst: FiniteGradedAlgebra, blocks, shift: int = 0):
        self.src = src
        self.dst = dst
        self.shift = shift
        self.blocks = {}
        for deg, m in blocks.items():
            rows, cols = dst.dim(deg + shift), src.dim(deg)
            if len(m) != rows or any(len(row) != cols for row in m):
                raise DimensionError(f"block for degree {deg} is not {rows} x {cols}")
            self.blocks[deg] = [[exact(c) for c in row] for row in m]
        # Column j of a block as (row, coefficient) pairs of its nonzero entries.
        self._columns = {
            deg: [tuple((r, row[j]) for r, row in enumerate(m) if row[j]) for j in range(src.dim(deg))]
            for deg, m in self.blocks.items()
        }

    @classmethod
    def from_function(cls, src, dst, fn, shift: int = 0) -> "CochainMap":
        """Sample the linear map `fn` on the basis of every degree of `src`."""
        blocks = {}
        for deg in src.degrees:
            cols = [fn(v).coeffs for v in src.basis_vectors(deg)]
            blocks[deg] = linalg.from_columns(cols, dst.dim(deg + shift))
        return cls(src, dst, blocks, shift)

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


def check_ring_isomorphism(fmap: CochainMap, ha: Cohomology | None = None, hb: Cohomology | None = None) -> RingIsoResult:
    """Does the map induce a graded-ring isomorphism on cohomology?

    Checks per degree that the induced matrix on classes is square and
    invertible, and on all pairs of class representatives that the map sends
    products to products.  Returns witnesses instead of raising.
    """
    ha = ha or cohomology(fmap.src)
    hb = hb or cohomology(fmap.dst)
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
        cols = [list(hb.reduce(fmap.apply(r))) for r in reps]
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
    """The linear map v -> op(form of v), read back in `dst`, sampled on the
    basis of `src`; both are (algebra, word forms, reader) triples, and a
    SpanError names `op` as `name` and v by its text."""
    (a, forms, _), (b, _, read) = src, dst

    def fn(v: FiniteVector) -> FiniteVector:
        form = Form.zero(forms["1"].model, v.degree)
        for c, label in zip(v.coeffs, a.labels(v.degree)):
            if c:
                form = form + forms[label].scale(c)
        row = read(op(form), name, (str(v),))
        degree = v.degree + shift
        return FiniteVector(b, degree, [row.get(label, 0) for label in b.labels(degree)])

    return CochainMap.from_function(a, b, fn, shift)


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

    The three maps are sampled once through the symbolic operators and then
    applied as exact matrices, which keeps exhaustive transfer sweeps over
    all basis tuples cheap.
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
