"""Dense exact linear algebra over the rationals.

Matrices are lists of row lists of Fraction.  Everything here is plain
Gauss-Jordan elimination; sizes stay small (finite-model complexes and the
rank checks of the `lefschetz-iso` suite), so no pivoting strategy beyond
"first nonzero".
"""

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def zeros(rows: int, cols: int):
    return [[_ZERO] * cols for _ in range(rows)]


def identity(k: int):
    m = zeros(k, k)
    for i in range(k):
        m[i][i] = _ONE
    return m


def rref(a):
    """Reduced row echelon form; returns (matrix copy, pivot column list)."""
    m = [list(map(Fraction, row)) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        if inv != 1:
            m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a) -> int:
    if not a:
        return 0
    return len(rref(a)[1])


def inverse(a):
    """Exact inverse of a square matrix; ValueError if singular."""
    k = len(a)
    aug = [list(row) + list(identity(k)[i]) for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots[:k] != list(range(k)):
        raise ValueError("matrix is singular")
    return [row[k:] for row in red[:k]]


def nullspace(a, cols: int | None = None):
    """Basis of the right kernel, as a list of column vectors.  `cols` must
    be given when `a` has no rows (the kernel is then everything)."""
    if not a:
        if cols is None:
            return []
        return [row[:] for row in identity(cols)]
    cols = len(a[0])
    red, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [_ZERO] * cols
        v[fc] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve_exact(a, b):
    """Solve a*x = b for a consistent system; returns one solution vector or
    None if inconsistent.  `b` is a single column vector."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [list(a[i]) + [b[i]] for i in range(rows)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [_ZERO] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def from_columns(cols, nrows: int):
    if not cols:
        return [[] for _ in range(nrows)]
    return [[col[i] for col in cols] for i in range(nrows)]
