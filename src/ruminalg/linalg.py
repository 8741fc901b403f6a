"""Dense exact linear algebra over the rationals.

Matrices are lists of row lists of ints and Fractions.  Everything here is
plain Gauss-Jordan elimination; sizes stay small (finite-model complexes and
the rank checks of the `lefschetz-iso` suite), so no pivoting strategy beyond
"first nonzero".  Int entries stay ints: a Fraction is made only where a
pivot row is divided by a pivot other than 1, and the zeros, identities and
kernel vectors built here hold ints.
"""

from fractions import Fraction


def zeros(rows: int, cols: int):
    return [[0] * cols for _ in range(rows)]


def identity(k: int):
    m = zeros(k, k)
    for i in range(k):
        m[i][i] = 1
    return m


def rref(a):
    """Reduced row echelon form; returns (matrix copy, pivot column list)."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        p = m[r][c]
        if p != 1:
            m[r] = [Fraction(x, p) if x else 0 for x in m[r]]
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


def nullspace(a, cols: int):
    """Basis of the right kernel of `a`, a matrix with `cols` columns, as a
    list of column vectors.  `cols` is needed when `a` has no rows (the
    kernel is then everything)."""
    if not a:
        return identity(cols)
    red, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * cols
        v[fc] = 1
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
    x = [0] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def from_columns(cols, nrows: int):
    if not cols:
        return [[] for _ in range(nrows)]
    return [[col[i] for col in cols] for i in range(nrows)]
