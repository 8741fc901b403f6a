"""Exact sparse linear algebra over the rationals: one elimination.

A matrix is a list of sparse columns, {row: value} dicts or their (row,
value) pairs.  `eliminate` reduces each column, in order, against the
columns kept before it (LaMacchia and Odlyzko's structured Gaussian
elimination, CRYPTO 1990, without the reordering); `rank`, `kernel`,
`solve` and the dense adapters `rref` and `inverse` read its answers.

The pivot rule: a kept column has its pivot at its smallest row.  A new
column is cleared from its smallest row up by the kept columns pivoted
there, which change only larger rows, so the fill stays inside the blocks
of a block-diagonal matrix such as the Lefschetz power matrix.  The column
is kept at its first row that no pivot clears; if nothing is left, the
multiples taken are its combination of the earlier independent columns.

That combination is unique, so the independent columns, the combinations
and the kernel basis (one vector per dependent column, 1 at its own index)
are those of the unique reduced row echelon form, whatever the pivot rule:
the cohomology representatives `finite` chooses with them are those dense
Gauss-Jordan chose.  Ints stay ints: a pivot of +-1 divides without a
Fraction, and every integral value is stored as an int.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush

from .poly import exact


def eliminate(columns):
    """Yield, for each of `columns` in order, None when it is independent of
    the columns before it, else its combination {index: coefficient} of the
    earlier independent columns (indices into `columns`)."""
    kept = {}  # pivot row -> (reduced column, its combination {index: coefficient})
    for j, column in enumerate(columns):
        v = {r: x for r, x in dict(column).items() if x}
        taken = {}  # v = column - sum of taken[i] * columns[i]
        rows = list(v)
        heapify(rows)
        while rows:
            r = heappop(rows)
            x = v.get(r)
            if x is None:  # cleared, or a row pushed twice
                continue
            if r not in kept:
                break
            pivot, combination = kept[r]
            p = pivot[r]
            f = x * p if p == 1 or p == -1 else exact(Fraction(x, p))
            for s, y in pivot.items():  # clears row r and changes larger rows only
                if s not in v:
                    heappush(rows, s)
                if z := exact(v.get(s, 0) - f * y):
                    v[s] = z
                else:
                    del v[s]
            for i, c in combination.items():
                taken[i] = taken.get(i, 0) + f * c
        taken = {i: e for i, c in taken.items() if (e := exact(c))}
        if v:
            kept[r] = (v, {j: 1, **{i: -c for i, c in taken.items()}})
            yield None
        else:
            yield taken


def rank(columns) -> int:
    return sum(combination is None for combination in eliminate(columns))


def kernel(columns):
    """A basis of the right kernel, one vector per dependent column j: 1 at
    j and minus its combination at the earlier independent columns, as a
    {index: coefficient} dict in index order."""
    found = enumerate(eliminate(columns))
    return [dict(sorted({j: 1, **{i: -c for i, c in combo.items()}}.items())) for j, combo in found if combo is not None]


def solve(columns, target):
    """The combination {index: coefficient} of the independent `columns`
    that is `target`, or None when `target` is outside their span."""
    *_, combination = eliminate([*columns, target])
    return combination


def _columns(a):
    """The sparse columns of the dense matrix `a`, a list of rows."""
    return [{r: x for r, x in enumerate(column) if x} for column in zip(*a)]


def rref(a):
    """Reduced row echelon form of the dense matrix `a` and its pivot
    columns, read off `eliminate`: a pivot column holds a unit, a dependent
    column its combination of the pivot columns."""
    combinations = list(eliminate(_columns(a)))
    pivots = [j for j, combination in enumerate(combinations) if combination is None]
    row_of = {p: r for r, p in enumerate(pivots)}
    red = [[0] * len(combinations) for _ in a]
    for j, combination in enumerate(combinations):
        for i, c in ({j: 1} if combination is None else combination).items():
            red[row_of[i]][j] = c
    return red, pivots


def inverse(a):
    """Exact inverse of the square dense matrix `a`; ValueError if
    singular.  Column i of the inverse is the combination of a's columns
    that is the unit column e_i."""
    k = len(a)
    combinations = list(eliminate(_columns(a) + [{i: 1} for i in range(k)]))
    if any(combination is not None for combination in combinations[:k]):
        raise ValueError("matrix is singular")
    return [[combinations[k + i].get(r, 0) for i in range(k)] for r in range(k)]
