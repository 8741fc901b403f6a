from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruminalg import linalg


def _reference_rref(a):
    """Gauss-Jordan with every entry a Fraction: the pivot row divided by
    its pivot, then cleared from every other row."""
    m = [[Fraction(x) for x in row] for row in a]
    rows, cols = len(m), len(m[0]) if m else 0
    pivots, r = [], 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def _columns(a):
    """The sparse columns {row: value} of the dense matrix `a`."""
    return [{r: x for r, x in enumerate(column) if x} for column in zip(*a)]


def _dense(vector, size):
    return [vector.get(i, 0) for i in range(size)]


entries = st.one_of(
    st.integers(-3, 3), st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


@st.composite
def matrices(draw):
    # empty (no rows, or rows of no columns), all-zero and one-column
    # matrices come up among the rest
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    cells = st.just(0) if draw(st.integers(0, 9)) == 0 else entries
    return [draw(st.lists(cells, min_size=cols, max_size=cols)) for _ in range(rows)]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_matches_the_all_fraction_reference(a):
    red, pivots = _reference_rref(a)
    assert linalg.rref(a) == (red, pivots)
    cols = len(a[0]) if a else 0
    columns = _columns(a)
    assert linalg.rank(columns) == len(pivots)
    # the kernel: one vector per free column, read off the reference
    free = [c for c in range(cols) if c not in pivots]
    expected = []
    for fc in free:
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        expected.append(v)
    kernel = linalg.kernel(columns)
    assert [_dense(v, cols) for v in kernel] == expected
    # a times the all-ones vector: consistent, and the solution over the
    # pivot columns is the reference's
    b = {r: x for r, row in enumerate(a) if (x := sum(row))}
    x = linalg.solve(columns, b)
    assert set(x) <= set(pivots)
    assert [x.get(pc, 0) for pc in pivots] == [sum(red[r][:cols]) for r in range(len(pivots))]
    # every coefficient is stored: an int when integral, never zero
    values = [c for v in kernel + [x] for c in v.values()]
    assert all(c and (type(c) is int or c.denominator > 1) for c in values)
    if len(a) == cols:
        # the inverse is the right half of the reference's [a | 1]
        unit = [[int(i == j) for j in range(cols)] for i in range(cols)]
        aug_red, aug_pivots = _reference_rref([row + unit_row for row, unit_row in zip(a, unit)])
        if aug_pivots[:cols] == list(range(cols)):
            assert linalg.inverse(a) == [row[cols:] for row in aug_red]
        else:
            with pytest.raises(ValueError):
                linalg.inverse(a)


def test_int_matrices_stay_int():
    # an identity has every pivot 1 and a multiple of a column has an int
    # combination: nothing is divided, so no Fraction is made
    k = 30
    identity = [[int(i == j) for j in range(k)] for i in range(k)]
    red, pivots = linalg.rref(identity)
    assert pivots == list(range(k)) and all(type(x) is int for row in red for x in row)
    kernel = linalg.kernel([{}] * k)
    assert kernel == [{i: 1} for i in range(k)] and all(type(x) is int for v in kernel for x in v.values())
    assert linalg.kernel([{0: 2, 3: 4}, {0: 6, 3: 12}]) == [{0: -3, 1: 1}]
    assert all(type(x) is int for x in linalg.solve([{0: 2}, {1: -4}], {0: 6, 1: 8}).values())
    red, _ = linalg.rref([[2, 4], [1, 3]])
    assert red == [[1, 0], [0, 1]]
    assert linalg.inverse([[2, 0], [0, 4]]) == [[Fraction(1, 2), 0], [0, Fraction(1, 4)]]
    assert linalg.solve([{0: 2}], {0: 1}) == {0: Fraction(1, 2)}


def test_solve_refuses_an_inconsistent_system():
    assert linalg.solve([{0: 1}, {}], {0: 1, 1: 1}) is None

