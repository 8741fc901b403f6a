from fractions import Fraction

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


entries = st.one_of(
    st.integers(-3, 3), st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rref_matches_the_all_fraction_reference(a):
    red, pivots = linalg.rref(a)
    assert (red, pivots) == _reference_rref(a)
    assert linalg.rank(a) == len(pivots)
    cols = len(a[0])
    for v in linalg.nullspace(a, cols):
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)
    b = [sum(row) for row in a]  # a times the all-ones vector: consistent
    x = linalg.solve_exact(a, b)
    assert [sum(p * q for p, q in zip(row, x)) for row in a] == b


def test_int_matrices_stay_int():
    # an identity has every pivot 1: nothing is divided, so no Fraction is made
    k = 30
    assert all(type(x) is int for row in linalg.identity(k) + linalg.zeros(2, 3) for x in row)
    red, pivots = linalg.rref(linalg.identity(k))
    assert pivots == list(range(k)) and all(type(x) is int for row in red for x in row)
    kernel = linalg.nullspace(linalg.zeros(2, k), k)
    assert kernel == linalg.identity(k) and all(type(x) is int for v in kernel for x in v)
    red, _ = linalg.rref([[2, 4], [1, 3]])
    assert red == [[1, 0], [0, 1]]
    assert linalg.inverse([[2, 0], [0, 4]]) == [[Fraction(1, 2), 0], [0, Fraction(1, 4)]]


def test_solve_exact_refuses_an_inconsistent_system():
    assert linalg.solve_exact([[1, 0], [0, 0]], [1, 1]) is None
