"""Small independent references for the correctness stage.

Nothing here uses ruminalg.  A form is a dict from a strictly increasing
coframe index tuple (0 = theta, 1..n = dx_i, n+1..2n = dy_i) to a polynomial,
and a polynomial is a dict from an exponent tuple over (x_1..x_n, y_1..y_n, z)
to a nonzero Fraction.  The exterior derivative is derived here from the
coordinate formula df = f_z dz + sum_i f_xi dx_i + f_yi dy_i with
dz = theta + sum_i y_i dx_i and d(theta) = sum_i dx_i ^ dy_i.
"""

from __future__ import annotations

from fractions import Fraction


def _clean(d: dict) -> dict:
    return {k: v for k, v in d.items() if v}


def poly_add_into(acc: dict, p: dict, scale=1) -> None:
    for ex, c in p.items():
        acc[ex] = acc.get(ex, 0) + scale * c
        if not acc[ex]:
            del acc[ex]


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            ex = tuple(x + y for x, y in zip(ea, eb))
            out[ex] = out.get(ex, 0) + ca * cb
    return _clean(out)


def poly_deriv(p: dict, var: int) -> dict:
    out: dict = {}
    for ex, c in p.items():
        if ex[var]:
            lowered = list(ex)
            lowered[var] -= 1
            key = tuple(lowered)
            out[key] = out.get(key, 0) + c * ex[var]
    return _clean(out)


def sorted_with_sign(indices):
    """Sort a tuple of distinct indices by adjacent swaps; (sign, sorted)."""
    seq = list(indices)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign, tuple(seq)


def wedge(a: dict, b: dict) -> dict:
    out: dict = {}
    for ia, pa in a.items():
        for ib, pb in b.items():
            if set(ia) & set(ib):
                continue
            sign, idx = sorted_with_sign(ia + ib)
            poly_add_into(out.setdefault(idx, {}), poly_mul(pa, pb), sign)
    return {idx: p for idx, p in out.items() if p}


def exterior_d(w: dict, n: int) -> dict:
    nvars = 2 * n + 1
    z = 2 * n
    one = {(0,) * nvars: Fraction(1)}
    out: dict = {}
    for idx, f in w.items():
        fz = poly_deriv(f, z)
        one_form = {(0,): fz}  # f_z dz, theta part
        for i in range(1, n + 1):
            y_i = [0] * nvars
            y_i[n + i - 1] = 1
            dx_coeff = dict(poly_deriv(f, i - 1))
            poly_add_into(dx_coeff, poly_mul(fz, {tuple(y_i): Fraction(1)}))
            one_form[(i,)] = dx_coeff  # f_xi dx_i + f_z y_i dx_i
            one_form[(n + i,)] = poly_deriv(f, n + i - 1)
        one_form = {k: v for k, v in one_form.items() if v}
        for k, p in wedge(one_form, {idx: one}).items():
            poly_add_into(out.setdefault(k, {}), p)
        if idx and idx[0] == 0:  # d(theta ^ rest) = dtheta ^ rest
            dtheta = {(i, n + i): one for i in range(1, n + 1)}
            for k, p in wedge(dtheta, {idx[1:]: f}).items():
                poly_add_into(out.setdefault(k, {}), p)
    return {idx: p for idx, p in out.items() if p}


def rank(rows) -> int:
    """Rank of a matrix (list of rows of numbers) by Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r
