"""Generic machinery for strongly homotopy associative structures.

Everything here is agnostic about the underlying graded vector space: an
element only needs a ``degree`` attribute, ``+``, ``scale``, ``is_zero``,
``zero_of_degree``, exact equality and a hash that agrees with it (the
operator memos are keyed by elements).  The symbolic forms of
`ruminalg.forms`, the Rumin elements of `ruminalg.rumin` and the
finite-dimensional vectors of `ruminalg.finite` qualify.

Sign conventions (the single source of truth for the whole package):

* Moving graded objects past each other costs (-1)^(product of degrees).
  For a permutation s acting on homogeneous letters with given degrees, the
  Koszul sign is the product of (-1)^(deg_i * deg_j) over the inversion
  pairs i < j with s(i) > s(j).
* Applying a tensor word of operators (g_1 x ... x g_r) to elements costs,
  for each operator, (-1)^(deg(g) * sum of degrees of the elements consumed
  by operators to its left): an operator of odd degree anticommutes with the
  elements it jumps over.

Relation checkers return the would-be-zero residual element rather than a
boolean so that failures carry witnesses.  They do only the work their
operator values need:

* The shuffle sums read their signs and words from one cached table,
  `_signed_shuffles`, keyed by (p, q), the parities of the degrees and the
  `koszul_sign` in force, fetched at call time, so each sign is computed
  once per parity pattern; each word is picked by the `operator.itemgetter`
  stored with it in that table.
* Every memo (an operator family's, and psi's, h psi's and the lift's in
  the transfer) is a dict whose `__missing__` computes the value, and the
  evaluator is its `__getitem__`, so a hit is one C call.  Hashing the key
  calls each element's `__hash__`: Python code for forms and Rumin
  elements, but none for the interned vectors of `ruminalg.finite`, which
  hash by identity in C.
* The insertion sums and the transfer's psi read each Koszul sign off a
  running prefix parity of the degrees and build no tensor word.
* A value that is zero is neither scaled nor added, and an operator is not
  applied to a block holding a zero value (every operator is multilinear).
  A relation whose terms all vanish still returns a zero of the relation's
  codomain.

The homotopy transfer (`markl_transfer`, after Markl, math/0401007) runs
over a `RetractData`, which checks the retract identities on its samples
when it is built and raises `RetractError` when one fails: a retract that
exists has passed them, so the transfer needs no check of its own.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import combinations
from operator import itemgetter

from .errors import DomainError


def permutation_sign(perm) -> int:
    """Parity sign of a permutation given as a tuple (perm[i] = image of i)."""
    inv = 0
    k = len(perm)
    for i in range(k):
        for j in range(i + 1, k):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv & 1 else 1


def koszul_sign(perm, degrees) -> int:
    """Koszul sign of `perm` acting on homogeneous letters of the given
    degrees: product of (-1)^(degrees[i]*degrees[j]) over inversions."""
    if len(perm) != len(degrees):
        raise DomainError(f"permutation size {len(perm)} != degree count {len(degrees)}")
    sign = 1
    k = len(perm)
    for i in range(k):
        for j in range(i + 1, k):
            if perm[i] > perm[j] and (degrees[i] & 1) and (degrees[j] & 1):
                sign = -sign
    return sign


def shuffles(p: int, q: int):
    """All permutations s of {0..p+q-1} that are increasing on the first p
    and the last q positions, as tuples with s[i] = image of position i.
    Ordered lexicographically by the image set of the first block; count
    is binomial(p+q, p)."""
    if p < 1 or q < 1:
        raise DomainError("shuffle block sizes must be positive")
    out = []
    positions = range(p + q)
    for first_block in combinations(positions, p):
        rest = [x for x in positions if x not in first_block]
        perm = list(first_block) + rest
        out.append(tuple(perm))
    return out


def shuffle_product(p: int, q: int, elements):
    """Signed sum of shuffled tensor words.

    Returns a tuple of (sign, word, pick) triples where `word` is a tuple of
    indices into `elements`: position r of the output word holds element
    word[r], and `pick` is the `operator.itemgetter` of `word`, so
    pick(elements) is that shuffled tuple.  The sign is sgn(s) times the
    Koszul sign of s on the element degrees, so e.g. for p = q = 1 the
    result is  x0 (x) x1  minus  (-1)^(|x0||x1|) x1 (x) x0.
    """
    if len(elements) != p + q:
        raise DomainError(f"expected {p + q} elements, got {len(elements)}")
    parities = tuple([e.degree & 1 for e in elements])
    return _signed_shuffles(p, q, parities, koszul_sign)


@cache
def _signed_shuffles(p: int, q: int, parities: tuple, koszul):
    """(sgn(s) * koszul(s, parities), word, itemgetter(*word)) for every
    (p, q)-shuffle s, where word[s[i]] = i.  A Koszul sign depends on the
    degrees only through their parities, so the table is shared by every
    tuple of that parity pattern, and so is each word's picker (p, q >= 1,
    so a picker always returns a tuple).  `koszul` is part of the key:
    callers pass the module's `koszul_sign` as it is at call time, so a
    replaced one never meets a stale entry."""
    table = []
    for perm in shuffles(p, q):
        word = [0] * (p + q)
        for src, dst in enumerate(perm):
            word[dst] = src
        sign = permutation_sign(perm) * koszul(perm, parities)
        table.append((sign, tuple(word), itemgetter(*word)))
    return tuple(table)


def apply_tensor_ops(ops, elements):
    """Apply a tensor word of operators to consecutive blocks of elements.

    `ops` is a list of (callable, arity, degree) triples whose arities sum to
    len(elements); each callable receives its block as a tuple.  Returns
    (sign, outputs) where the Koszul sign collects, for every operator,
    (-1)^(op degree * total degree of the elements left of its block).
    """
    total = sum(arity for _, arity, _ in ops)
    if total != len(elements):
        raise DomainError(f"operator arities sum to {total}, got {len(elements)} elements")
    sign = 1
    outputs = []
    pos = 0
    seen_degree = 0
    for fn, arity, degree in ops:
        block = tuple(elements[pos : pos + arity])
        if (degree & 1) and (seen_degree & 1):
            sign = -sign
        outputs.append(fn(block))
        seen_degree += sum(e.degree for e in block)
        pos += arity
    return sign, tuple(outputs)


IDENTITY_ENTRY = (lambda block: block[0], 1, 0)  # the identity as an apply_tensor_ops entry


class GradedOpSet:
    """Arity-indexed family of multilinear operators given as evaluators.

    `ops` maps arity k to a callable on k-tuples; `degree_fn(k)` declares the
    operator degree (2-k for product-type families, 1-k for morphism-type).
    Arities outside `ops` fall back to `zero_maker(k, elements)` when given;
    otherwise they raise (arity shortfall).

    Every arity in `ops` is memoized: `op(k)` is the `__getitem__` of a
    `_Memo` dict keyed by the block tuple, so a block it has seen costs one
    C call, and `ops[k]` runs only on a miss.  `ops[k]` is looked up at
    miss time, so an entry replaced after the family is built (the
    benchmark's tracer wraps them) answers every later miss.  The memo
    belongs to this instance and lives as long as the family (the seeded
    suites build their families per trial), and a family built from
    another's `ops` starts empty.  The zero-maker arities are not memoized.
    """

    def __init__(self, ops, degree_fn, zero_maker=None, name: str = ""):
        self.ops = dict(ops)
        self.degree_fn = degree_fn
        self.zero_maker = zero_maker
        self.name = name
        self._memo_ops: dict = {}  # arity -> its evaluator, built once

    def degree(self, k: int) -> int:
        return self.degree_fn(k)

    def op(self, k: int):
        fn = self._memo_ops.get(k)
        if fn is None:
            if k in self.ops:
                fn = _memoized(lambda block: self.ops[k](block))
            elif self.zero_maker is not None:
                fn = partial(self.zero_maker, k)
            else:
                raise DomainError(f"{self.name or 'operator family'} has no arity-{k} operator")
            self._memo_ops[k] = fn
        return fn

    def __call__(self, k: int, elements):
        return self.op(k)(tuple(elements))

    def entry(self, k: int):
        """(callable, arity, degree) triple for apply_tensor_ops."""
        return (self.op(k), k, self.degree(k))


def check_stasheff(mset: GradedOpSet, n: int, elements):
    """Residual of the n-th associativity-up-to-homotopy relation

        sum over r+s+t=n of (-1)^(r+st) m_{r+t+1} (1^r (x) m_s (x) 1^t)

    on the given n-tuple; zero for a genuine homotopy-associative family.
    """
    elements = tuple(elements)
    if len(elements) != n:
        raise DomainError(f"relation {n} needs an {n}-tuple, got {len(elements)}")
    return _insertion_sum(mset, mset, n, elements)


def _insertion_sum(outer_set: GradedOpSet, mset: GradedOpSet, n: int, elements):
    """sum over r+s+t=n of (-1)^(r+st) outer_{r+t+1} (1^r (x) m_s (x) 1^t) on
    the n-tuple `elements`.

    m_s moves past the first r elements, so the term also carries
    (-1)^(|m_s| * (|x_1| + ... + |x_r|)), read off a running prefix parity.
    The outer operator is multilinear, so a term whose m_s value is zero is
    skipped, except r = t = 0: that term runs last, and when every term
    vanishes its zero (outer_1 of a zero) is the residual, in the outer
    operator's codomain."""
    prefix = [0]  # prefix[r] = parity of |x_1| + ... + |x_r|
    for e in elements:
        prefix.append(prefix[-1] ^ (e.degree & 1))
    residual = value = None
    for s in range(1, n + 1):
        inner, odd = mset.op(s), mset.degree(s) & 1
        for r in range(0, n - s + 1):
            t = n - s - r
            mid = inner(elements[r : r + s])
            if mid.is_zero() and (r or t):
                continue
            value = outer_set.op(r + t + 1)(elements[:r] + (mid,) + elements[r + s :])
            if value.is_zero():
                continue
            sign = -1 if (odd and prefix[r]) ^ ((r + s * t) & 1) else 1
            term = value.scale(sign)
            residual = term if residual is None else residual + term
    return value if residual is None else residual


def compositions(n: int, r: int):
    """All r-tuples of positive integers summing to n."""
    if r == 1:
        yield (n,)
        return
    for first in range(1, n - r + 2):
        for rest in compositions(n - first, r - 1):
            yield (first,) + rest


def check_morphism(fset: GradedOpSet, mset: GradedOpSet, mbar: GradedOpSet, n: int, elements):
    """Residual of the n-th morphism relation for f: (A, m) -> (B, mbar):

        sum (-1)^(r+st) f_{r+t+1} (1^r (x) m_s (x) 1^t)
      - sum over decompositions i_1+..+i_r = n of
        (-1)^l mbar_r (f_{i_1} (x) ... (x) f_{i_r}),
        l = sum_j (r-j)(i_j - 1).
    """
    elements = tuple(elements)
    if len(elements) != n:
        raise DomainError(f"relation {n} needs an {n}-tuple, got {len(elements)}")
    residual = _insertion_sum(fset, mset, n, elements)
    for r in range(1, n + 1):
        for comp in compositions(n, r):
            sign, mids = apply_tensor_ops([fset.entry(i) for i in comp], elements)
            if any(m.is_zero() for m in mids):
                continue  # mbar_r is multilinear
            ell = sum((r - j) * (comp[j - 1] - 1) for j in range(1, r + 1))
            residual = residual + mbar(r, mids).scale(-sign * (-1) ** ell)
    return residual


def shuffle_vanishing_residual(opset: GradedOpSet, p: int, q: int, elements):
    """Residual of op_{p+q} composed with the (p,q)-shuffle sum; zero is the
    graded-commutativity constraint distinguishing the commutative case.

    Each shuffled word is picked by the picker stored with its sign in the
    shuffle table.  Values that are zero are neither scaled nor added; when
    all of them are, the last one is returned, a zero in the operator's
    codomain."""
    elements = tuple(elements)
    op = opset.op(p + q)
    residual = value = None
    for sign, _, pick in shuffle_product(p, q, elements):
        value = op(pick(elements))
        if not value.is_zero():
            term = value.scale(sign)
            residual = term if residual is None else residual + term
    return value if residual is None else residual


class RetractError(DomainError):
    """A `RetractData` failed its identities.  `issues` holds each failure
    as an (identity, sample, nonzero residual) triple."""

    def __init__(self, name: str, issues):
        self.issues = issues
        failed = "; ".join(dict.fromkeys(identity for identity, _, _ in issues))
        super().__init__(f"{name or 'retract'} fails its identities: {failed}")


class RetractData:
    """A deformation retract (i, pi, h) of a commutative differential graded
    algebra (A, d, mu) onto a subcomplex B with differential b_d.

    All fields are callables: d(a), mu(a, b), h(a) of degree -1, i(b), pi(a)
    and b_d(b).  The constructor checks the retract identities on the sample
    elements -- i pi = 1 - dh - hd and pi d = d pi on `a_samples`, pi i = 1
    and d i = i d on `b_samples` -- and raises `RetractError` when one fails,
    so a retract that exists has passed them.
    """

    def __init__(self, d, mu, h, i, pi, b_d, a_samples, b_samples, name: str = ""):
        self.d = d
        self.mu = mu
        self.h = h
        self.i = i
        self.pi = pi
        self.b_d = b_d
        self.name = name
        issues = []

        def expect_zero(identity, sample, residual):
            if not residual.is_zero():
                issues.append((identity, sample, residual))

        # d(h(a)) and h(d(a)) come before pi(a): a pi that reads values its
        # arguments keep (rumin.pi reads a kept d of a and of h(a)) then finds
        # them instead of computing each twice
        for a in a_samples:
            da = d(a)
            homotopy = a - d(h(a)) - h(da)
            pa = pi(a)
            expect_zero("i pi = 1 - dh - hd", a, i(pa) - homotopy)
            expect_zero("pi d = d pi", a, pi(da) - b_d(pa))
        for b in b_samples:
            ib = i(b)
            dib = d(ib)
            expect_zero("pi i = 1", b, pi(ib) - b)
            expect_zero("d i = i d", b, dib - i(b_d(b)))
        if issues:
            raise RetractError(name, issues)


class _Memo(dict):
    """A dict that fills a missing key with `fn(key)` and keeps it."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _memoized(fn):
    """`fn` of one hashable argument, memoized: the returned evaluator is the
    `__getitem__` of a `_Memo` dict owned by it, so a hit is one C call and
    only a miss runs Python code (`fn`, whose value is then stored).  A miss
    whose `fn` raises stores nothing."""
    return _Memo(fn).__getitem__


def markl_transfer(retract: RetractData, max_arity: int):
    """Transferred homotopy structure on the subcomplex of a deformation
    retract, together with the quasi-isomorphism back to A.

    The evaluators realize the recursion

        psi_n = sum over s+t=n of (-1)^(s+1) mu(h psi_s (x) h psi_t),

    with h psi_1 = -1_A; h psi_t (degree 1 - t) jumping x_1 .. x_s costs
    (-1)^((1 - t)(|x_1| + ... + |x_s|)), read off a running prefix parity.
    They return the families

        m_1 = d,   m_k = pi psi_k i^(x k)      (k >= 2),
        f_1 = i,   f_k = -h psi_k i^(x k)      (k >= 2),

    defined through arity `max_arity` (beyond which requesting an operator
    raises).  psi skips a term without calling mu when h psi_s is zero (not
    evaluating h psi_t) or h psi_t is; when every term is skipped, psi_n is
    the zero of degree sum |x_i| + 2 - n.

    m_k and f_k are memoized per block of B by their `GradedOpSet`s.  Inside,
    psi_k and h psi_k are memoized per block of A (h psi_1 = -x too, so a
    suffix met again is not negated again) and i per element of B, each
    with `_memoized`.  Each memo is a dict owned by this call's evaluators
    or families: it lives as long as the returned families and is never
    shared with another call, so a new call (after a monkeypatch, say)
    recomputes everything.
    """
    if max_arity < 2:
        raise DomainError("transfer needs max_arity >= 2")

    h, mu, pi = retract.h, retract.mu, retract.pi
    lift = _memoized(retract.i)
    psi: dict = {}
    h_psi = {1: _memoized(lambda block: block[0].scale(-1))}

    def psi_op(k: int):
        def psi_k(elements):
            total, prefix = None, 0  # prefix: parity of |x_1| + ... + |x_s|
            for s in range(1, k):
                prefix ^= elements[s - 1].degree & 1
                u = h_psi[s](elements[:s])
                if u.is_zero() or (v := h_psi[k - s](elements[s:])).is_zero():
                    continue
                term = mu(u, v).scale(-1 if (prefix * (1 - k + s) + s + 1) & 1 else 1)
                total = term if total is None else total + term
            if total is None:
                return elements[0].zero_of_degree(sum(e.degree for e in elements) + 2 - k)
            return total

        return _memoized(psi_k)

    for k in range(2, max_arity + 1):
        psi[k] = psi_op(k)
        h_psi[k] = _memoized(lambda block, _k=k: h(psi[_k](block)))

    def m_op(k: int):
        if k == 1:
            return lambda block: retract.b_d(block[0])
        return lambda block: pi(psi[k](tuple(map(lift, block))))

    def f_op(k: int):
        if k == 1:
            return lambda block: retract.i(block[0])
        return lambda block: h_psi[k](tuple(map(lift, block))).scale(-1)

    mset = GradedOpSet(
        {k: m_op(k) for k in range(1, max_arity + 1)},
        degree_fn=lambda k: 2 - k,
        name=f"transferred products{' (' + retract.name + ')' if retract.name else ''}",
    )
    fset = GradedOpSet(
        {k: f_op(k) for k in range(1, max_arity + 1)},
        degree_fn=lambda k: 1 - k,
        name=f"transferred morphism{' (' + retract.name + ')' if retract.name else ''}",
    )
    return mset, fset
