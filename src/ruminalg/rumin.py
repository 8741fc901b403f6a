"""The Rumin subcomplex and its transferred algebra structure, in closed form.

The central operator is `gamma`, the contact-invariant degree -1 map that
extracts the non-primitive part of a form.  For a homogeneous w of degree k
on H^{2n+1} it is characterized by

    theta ^ w ^ dtheta^(n+1-k) = gamma(w) ^ dtheta^(n+2-k)     if k <= n,
    theta ^ w = zeta ^ dtheta^(k-n),  gamma(w) = zeta ^ dtheta^(k-n-1)
                                                               if k >= n+1,

where each solve is the inverse of a vertical Lefschetz isomorphism.  Since
dtheta is constant in the adapted coframe, every solve is one cached constant
inverse applied coefficientwise.  Wedging with dtheta only fills coframe pairs
(e^i, e^{n+i}), so the Lefschetz matrix is block diagonal, one block per
pattern of half-filled pairs and at most C(m, m//2) wide for m free pairs;
the solver inverts each block on its own and stores the inverse sparsely,
and a solve touches only the terms of its right-hand side.  The solvers are
write-once, read-many and safe to share across threads.

`pi(w) = w - d gamma(w) - gamma(dw)` projects onto the subcomplex R of forms
that are primitive with primitive differential; gamma is the homotopy of the
resulting deformation retract of the de Rham algebra.  The transferred
structure truncates:

    m1 = d,  m2 = pi(a ^ b),
    m3(a,b,c) = pi( gamma(a^b) ^ c - (-1)^|a| a ^ gamma(b^c) ),
    m_k = 0 for k >= 4;   f1 = inclusion,  f2 = -gamma(a^b),  f_k = 0, k >= 3.

The interior sign of m3 is produced by the generic tensor-word engine of
`ruminalg.cinfty`, not hand-coded, so there is exactly one sign convention
in the package.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .cinfty import GradedOpSet, RetractData, apply_tensor_ops
from .errors import DomainError
from .forms import ContactModel, Form, exterior_d, wedge, wedge_dtheta_power
from .poly import Poly

_ONE = Fraction(1)

# (n, power, lambda) -> block solver: target monomial -> [(source monomial, coefficient)]
_solver_cache: dict = {}


def _block_solver(model: ContactModel, power: int, dtheta_form: Form) -> dict:
    """Inverse of wedging with dtheta_form^power from vertical monomials of
    degree n-power+1 to those of degree n+power+1, as a sparse map from each
    target monomial to the (source monomial, coefficient) pairs of its column.

    Wedging with (a multiple of) dtheta only fills coframe pairs, so the
    monomials fall into small connected blocks (one per pattern of
    half-filled pairs); each block is inverted on its own.  Raises ValueError
    when the power is not an isomorphism.
    """
    one = Poly.one(model.nvars)
    lifted = wedge_dtheta_power(Form.constant(model, one), power, dtheta_form)
    images = {
        s: wedge(Form(model, len(s), {s: one}, _canonical=True), lifted).terms
        for s in model.vertical_monomials(model.n - power + 1)
    }
    sources_of: dict = {}
    for s, image in images.items():
        for t in image:
            sources_of.setdefault(t, []).append(s)
    solver = {}
    placed, reached = set(), set()
    for seed in images:
        if seed in placed:
            continue
        placed.add(seed)
        block_src, block_tgt = [seed], []
        for s in block_src:  # grows while it is walked
            for t in images[s]:
                if t not in reached:
                    reached.add(t)
                    block_tgt.append(t)
                    for s2 in sources_of[t]:
                        if s2 not in placed:
                            placed.add(s2)
                            block_src.append(s2)
        if len(block_src) != len(block_tgt):
            raise ValueError("matrix is singular")
        col = {s: j for j, s in enumerate(block_src)}
        matrix = [[Fraction(0)] * len(block_src) for _ in block_tgt]
        for i, t in enumerate(block_tgt):
            for s in sources_of[t]:
                matrix[i][col[s]] = images[s][t].constant_value()
        inv = linalg.inverse(matrix)
        for i, t in enumerate(block_tgt):
            solver[t] = [(s, inv[j][i]) for j, s in enumerate(block_src) if inv[j][i]]
    return solver


def _lefschetz_solver(model: ContactModel, power: int, lam: Fraction) -> dict:
    key = (model.n, power, lam)
    cached = _solver_cache.get(key)
    if cached is None:
        cached = _solver_cache[key] = _block_solver(model, power, model.dtheta().scale(lam))
    return cached


def _solve_vertical(model: ContactModel, power: int, rhs: Form, lam: Fraction) -> Form:
    """Unique vertical zeta with zeta ^ (lam*dtheta)^power = rhs; the source
    degree is n - power + 1, where the wedge power is an isomorphism."""
    n = model.n
    src_degree = n - power + 1
    if src_degree <= 0:
        # Vertical forms of nonpositive degree vanish, and so must the rhs.
        if not rhs.is_zero():
            raise DomainError("inconsistent Lefschetz system")
        return Form.zero(model, max(src_degree, 0))
    solver = _lefschetz_solver(model, power, lam)
    terms = {}
    for t, p in rhs.terms.items():
        for s, c in solver[t]:
            acc = terms.get(s)
            terms[s] = p.scale(c) if acc is None else acc.add_scaled(p, c)
    terms = {s: p for s, p in terms.items() if not p.is_zero()}
    return Form(model, src_degree, terms, _canonical=True)


def gamma(w: Form, _lam: Fraction = _ONE) -> Form:
    """Contact-invariant degree -1 operator; output is always vertical.

    The private `_lam` recomputes the defining systems with the contact form
    rescaled by a positive constant (used by `gamma_invariance_check`).
    """
    model = w.model
    n, k = model.n, w.degree
    if k <= 0 or k >= 2 * n + 1:
        # Degree 0: the target space of vertical (-1)-forms is trivial.
        # Top degree: theta ^ w vanishes identically.
        return Form.zero(model, max(k - 1, 0))
    theta = model.theta().scale(_lam)
    if k <= n:
        if k == 1:
            return Form.zero(model, 0)  # no vertical 0-forms
        dtheta_form = None if _lam == 1 else model.dtheta().scale(_lam)
        rhs = wedge_dtheta_power(wedge(theta, w), n + 1 - k, dtheta_form)
        return _solve_vertical(model, n + 2 - k, rhs, _lam)
    zeta = _solve_vertical(model, k - n, wedge(theta, w), _lam)
    dtheta_form = None if _lam == 1 else model.dtheta().scale(_lam)
    return wedge_dtheta_power(zeta, k - n - 1, dtheta_form)


def gamma_invariance_check(w: Form, lam) -> bool:
    """Recompute gamma with the contact form rescaled by the positive constant
    `lam` and compare with the unscaled result; always true."""
    lam = Fraction(lam)
    if lam <= 0:
        raise DomainError(f"rescaling must be positive, got {lam}")
    return gamma(w, _lam=lam) == gamma(w)


def is_primitive(w: Form) -> bool:
    """True when (theta ^ w) ^ dtheta^(n+1-k) = 0 with k = |w|; for k >= n+1
    there are no powers left and the test is theta ^ w = 0."""
    model = w.model
    k = w.degree
    tw = wedge(model.theta(), w)
    power = model.n + 1 - k
    if power <= 0:
        return tw.is_zero()
    return wedge_dtheta_power(tw, power).is_zero()


def in_rumin(w: Form) -> bool:
    """Membership test for the subcomplex R: w is primitive and has primitive
    differential.  Agrees with gamma(w) = 0 and gamma(dw) = 0."""
    model = w.model
    n, k = model.n, w.degree
    tw = wedge(model.theta(), w)
    tdw = wedge(model.theta(), exterior_d(w))
    if k <= n:
        return (
            wedge_dtheta_power(tw, n + 1 - k).is_zero()
            and wedge_dtheta_power(tdw, n - k).is_zero()
        )
    return tw.is_zero() and tdw.is_zero()


class RuminElement:
    """A form together with a certificate of membership in R.

    `pi` is the canonical constructor; `certify` wraps a form after an
    explicit membership check.  The structure maps m1/m2/m3 and f2 require
    certified inputs so their preconditions are O(1).
    """

    __slots__ = ("form", "certified")

    def __init__(self, form: Form, certified: bool = False):
        self.form = form
        self.certified = certified

    @property
    def degree(self) -> int:
        return self.form.degree

    @property
    def model(self) -> ContactModel:
        return self.form.model

    def is_zero(self) -> bool:
        return self.form.is_zero()

    def zero_of_degree(self, degree: int) -> "RuminElement":
        return RuminElement(Form.zero(self.form.model, degree), certified=True)

    def scale(self, c) -> "RuminElement":
        return RuminElement(self.form.scale(c), self.certified)

    def __add__(self, other: "RuminElement") -> "RuminElement":
        if not isinstance(other, RuminElement):
            return NotImplemented
        # R is a linear subspace: sums of certified elements stay certified.
        return RuminElement(self.form + other.form, self.certified and other.certified)

    def __sub__(self, other: "RuminElement") -> "RuminElement":
        return self + other.scale(-1)

    def __eq__(self, other) -> bool:
        if isinstance(other, RuminElement):
            return self.form == other.form
        return NotImplemented

    def __str__(self) -> str:
        return self.form.to_text()

    def __repr__(self) -> str:
        return f"RuminElement({self.form.to_text()!r}, certified={self.certified})"


def certify(form: Form) -> RuminElement:
    """Check membership in R and wrap; raises DomainError on failure."""
    if not in_rumin(form):
        raise DomainError(f"form of degree {form.degree} is not in the Rumin subspace: {form}")
    return RuminElement(form, certified=True)


def pi(w: Form) -> RuminElement:
    """Projection w - d gamma(w) - gamma(dw) onto R; idempotent, commutes
    with d, and restricts to the identity on R."""
    out = w - exterior_d(gamma(w)) - gamma(exterior_d(w))
    return RuminElement(out, certified=True)


def _require_certified(name, *elements):
    for pos, e in enumerate(elements, start=1):
        if not isinstance(e, RuminElement) or not e.certified:
            raise DomainError(f"{name}: argument {pos} is not a certified Rumin element")


def m1(rho: RuminElement) -> RuminElement:
    """Differential; R is closed under d, so the output stays certified."""
    _require_certified("m1", rho)
    return RuminElement(exterior_d(rho.form), certified=True)


def m2(rho: RuminElement, sigma: RuminElement) -> RuminElement:
    """Projected wedge pi(rho ^ sigma)."""
    _require_certified("m2", rho, sigma)
    return pi(wedge(rho.form, sigma.form))


def _gamma_mu_entry():
    """(gamma . wedge) as a tensor-word operator of arity 2, degree -1."""
    return (lambda block: gamma(wedge(block[0], block[1])), 2, -1)


def _id_entry():
    return (lambda block: block[0], 1, 0)


def m3(rho: RuminElement, sigma: RuminElement, tau: RuminElement) -> RuminElement:
    """Ternary product pi . wedge . (gamma-wedge (x) 1  -  1 (x) gamma-wedge),
    with the interior Koszul sign supplied by the generic tensor engine."""
    _require_certified("m3", rho, sigma, tau)
    forms = (rho.form, sigma.form, tau.form)
    s1, (u1, v1) = apply_tensor_ops([_gamma_mu_entry(), _id_entry()], forms)
    s2, (u2, v2) = apply_tensor_ops([_id_entry(), _gamma_mu_entry()], forms)
    total = wedge(u1, v1).scale(s1) - wedge(u2, v2).scale(s2)
    return pi(total)


def mk_zero(k: int, elements) -> RuminElement:
    """The vanishing higher products: zero of degree sum(|args|) + 2 - k."""
    if k < 4:
        raise DomainError(f"mk_zero is only the arity >= 4 family, got {k}")
    _require_certified(f"m{k}", *elements)
    target = sum(e.degree for e in elements) + 2 - k
    return RuminElement(Form.zero(elements[0].model, target), certified=True)


def f1(rho: RuminElement) -> Form:
    """Inclusion of R into the full form algebra."""
    _require_certified("f1", rho)
    return rho.form


def f2(rho: RuminElement, sigma: RuminElement) -> Form:
    """-gamma(rho ^ sigma); the correction making the inclusion a morphism
    up to homotopy."""
    _require_certified("f2", rho, sigma)
    return gamma(wedge(rho.form, sigma.form)).scale(-1)


def fk_zero(k: int, elements) -> Form:
    """The vanishing higher morphism components, k >= 3."""
    if k < 3:
        raise DomainError(f"fk_zero is only the arity >= 3 family, got {k}")
    _require_certified(f"f{k}", *elements)
    target = sum(e.degree for e in elements) + 1 - k
    return Form.zero(elements[0].model, target)


# -- operator families for the generic relation checkers ---------------------


def rumin_ops(model: ContactModel) -> GradedOpSet:
    """The closed-form products (m1, m2, m3, 0, 0, ...) on certified
    elements, total in every arity."""
    ops = {
        1: lambda block: m1(block[0]),
        2: lambda block: m2(block[0], block[1]),
        3: lambda block: m3(block[0], block[1], block[2]),
    }

    def zero_maker(target_degree, elements):
        return RuminElement(Form.zero(model, target_degree), certified=True)

    return GradedOpSet(ops, degree_fn=lambda k: 2 - k, zero_maker=zero_maker, name="rumin products")


def rumin_morphism(model: ContactModel) -> GradedOpSet:
    """The morphism components (f1, f2, 0, 0, ...) from certified elements
    into plain forms."""
    ops = {
        1: lambda block: f1(block[0]),
        2: lambda block: f2(block[0], block[1]),
    }

    def zero_maker(target_degree, elements):
        return Form.zero(model, target_degree)

    return GradedOpSet(ops, degree_fn=lambda k: 1 - k, zero_maker=zero_maker, name="rumin morphism")


def derham_ops(model: ContactModel) -> GradedOpSet:
    """The de Rham algebra as an operator family: d, wedge, zero above."""
    ops = {
        1: lambda block: exterior_d(block[0]),
        2: lambda block: wedge(block[0], block[1]),
    }

    def zero_maker(target_degree, elements):
        return Form.zero(model, target_degree)

    return GradedOpSet(ops, degree_fn=lambda k: 2 - k, zero_maker=zero_maker, name="de Rham")


def rumin_retract(model: ContactModel) -> RetractData:
    """The deformation retract (inclusion, pi, gamma) of the form algebra onto
    R, as data for the generic homotopy transfer.  Call `.verify` with sample
    elements before transferring."""
    return RetractData(
        d=exterior_d,
        mu=wedge,
        h=gamma,
        i=lambda rho: rho.form,
        pi=pi,
        b_d=lambda rho: m1(rho),
        name=f"rumin retract n={model.n}",
    )
