"""The Rumin subcomplex and its transferred algebra structure, in closed form.

The central operator is `gamma`, the contact-invariant degree -1 map that
extracts the non-primitive part of a form.  Write a k-form as
w = theta ^ beta + alpha with alpha horizontal (free of e^0).  On horizontal
forms, L = dtheta ^ and its adjoint Lambda, which removes one full coframe
pair (e^i, e^{n+i}), satisfy [Lambda, L] = n - k, so alpha = sum_r L^r alpha_r
uniquely with each alpha_r primitive (Lambda alpha_r = 0; the Lefschetz
decomposition, Huybrechts, Complex Geometry, Prop. 1.2.30), and

    gamma(w) = theta ^ L^(-1)(alpha - alpha_0) = theta ^ sum_{r>=1} L^(r-1) alpha_r,

the vertical solution of theta ^ w ^ dtheta^(n+1-k) = gamma(w) ^ dtheta^(n+2-k)
for k <= n and of theta ^ w = zeta ^ dtheta^(k-n), gamma(w) = zeta ^ dtheta^(k-n-1)
for k >= n+1.  No basis or matrix is built, and a form is primitive when
Lambda kills its horizontal part.

gamma runs on integers, through the kernels of `poly`.  The horizontal part
comes in as `forms.Blocks`, int numerators over the lcm of its coefficients'
denominators; the pair weights of L and Lambda, the scalars c_j and the theta
factor each become int numerators over one denominator (`poly.over_lcm`),
and every step multiplies the block denominator by the operator's; each
block moves with one `poly.add_into`.  L and Lambda find a pair's place in a
sorted coframe index by bisection (`forms.pair_moves`): L inserts
(e^i, e^{n+i}) at p1 = bisect(I, i) and p2 = bisect(I, n+i) with sign
(-1)^(p1+p2), and Lambda removes the pair it finds at p1 < p2 with sign
(-1)^(p1+p2-1).  The Horner sum's accumulator is over a multiple of each
next summand's denominator, so only the summand's scalar is brought up to
it; the output blocks are wrapped once, in lowest terms.

A form keeps its gamma: the first gamma(w) stores the value on w, and each
later call returns it, so identities such as gamma(d gamma w) = gamma(w)
compute gamma(w) once.  A form keeps its d the same way
(`forms.exterior_d`).  Both values live exactly as long as w.  `pi` reads a
d kept on w or on gamma(w) but keeps none (`exterior_d(..., keep=False)`):
m2 projects the product an element keeps (below), and a d kept there would
chain further derivatives onto every kept product for the element's
lifetime.  Only when pi(w) is w itself, because w already lies in R, does w
keep the d pi computed: the element's own d (m1) would compute it again.
gamma's constants at the unscaled contact form are kept on the
`ContactModel`, filled on first use, so a new model pays for them again:
the L and Lambda pair weights and theta's scalar once, the c_j over one
denominator per degree.  The rescaled gamma of `gamma_invariance_check`
computes its own on every call, reading its weights and scalar off the
rescaled dtheta and theta, and is always computed afresh.

A `RuminElement` is a form checked to lie in R when it is built:
`RuminElement(form)` (and `certify`) tests membership and raises
DomainError on failure.  `pi`, `m1`, the zeros, `scale` and `+` land in R by
construction and wrap their output unchecked.  m1/m2/m3 and f2 take
elements only, so their precondition is an isinstance test, and a plain
`Form` never equals an element, so an operator memo keyed by elements never
answers one.

An element keeps its products: a `RuminElement` stores
rho.form ^ sigma.form for each sigma it has been multiplied with, so m2,
m3's gamma(a ^ b) entries and f2 of one pair share one product `Form`, and
with it one kept gamma(a ^ b).  The products live exactly as long as the
element (the seeded suites build their elements per trial) and enter
neither == nor the hash.

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
from functools import cache, partial
from math import prod

from . import forms
from .cinfty import IDENTITY_ENTRY, GradedOpSet, RetractData, apply_tensor_ops
from .errors import DomainError
from .forms import (
    Blocks,
    ContactModel,
    Form,
    _blocks,
    _form_from_accumulator,
    exterior_d,
    wedge,
)
from .poly import add_into, over_lcm

_ONE = Fraction(1)


def _pair_op(terms: Blocks, n: int, weights, lower: bool) -> Blocks:
    """L, which adds each free pair (e^i, e^{n+i}) with weight c_i, or Lambda
    (`lower`), which removes each full pair with weight 1/c_i, on a horizontal
    form held as Blocks, with the moves and signs of `forms.pair_moves`.
    `weights` are the weights as (int numerators, denominator), and the
    output is over terms.den times that denominator."""
    nums, den = weights
    out = Blocks(terms.den * den)
    moves = forms.pair_moves
    for idx, coeffs in terms.items():
        for i, sign, moved in moves(idx, n, lower):
            add_into(out.setdefault(moved, {}), coeffs, sign * nums[i - 1])
    return out


def _pair_weights(dtheta: Form):
    """The c_i of dtheta = sum_i c_i e^i ^ e^{n+i} and their inverses, read
    off the form itself, so a rescaled gamma is built from the rescaled form;
    each list as (int numerators, common denominator)."""
    n = dtheta.model.n
    c = [dtheta.terms[(i, n + i)].constant_value() for i in range(1, n + 1)]
    return over_lcm(c), over_lcm([1 / x for x in c])


def _horizontal(w: Form) -> Blocks:
    """The part of w free of e^0, as Blocks over one denominator."""
    return _blocks({idx: p for idx, p in w.terms.items() if not idx or idx[0]})


def _add_blocks(acc: Blocks, term: Blocks, c: int, cden: int) -> Blocks:
    """acc + (c / cden) * term, in place.  gamma's Horner sum keeps acc's
    denominator a multiple of term.den * cden: both are alpha's denominator
    times powers of the pair-weight denominators, and each step multiplies
    acc's by one more power than the next term's.  So acc is never
    rescaled; c is brought up to acc's denominator instead."""
    den = term.den * cden
    if not acc:
        acc.den = den
    elif acc.den != den:
        c *= acc.den // den
    for idx, coeffs in term.items():
        add_into(acc.setdefault(idx, {}), coeffs, c)
    return acc


@cache
def _gamma_scalars(n: int, k: int) -> tuple:
    """c_1..c_m with L^(-1)(alpha - alpha_0) = sum_j c_j L^(j-1) Lambda^j alpha
    on horizontal k-forms for k <= n + 1, and = sum_j c_j Lambda^j L^(j-1) alpha
    above, so that the powers walk toward the small spaces near degree 0 or
    2n.  With alpha = sum_r L^r alpha_r (r = r0..k//2 past alpha_0,
    r0 = max(1, k - n)), the j-th operator maps L^r alpha_r to L^(r-1) alpha_r
    times prod_{i<j} (r -+ i)(n - k + r + 1 +- i), which is 0 for the r below
    the j-th piece, so the c_j solve a triangular system; `rest` starts from
    the Fraction 1, so each division is exact.  gamma takes the c_j over one
    denominator."""
    sign = -1 if k <= n + 1 else 1

    def factor(r, j):
        return prod((r + sign * i) * (n - k + r + 1 - sign * i) for i in range(j))

    c = []
    for r in range(max(1, k - n), k // 2 + 1):
        rest = _ONE - sum(cj * factor(r, j) for j, cj in enumerate(c, 1))
        c.append(rest / factor(r, len(c) + 1))
    return tuple(c)


def gamma(w: Form, _lam: Fraction | None = None) -> Form:
    """Contact-invariant degree -1 operator; output is always vertical.

    The value is kept on w, so a second gamma(w) returns it.  The private
    `_lam` recomputes gamma from the contact form rescaled by a positive
    constant (used by `gamma_invariance_check`), and never reads or keeps
    the value on w, nor the constants kept on the model.
    """
    if _lam is not None:
        return _gamma(w, _lam)
    out = getattr(w, "_gamma", None)
    if out is None:
        out = w._gamma = _gamma(w, None)
    return out


def _constants(model: ContactModel, k: int, lam: Fraction | None = None) -> tuple:
    """gamma's constants on k-forms: ((c_j numerators, their denominator),
    L's and Lambda's pair weights, theta's scalar), with the contact form
    rescaled by lam.  The unscaled ones (lam None) are kept on the model,
    filled on first use: the weights and the scalar once, the c_j per
    degree.  Rescaled ones are computed on every call."""
    if lam is not None:
        scaled = _weights(model.dtheta().scale(lam), model.theta().scale(lam))
        return (over_lcm(_gamma_scalars(model.n, k)), *scaled)
    store = model._gamma_cj
    c = store.get(k)
    if c is None:
        c = store[k] = over_lcm(_gamma_scalars(model.n, k))
    return (c, *_unscaled_weights(model))


def _unscaled_weights(model: ContactModel) -> tuple:
    """L's and Lambda's pair weights and theta's scalar at the unscaled
    contact form, kept on the model."""
    out = model._gamma_weights
    if out is None:
        out = model._gamma_weights = _weights(model.dtheta(), model.theta())
    return out


def _weights(dtheta: Form, theta: Form) -> tuple:
    up, down = _pair_weights(dtheta)
    return up, down, theta.terms[(0,)].constant_value()


def _gamma(w: Form, lam: Fraction | None) -> Form:
    """gamma(w) from the contact form rescaled by lam (unscaled when None),
    computed afresh."""
    model = w.model
    n, k = model.n, w.degree
    (c, cden), up, down, t = _constants(model, k, lam)
    alpha = _horizontal(w)
    if not c or not alpha:
        return Form.zero(model, max(k - 1, 0))
    lift = partial(_pair_op, n=n, weights=up, lower=False)
    drop = partial(_pair_op, n=n, weights=down, lower=True)
    descend = k <= n + 1
    walk, back = (drop, lift) if descend else (lift, drop)
    chain = [drop(alpha) if descend else alpha]  # Lambda^j alpha or L^(j-1) alpha
    for _ in c[1:]:
        chain.append(walk(chain[-1]))
    acc = Blocks()  # Horner, from the top j down
    for cj, term in zip(reversed(c), reversed(chain)):
        acc = _add_blocks(back(acc), term, cj, cden)
    if not descend:
        acc = drop(acc)
    tn = t.numerator
    out = Blocks(acc.den * t.denominator)
    for idx, coeffs in acc.items():  # acc's dicts are its own: no copy
        out[(0,) + idx] = coeffs if tn == 1 else {ex: v * tn for ex, v in coeffs.items()}
    return _form_from_accumulator(model, k - 1, out)


def gamma_invariance_check(w: Form, lam) -> bool:
    """Recompute gamma with the contact form rescaled by the positive constant
    `lam` and compare with the unscaled result; always true."""
    lam = Fraction(lam)
    if lam <= 0:
        raise DomainError(f"rescaling must be positive, got {lam}")
    return gamma(w, _lam=lam) == gamma(w)


def is_primitive(w: Form) -> bool:
    """True when Lambda kills the horizontal part of w, i.e. when
    (theta ^ w) ^ dtheta^(n+1-k) = 0 with k = |w| (for k >= n+1 there are no
    powers left and the test is theta ^ w = 0)."""
    model = w.model
    down = _unscaled_weights(model)[1]
    return not any(_pair_op(_horizontal(w), model.n, down, lower=True).values())


def in_rumin(w: Form) -> bool:
    """Membership test for the subcomplex R: w is primitive and has primitive
    differential.  Agrees with gamma(w) = 0 and gamma(dw) = 0."""
    return is_primitive(w) and is_primitive(exterior_d(w))


class RuminElement:
    """A form of the subcomplex R; the constructor checks membership and
    raises DomainError when the form is not in R.  Equality and the hash
    are the form's."""

    # _products is left unset on construction: `_product` creates it, as
    # {sigma: self.form ^ sigma.form}, outside == and the hash
    __slots__ = ("form", "_products")

    def __init__(self, form: Form):
        if not in_rumin(form):
            raise DomainError(f"form of degree {form.degree} is not in the Rumin subspace: {form}")
        self.form = form

    @classmethod
    def _make(cls, form: Form) -> "RuminElement":
        """Internal fast path: `form` must already lie in R."""
        rho = object.__new__(cls)
        rho.form = form
        return rho

    @property
    def degree(self) -> int:
        return self.form.degree

    @property
    def model(self) -> ContactModel:
        return self.form.model

    def is_zero(self) -> bool:
        return self.form.is_zero()

    def zero_of_degree(self, degree: int) -> "RuminElement":
        return RuminElement._make(Form.zero(self.form.model, degree))

    def scale(self, c) -> "RuminElement":
        return RuminElement._make(self.form.scale(c))

    def __add__(self, other: "RuminElement") -> "RuminElement":
        if not isinstance(other, RuminElement):
            return NotImplemented
        return RuminElement._make(self.form + other.form)  # R is a linear subspace

    def __sub__(self, other: "RuminElement") -> "RuminElement":
        if not isinstance(other, RuminElement):
            return NotImplemented
        return RuminElement._make(self.form - other.form)

    def __eq__(self, other) -> bool:
        if isinstance(other, RuminElement):
            return self.form == other.form
        return NotImplemented

    def __hash__(self):
        return hash(self.form)

    def __str__(self) -> str:
        return self.form.to_text()

    def __repr__(self) -> str:
        return f"RuminElement({self.form.to_text()!r})"


def certify(form: Form) -> RuminElement:
    """Check membership in R and wrap; raises DomainError on failure."""
    return RuminElement(form)


def pi(w: Form) -> RuminElement:
    """Projection w - d gamma(w) - gamma(dw) onto R; idempotent, commutes
    with d, and restricts to the identity on R.  A d kept on w or on
    gamma(w) is read, but pi keeps no d of its own (see the module
    docstring), except when its value is w itself: then w keeps the d pi
    computed, which the element's own d reads."""
    dw = exterior_d(w, keep=False)
    out = w - exterior_d(gamma(w), keep=False) - gamma(dw)
    if out is w:
        w._d = dw
    return RuminElement._make(out)


def _require_elements(name, *elements):
    for pos, e in enumerate(elements, start=1):
        if not isinstance(e, RuminElement):
            raise DomainError(f"{name}: argument {pos} is not a RuminElement")


def m1(rho: RuminElement) -> RuminElement:
    """Differential; R is closed under d, so the output lies in R."""
    _require_elements("m1", rho)
    return RuminElement._make(exterior_d(rho.form))


def _product(rho: RuminElement, sigma: RuminElement) -> Form:
    """rho.form ^ sigma.form of two elements, kept on rho."""
    try:
        products = rho._products
    except AttributeError:
        products = rho._products = {}
    out = products.get(sigma)
    if out is None:
        out = products[sigma] = wedge(rho.form, sigma.form)
    return out


def m2(rho: RuminElement, sigma: RuminElement) -> RuminElement:
    """Projected wedge pi(rho ^ sigma)."""
    _require_elements("m2", rho, sigma)
    return pi(_product(rho, sigma))


# (gamma . wedge) as a tensor-word operator of arity 2, degree -1, on elements
_GAMMA_MU_ENTRY = (lambda block: gamma(_product(*block)), 2, -1)


def m3(rho: RuminElement, sigma: RuminElement, tau: RuminElement) -> RuminElement:
    """Ternary product pi . wedge . (gamma-wedge (x) 1  -  1 (x) gamma-wedge),
    with the interior Koszul sign supplied by the generic tensor engine."""
    _require_elements("m3", rho, sigma, tau)
    block = (rho, sigma, tau)
    s1, (u1, v1) = apply_tensor_ops([_GAMMA_MU_ENTRY, IDENTITY_ENTRY], block)
    s2, (u2, v2) = apply_tensor_ops([IDENTITY_ENTRY, _GAMMA_MU_ENTRY], block)
    total = wedge(u1, v1.form).scale(s1) - wedge(u2.form, v2).scale(s2)
    return pi(total)


def mk_zero(k: int, elements) -> RuminElement:
    """The vanishing higher products: zero of degree sum(|args|) + 2 - k."""
    if k < 4:
        raise DomainError(f"mk_zero is only the arity >= 4 family, got {k}")
    _require_elements(f"m{k}", *elements)
    target = sum(e.degree for e in elements) + 2 - k
    return RuminElement._make(Form.zero(elements[0].model, target))


def f1(rho: RuminElement) -> Form:
    """Inclusion of R into the full form algebra."""
    _require_elements("f1", rho)
    return rho.form


def f2(rho: RuminElement, sigma: RuminElement) -> Form:
    """-gamma(rho ^ sigma); the correction making the inclusion a morphism
    up to homotopy."""
    _require_elements("f2", rho, sigma)
    return gamma(_product(rho, sigma)).scale(-1)


def fk_zero(k: int, elements) -> Form:
    """The vanishing higher morphism components, k >= 3."""
    if k < 3:
        raise DomainError(f"fk_zero is only the arity >= 3 family, got {k}")
    _require_elements(f"f{k}", *elements)
    target = sum(e.degree for e in elements) + 1 - k
    return Form.zero(elements[0].model, target)


def _derham_zero(k: int, elements) -> Form:
    """The de Rham algebra's operators of arity k >= 3: zero of degree
    sum(|args|) + 2 - k."""
    return Form.zero(elements[0].model, sum(e.degree for e in elements) + 2 - k)


# -- operator families for the generic relation checkers ---------------------


def rumin_ops(model: ContactModel) -> GradedOpSet:
    """The closed-form products (m1, m2, m3, 0, 0, ...) on elements of R,
    total in every arity."""
    ops = {
        1: lambda block: m1(block[0]),
        2: lambda block: m2(block[0], block[1]),
        3: lambda block: m3(block[0], block[1], block[2]),
    }
    return GradedOpSet(ops, degree_fn=lambda k: 2 - k, zero_maker=mk_zero, name="rumin products")


def rumin_morphism(model: ContactModel) -> GradedOpSet:
    """The morphism components (f1, f2, 0, 0, ...) from elements of R into
    plain forms."""
    ops = {
        1: lambda block: f1(block[0]),
        2: lambda block: f2(block[0], block[1]),
    }
    return GradedOpSet(ops, degree_fn=lambda k: 1 - k, zero_maker=fk_zero, name="rumin morphism")


def derham_ops(model: ContactModel) -> GradedOpSet:
    """The de Rham algebra as an operator family: d, wedge, zero above."""
    ops = {
        1: lambda block: exterior_d(block[0]),
        2: lambda block: wedge(block[0], block[1]),
    }
    return GradedOpSet(ops, degree_fn=lambda k: 2 - k, zero_maker=_derham_zero, name="de Rham")


def rumin_retract(model: ContactModel, a_samples, b_samples) -> RetractData:
    """The deformation retract (inclusion, pi, gamma) of the form algebra onto
    R, as data for the generic homotopy transfer, with its identities checked
    on the sample forms and elements (`RetractError` when one fails)."""
    return RetractData(
        d=exterior_d,
        mu=wedge,
        h=gamma,
        i=lambda rho: rho.form,
        pi=pi,
        b_d=lambda rho: m1(rho),
        a_samples=a_samples,
        b_samples=b_samples,
        name=f"rumin retract n={model.n}",
    )
