"""ruminalg: exact Rumin-complex calculator on Heisenberg models.

Polynomial-coefficient differential forms on H^{2n+1} with exact rational
arithmetic, the contact-invariant operator gamma and projection pi onto the
Rumin subcomplex, the closed-form transferred products m1/m2/m3 and morphism
f1/f2, a generic homotopy-transfer engine with full relation checking, and
exact cohomology of finite graded algebras.

Kept for callers outside the package: nothing in it calls these, and the
dead-code guard in tests/test_repo.py exempts them.  They serve perfbench/,
and benchmark v2 (ROADMAP item 1) can let them go:

    kernel_name          perfbench records it with every result.
    add_scaled           Poly.add_scaled: the tracer wraps it by name.
    deriv                Poly.deriv: the tracer wraps it by name.
    inverse              linalg.inverse: the tracer counts calls and rows.
    corrupted_rumin_ops  symbolic-n3's negative control.

The `model` parameter of rumin.rumin_ops, rumin_morphism, derham_ops and
suites.corrupted_rumin_ops is unused (every operator reads the model from
its inputs) and stays while perfbench/ passes it.
"""

from ._version import __version__
from .errors import ConstructionError, DimensionError, DomainError
from .forms import (
    ContactModel,
    Form,
    exterior_d,
    is_vertical,
    lefschetz,
    lefschetz_power_matrix,
    random_form,
    wedge,
)
from .poly import Poly
from .rumin import (
    RuminElement,
    certify,
    f1,
    f2,
    gamma,
    gamma_invariance_check,
    in_rumin,
    is_primitive,
    m1,
    m2,
    m3,
    pi,
)

__all__ = [
    "__version__",
    "ConstructionError",
    "DimensionError",
    "DomainError",
    "ContactModel",
    "Form",
    "Poly",
    "RuminElement",
    "certify",
    "exterior_d",
    "f1",
    "f2",
    "gamma",
    "gamma_invariance_check",
    "in_rumin",
    "is_primitive",
    "is_vertical",
    "kernel_name",
    "lefschetz",
    "lefschetz_power_matrix",
    "m1",
    "m2",
    "m3",
    "pi",
    "random_form",
    "wedge",
]


def kernel_name() -> str:
    """The arithmetic kernel, always "pure-python": there is only one.  Kept
    because the benchmark in perfbench/ records it with every result."""
    return "pure-python"
