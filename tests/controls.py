"""Corrupted operators shared by the negative controls of the tests.

`corrupted_rumin_morphism` is patched in as `suites.rumin_morphism`; it
builds from the `rumin` original, so the patch does not recurse.  Its
products twin, `suites.corrupted_rumin_ops`, stays in the package for the
benchmark's own negative control.  `unsigned_pair_moves` drops the sign of
every coframe pair move.
"""

from ruminalg import cinfty, forms, rumin
from ruminalg.forms import ContactModel, wedge
from ruminalg.rumin import gamma


def corrupted_rumin_morphism(model: ContactModel) -> cinfty.GradedOpSet:
    """The morphism family with f2 negated; the relation-2 morphism residuals
    must catch this."""
    good = rumin.rumin_morphism(model)
    ops = dict(good.ops)
    ops[2] = lambda block: gamma(wedge(block[0].form, block[1].form))  # missing minus
    return cinfty.GradedOpSet(ops, good.degree_fn, good.zero_maker, name="corrupted morphism")


def unsigned_pair_moves(monkeypatch):
    """L, Lambda and the dtheta tail of d moving every coframe pair with sign
    +1: the bisection helper is patched in forms, through which `pair_op`
    (gamma, primitivity, `lefschetz`) and exterior_d all call it."""
    right = forms.pair_moves

    def unsigned(idx, n, lower=False):
        return [(i, 1, moved) for i, _, moved in right(idx, n, lower)]

    monkeypatch.setattr(forms, "pair_moves", unsigned)
