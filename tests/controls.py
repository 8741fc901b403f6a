"""Corrupted operator families shared by the negative controls of the tests.

A control patches one in as `suites.rumin_morphism`; it builds from the
`rumin` original, so the patch does not recurse.  Its products twin,
`suites.corrupted_rumin_ops`, stays in the package for the benchmark's own
negative control.
"""

from ruminalg import cinfty, rumin
from ruminalg.forms import ContactModel, wedge
from ruminalg.rumin import gamma


def corrupted_rumin_morphism(model: ContactModel) -> cinfty.GradedOpSet:
    """The morphism family with f2 negated; the relation-2 morphism residuals
    must catch this."""
    good = rumin.rumin_morphism(model)
    ops = dict(good.ops)
    ops[2] = lambda block: gamma(wedge(block[0].form, block[1].form))  # missing minus
    return cinfty.GradedOpSet(ops, good.degree_fn, good.zero_maker, name="corrupted morphism")
