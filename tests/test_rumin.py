from fractions import Fraction
from functools import cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruminalg import forms, linalg, rumin, suites
from ruminalg.errors import DomainError
from ruminalg.forms import (
    Blocks,
    ContactModel,
    Form,
    _form_from_accumulator,
    exterior_d,
    is_vertical,
    lefschetz_power_matrix,
    merge_indices,
    random_form,
    wedge,
)
from ruminalg.poly import Poly
from ruminalg.prng import stream
from ruminalg.rumin import (
    RuminElement,
    certify,
    f1,
    f2,
    fk_zero,
    gamma,
    gamma_invariance_check,
    in_rumin,
    is_primitive,
    m1,
    m2,
    m3,
    mk_zero,
    pi,
    rumin_morphism,
    rumin_ops,
)

M1 = ContactModel(1)
M2 = ContactModel(2)


def _dx(model, i=1):
    return model.generator(i)


def _dy(model, i=1):
    return model.generator(model.n + i)


# -- gamma ------------------------------------------------------------------------


def test_gamma_kills_verticals():
    rng = stream(21, 0)
    for model in (M1, M2):
        for deg in range(1, model.dim + 1):
            v = random_form(model, rng, deg, 2, vertical=True)
            assert gamma(v).is_zero()


def test_gamma_of_symplectic_area_form():
    # Solve zeta ^ dtheta = theta ^ (f dx1^dy1) by enumerating the vertical
    # basis in degree 1: zeta = g theta, and g theta^dx1^dy1 = f theta^dx1^dy1
    # forces g = f.
    f = Poly.variable(3, 0) + Poly.constant(3, Fraction(2, 3))
    w = wedge(_dx(M1), _dy(M1)).scale_poly(f)
    expected = M1.theta().scale_poly(f)
    got = gamma(w)
    assert got == expected
    # the defining equation holds
    assert wedge(got, M1.dtheta()) == wedge(M1.theta(), w)


def test_gamma_on_one_forms_is_zero():
    assert gamma(_dx(M1)).is_zero()  # no vertical 0-forms to hit
    rng = stream(22, 0)
    for _ in range(10):
        assert gamma(random_form(M1, rng, 1, 2)).is_zero()


def test_gamma_output_vertical_and_degree():
    rng = stream(23, 0)
    for model in (M1, M2):
        for deg in range(0, model.dim + 1):
            g = gamma(random_form(model, rng, deg, 2))
            assert is_vertical(g)
            if not g.is_zero():
                assert g.degree == deg - 1


def test_gamma_chain_identities():
    rng = stream(24, 0)
    for model in (M1, M2):
        for deg in range(0, model.dim + 1):
            w = random_form(model, rng, deg, 2)
            assert gamma(exterior_d(gamma(w))) == gamma(w)
            assert gamma(gamma(w)).is_zero()
        for deg in range(1, model.n + 1):
            v = random_form(model, rng, deg, 2, vertical=True)
            assert gamma(exterior_d(v)) == v


def test_gamma_image_products_vanish():
    rng = stream(25, 0)
    for _ in range(10):
        a = random_form(M2, rng, rng.randint(0, 5), 2)
        b = random_form(M2, rng, rng.randint(0, 5), 2)
        assert wedge(gamma(a), gamma(b)).is_zero()
        assert gamma(wedge(gamma(a), b)).is_zero()
        assert gamma(wedge(a, gamma(b))).is_zero()


def test_gamma_invariance():
    w = wedge(_dx(M1), _dy(M1))
    assert gamma_invariance_check(w, 2)
    assert gamma_invariance_check(w, Fraction(3, 7))
    assert gamma_invariance_check(wedge(M1.theta(), _dx(M1)), 5)  # both sides zero
    rng = stream(26, 0)
    for model in (M1, M2):
        for deg in range(0, model.dim + 1):
            assert gamma_invariance_check(random_form(model, rng, deg, 2), Fraction(3, 7))


def test_gamma_invariance_rejects_nonpositive():
    with pytest.raises(DomainError):
        gamma_invariance_check(_dx(M1), 0)
    with pytest.raises(DomainError):
        gamma_invariance_check(_dx(M1), Fraction(-2, 3))


# -- gamma against the dense Lefschetz inverse, and at large n ------------------------


@cache
def _dense_inverse(n, power):
    return linalg.inverse(lefschetz_power_matrix(ContactModel(n), power))


def _dense_solve(model, power, rhs, lam):
    """Oracle: the vertical zeta with zeta ^ (lam dtheta)^power = rhs, from the
    dense inverse of the whole Lefschetz power matrix; the matrix of
    (lam dtheta)^power is lam^power times that of dtheta^power."""
    n = model.n
    inv = _dense_inverse(n, power)
    src = model.vertical_monomials(n - power + 1)
    tgt = model.vertical_monomials(n + power + 1)
    terms = {}
    for j, s in enumerate(src):
        acc = Poly.zero(model.nvars)
        for i, t in enumerate(tgt):
            acc = acc.add_scaled(rhs.terms.get(t, Poly.zero(model.nvars)), inv[j][i] / lam**power)
        terms[s] = acc
    return Form(model, n - power + 1, terms)


def _dtheta_power(model, k):
    """Oracle: (dtheta)^k by k wedges of dtheta onto the constant 1."""
    out = Form.constant(model, Poly.one(model.nvars))
    for _ in range(k):
        out = wedge(out, model.dtheta())
    return out


def _reference_gamma(w, lam):
    """Oracle: gamma by its two-case definition with theta rescaled by lam,
        theta ^ w ^ dtheta^(n+1-k) = gamma(w) ^ dtheta^(n+2-k)        if k <= n,
        theta ^ w = zeta ^ dtheta^(k-n),  gamma(w) = zeta ^ dtheta^(k-n-1)
                                                                   if k >= n+1,
    each solve done with the dense inverse."""
    model = w.model
    n, k = model.n, w.degree
    if k <= 1 or k >= model.dim:
        return Form.zero(model, max(k - 1, 0))
    tw = wedge(model.theta(), w).scale(lam)
    if k <= n:
        rhs = wedge(tw, _dtheta_power(model, n + 1 - k)).scale(lam ** (n + 1 - k))
        return _dense_solve(model, n + 2 - k, rhs, lam)
    zeta = _dense_solve(model, k - n, tw, lam)
    return wedge(zeta, _dtheta_power(model, k - n - 1)).scale(lam ** (k - n - 1))


@pytest.mark.parametrize("lam", [Fraction(1), Fraction(2), Fraction(3, 7)])
def test_gamma_matches_dense_lefschetz_reference(lam):
    for n in range(1, 5):
        model = ContactModel(n)
        rng = stream(41, n)
        for deg in range(0, model.dim + 1):
            for _ in range(2):
                w = random_form(model, rng, deg, 1, density=(1, 3))
                assert rumin._gamma(w, lam) == _reference_gamma(w, lam)


def test_block_solver_reaches_n6():
    model = ContactModel(6)
    rng = stream(42, 0)
    for deg in (2, 4, 6):
        v = random_form(model, rng, deg, 0, density=(1, 4), vertical=True)
        assert not v.is_zero()
        assert gamma(exterior_d(v)) == v
    for deg in (3, 7, 9):
        w = random_form(model, rng, deg, 0, density=(1, 8))
        assert not gamma(w).is_zero()
        assert gamma(gamma(w)).is_zero()


def test_gamma_at_n40():
    model = ContactModel(40)
    assert gamma(wedge(_dx(model), _dy(model))) == model.theta().scale(Fraction(1, 40))


def test_gamma_at_lambda_3_7_leaves_the_integers():
    # An integral input whose gamma is not integral, computed through the
    # weights 3/7 and 7/3: every coefficient is an int or a proper Fraction.
    x1, y2 = Poly.variable(M2.nvars, 0), Poly.variable(M2.nvars, 3)
    w = Form.monomial(M2, (1, 3), x1 * y2 + Poly.constant(M2.nvars, 3))
    got = rumin._gamma(w, Fraction(3, 7))
    expected = {(1, 0, 0, 1, 0): Fraction(1, 2), (0, 0, 0, 0, 0): Fraction(3, 2)}
    assert {idx: p.terms for idx, p in got.terms.items()} == {(0,): expected}
    assert all(type(c) is Fraction for c in got.terms[(0,)].terms.values())
    assert got == gamma(w)


def _wrong_dtheta_pair(monkeypatch):
    # Pair weights read off a rescaled dtheta with one pair's coefficient
    # changed; returns the rescaling and the inputs whose gamma it changes.
    lam = Fraction(3, 7)
    wrong_terms = dict(M2.dtheta().terms)
    wrong_terms[(1, 3)] = Poly.constant(M2.nvars, 2)
    wrong = Form(M2, 2, wrong_terms).scale(lam)
    right = rumin._pair_weights
    monkeypatch.setattr(
        rumin, "_pair_weights", lambda dtheta: right(dtheta if dtheta == M2.dtheta() else wrong)
    )
    return lam, (wedge(_dx(M2), _dy(M2)), wedge(_dx(M2, 2), wedge(_dx(M2), _dy(M2))))


def test_wrong_dtheta_pair_changes_gamma(monkeypatch):
    # The wrong weights must change the rescaled gamma, so
    # gamma_invariance_check can fail.
    lam, inputs = _wrong_dtheta_pair(monkeypatch)
    for w in inputs:
        assert rumin._gamma(w, lam) != gamma(w)
        assert not gamma_invariance_check(w, lam)


def test_a_kept_gamma_does_not_mask_a_rescaled_one(monkeypatch):
    # gamma(w) computed and kept first: the rescaled gamma is still computed
    # afresh with the wrong weights, and never reads or fills the kept value.
    lam, inputs = _wrong_dtheta_pair(monkeypatch)
    for w in inputs:
        kept = gamma(w)
        assert rumin._gamma(w, lam) != kept
        assert not gamma_invariance_check(w, lam)
        assert gamma(w) is kept
    fresh = wedge(_dx(M2), _dy(M2))
    rumin._gamma(fresh, lam)
    assert getattr(fresh, "_gamma", None) is None


def test_kept_model_constants_do_not_mask_a_rescaled_gamma(monkeypatch):
    # M2's unscaled gamma constants are filled first, and only then are the
    # pair weights patched: the rescaled gamma reads its weights off the
    # rescaled dtheta on every call, so it still changes and the invariance
    # check still fails.
    inputs = (wedge(_dx(M2), _dy(M2)), wedge(_dx(M2, 2), wedge(_dx(M2), _dy(M2))))
    for w in inputs:
        gamma(Form(M2, w.degree, dict(w.terms), _canonical=True))
        is_primitive(w)
    lam, inputs = _wrong_dtheta_pair(monkeypatch)
    for w in inputs:
        assert rumin._gamma(w, lam) != gamma(w)
        assert not gamma_invariance_check(w, lam)


def test_gamma_is_kept_on_its_form():
    rng = stream(44, 0)
    for deg in range(0, M2.dim + 1):
        w = random_form(M2, rng, deg, 2)
        assert gamma(w) is gamma(w)
        assert gamma(w) == rumin._gamma(w, Fraction(1))


def test_a_kept_gamma_leaves_equality_and_hash_alone():
    # Forms equal in value stay equal and hash alike whether or not one of
    # them holds its gamma or its d, and whether the hash was taken before
    # or after.
    rng = stream(45, 0)
    inputs = [random_form(M2, rng, deg, 2) for deg in range(0, M2.dim + 1)]
    inputs += [Form.zero(M2, deg) for deg in (0, 2, 5)] + [wedge(_dx(M2), _dy(M2))]
    for kept, slot in ((gamma, "_gamma"), (exterior_d, "_d")):
        for w in inputs:
            before = Form(M2, w.degree, dict(w.terms), _canonical=True)
            hashed_first = hash(before)
            kept(before)
            after = Form(M2, w.degree, dict(w.terms), _canonical=True)
            kept(after)
            assert before == w == after
            assert getattr(before, slot) == kept(w)
            assert hashed_first == hash(before) == hash(after) == hash(w)
        zeros = [Form.zero(M2, deg) for deg in (0, 3)]
        kept(zeros[0])
        assert zeros[0] == zeros[1] and hash(zeros[0]) == hash(zeros[1])
        assert zeros[0] != wedge(_dx(M2), _dy(M2))


def test_d_is_kept_on_its_form():
    # exterior_d keeps its value on the form, the zero form's too; keep=False
    # reads a kept value but stores none.
    rng = stream(46, 0)
    for deg in range(0, M2.dim + 1):
        w = random_form(M2, rng, deg, 2)
        if w.is_zero():
            continue
        unkept = exterior_d(w, keep=False)
        assert getattr(w, "_d", None) is None
        assert exterior_d(w) is exterior_d(w) is not unkept
        assert exterior_d(w) == unkept and exterior_d(w, keep=False) is exterior_d(w)
    zero = Form.zero(M2, 2)
    assert exterior_d(zero).is_zero() and exterior_d(zero).degree == 3
    assert zero._d is exterior_d(zero)


def test_the_retract_check_never_differentiates_a_form_twice(monkeypatch):
    # Building the n = 1 retract evaluates d(h(a)) and h(d(a)) before pi(a),
    # and pi reads the d kept on its input: no form object reaches the d
    # kernel twice.  The forms are held, so no id is reused.
    seen = []
    right = forms._exterior_d

    def counted(w):
        seen.append(w)
        return right(w)

    monkeypatch.setattr(forms, "_exterior_d", counted)
    monkeypatch.setattr(suites, "_retract_cache", {})
    suites.verified_rumin_retract(1)
    assert seen
    assert len({id(w) for w in seen}) == len(seen)


def test_a_kept_product_gains_no_d():
    # pi reads kept values but keeps none: m2 leaves no d on the product it
    # keeps on the element, nor on that product's kept gamma.
    rng = stream(47, 2)
    a, b = (pi(random_form(M2, rng, degree, 2)) for degree in (1, 2))
    value = m2(a, b)
    product = a._products[b]
    assert not value.is_zero() and not gamma(product).is_zero()
    assert getattr(product, "_d", None) is None
    assert getattr(product._gamma, "_d", None) is None


def test_pi_leaves_its_d_on_a_form_it_returns():
    # When w lies in R, pi(w) is w itself, and w keeps the d pi computed, so
    # the element's own d does not compute it again.
    rng = stream(48, 0)
    for degree in (1, 2, 3):
        w = pi(random_form(M2, rng, degree, 2)).form
        fresh = Form(M2, w.degree, dict(w.terms), _canonical=True)
        assert not fresh.is_zero() and getattr(fresh, "_d", None) is None
        assert pi(fresh).form is fresh and fresh._d == forms._exterior_d(fresh)
        assert m1(RuminElement._make(fresh)).form is fresh._d


@pytest.mark.parametrize("lam", [Fraction(1), Fraction(3, 7)])
def test_lambda_l_commutator(lam):
    # [Lambda, L] = (n - k) on horizontal k-forms, also for the rescaled pair.
    rng = stream(43, 0)
    for n in (1, 2, 3):
        model = ContactModel(n)
        up, down = rumin._pair_weights(model.dtheta().scale(lam))
        for k in range(0, 2 * n + 1):
            for _ in range(3):
                alpha = rumin._horizontal(random_form(model, rng, k, 2))
                raised = forms.pair_op(alpha, n, up, lower=False)
                lowered = forms.pair_op(alpha, n, down, lower=True)
                lam_l = forms.pair_op(raised, n, down, lower=True)
                l_lam = forms.pair_op(lowered, n, up, lower=False)
                as_form = partial(_form_from_accumulator, model, k)
                assert as_form(lam_l) - as_form(l_lam) == as_form(alpha).scale(n - k)


def _pair_op_reference(terms, n, weights, lower):
    """L or Lambda on blocks, move by move through merge_indices."""
    nums, den = weights
    out = {}
    for idx, coeffs in terms.items():
        for i in range(1, n + 1):
            if lower:
                if i not in idx or n + i not in idx:
                    continue
                moved = tuple(j for j in idx if j not in (i, n + i))
                sign, _ = merge_indices((i, n + i), moved)
            else:
                sign, moved = merge_indices((i, n + i), idx)
                if not sign:
                    continue
            acc = out.setdefault(moved, {})
            for ex, v in coeffs.items():
                acc[ex] = acc.get(ex, 0) + sign * nums[i - 1] * v
    cleaned = {idx: {ex: v for ex, v in t.items() if v} for idx, t in out.items()}
    return {idx: t for idx, t in cleaned.items() if t}, terms.den * den


@st.composite
def _pair_blocks(draw):
    """n in 1..5 and horizontal blocks whose indices hold both, one or
    neither member of each pair (e^i, e^{n+i})."""
    n = draw(st.integers(1, 5))
    blocks = Blocks(draw(st.integers(1, 6)))
    for _ in range(draw(st.integers(1, 4))):
        held = draw(st.lists(st.sampled_from(["both", "i", "n+i", "neither"]), min_size=n, max_size=n))
        idx = tuple(sorted(
            [i for i, h in enumerate(held, 1) if h in ("both", "i")]
            + [n + i for i, h in enumerate(held, 1) if h in ("both", "n+i")]
        ))
        ex = tuple(draw(st.integers(0, 2)) for _ in range(2 * n + 1))
        blocks[idx] = {ex: draw(st.integers(-9, 9).filter(bool))}
    return n, blocks


@settings(max_examples=200, deadline=None)
@given(_pair_blocks(), st.sampled_from([Fraction(1), Fraction(3, 7)]))
def test_pair_op_matches_the_merge_indices_reference(case, lam):
    n, blocks = case
    for weights, lower in zip(rumin._pair_weights(ContactModel(n).dtheta().scale(lam)), (False, True)):
        got = forms.pair_op(blocks, n, weights, lower)
        assert ({idx: t for idx, t in got.items() if t}, got.den) == _pair_op_reference(
            blocks, n, weights, lower
        )


# -- primitivity and membership ------------------------------------------------------


def test_is_primitive_examples():
    assert is_primitive(_dx(M1))  # theta^dx1^dtheta lives above top degree
    f = Poly.variable(3, 1)
    assert not is_primitive(wedge(_dx(M1), _dy(M1)).scale_poly(f))
    assert is_primitive(Form.zero(M1, 2))


def test_in_rumin_examples():
    assert in_rumin(wedge(M1.theta(), _dx(M1)))
    assert not in_rumin(wedge(_dx(M1), _dy(M1)))
    assert in_rumin(_dx(M1))


def test_membership_matches_gamma_criterion():
    rng = stream(27, 0)
    for model in (M1, M2):
        for deg in range(0, model.dim + 1):
            for _ in range(5):
                w = random_form(model, rng, deg, 2)
                via_gamma = gamma(w).is_zero() and gamma(exterior_d(w)).is_zero()
                assert in_rumin(w) == via_gamma


# -- projection -------------------------------------------------------------------


def test_pi_examples():
    assert pi(wedge(_dx(M1), _dy(M1))).is_zero()
    tdx = wedge(M1.theta(), _dx(M1))
    assert pi(tdx).form == tdx


def test_pi_idempotent_and_certifying():
    rng = stream(28, 0)
    for model in (M1, M2):
        for deg in range(0, model.dim + 1):
            w = random_form(model, rng, deg, 2)
            p = pi(w)
            assert isinstance(p, RuminElement)
            assert pi(p.form).form == p.form
            assert in_rumin(p.form)
            assert gamma(p.form).is_zero()
            assert pi(exterior_d(w)).form == exterior_d(p.form)


def test_certify():
    # certify is the element's own constructor: both refuse dx1^dy1, which
    # is not in R, with one message
    tdx = wedge(M1.theta(), _dx(M1))
    rho = certify(tdx)
    assert isinstance(rho, RuminElement) and rho == RuminElement(tdx) == pi(tdx)
    dxdy = wedge(_dx(M1), _dy(M1))
    with pytest.raises(DomainError) as via_certify:
        certify(dxdy)
    with pytest.raises(DomainError) as via_element:
        RuminElement(dxdy)
    assert str(via_element.value) == str(via_certify.value)
    assert "not in the Rumin subspace" in str(via_element.value)


# -- structure maps ------------------------------------------------------------------


def test_m1_of_closed_form():
    assert m1(certify(_dx(M1))).is_zero()


def test_m1_stays_in_subcomplex():
    rng = stream(29, 0)
    for deg in range(0, M2.dim + 1):
        rho = pi(random_form(M2, rng, deg, 2))
        out = m1(rho)
        assert isinstance(out, RuminElement) and in_rumin(out.form)


def test_m2_example():
    assert m2(certify(_dx(M1)), certify(_dy(M1))).is_zero()


def test_m3_example_frozen():
    a, b = certify(_dx(M1)), certify(_dy(M1))
    got = m3(a, b, a)
    assert got.form == wedge(M1.theta(), _dx(M1)).scale(2)
    assert got.form.to_text() == "2 theta^dx1"


def test_m3_degree_law():
    rng = stream(30, 0)
    for _ in range(10):
        degs = [rng.randint(0, 2) for _ in range(3)]
        rho, sigma, tau = (pi(random_form(M2, rng, d, 2)) for d in degs)
        out = m3(rho, sigma, tau)
        if not out.is_zero():
            assert out.degree == sum(degs) - 1


def test_mk_zero():
    elems = tuple(certify(_dx(M1)) for _ in range(4))
    out = mk_zero(4, elems)
    assert out.is_zero() and isinstance(out, RuminElement)
    with pytest.raises(DomainError):
        mk_zero(3, elems[:3])


def test_f1_f2_examples():
    tdx = wedge(M1.theta(), _dx(M1))
    assert f1(certify(tdx)) == tdx
    a, b = certify(_dx(M1)), certify(_dy(M1))
    assert f2(a, b) == M1.theta().scale(-1)
    assert fk_zero(3, (a, b, a)).is_zero()
    with pytest.raises(DomainError):
        fk_zero(2, (a, b))


def test_f2_shuffle_symmetry():
    # f2 composed with the (1,1)-shuffle sum vanishes:
    # f2(a, b) - (-1)^(|a||b|) f2(b, a) = 0 by graded symmetry of the wedge.
    rng = stream(31, 0)
    for _ in range(8):
        da, db = rng.randint(0, 2), rng.randint(0, 2)
        a = pi(random_form(M1, rng, da, 2))
        b = pi(random_form(M1, rng, db, 2))
        sign = -1 if (da & 1) and (db & 1) else 1
        assert (f2(a, b) - f2(b, a).scale(sign)).is_zero()


def test_uncertified_inputs_rejected():
    raw = wedge(M1.theta(), _dx(M1))  # in R, but a plain Form
    with pytest.raises(DomainError):
        m1(raw)
    with pytest.raises(DomainError):
        m2(raw, raw)
    with pytest.raises(DomainError):
        f2(raw, raw)
    # the vanishing arities reject it too, as operators and as families
    with pytest.raises(DomainError):
        mk_zero(4, (raw,) * 4)
    with pytest.raises(DomainError):
        fk_zero(3, (raw,) * 3)
    with pytest.raises(DomainError):
        rumin_ops(M1)(4, (raw,) * 4)
    with pytest.raises(DomainError):
        rumin_morphism(M1)(3, (raw,) * 3)


def test_warm_families_still_reject_uncertified_inputs():
    # A Form never equals a RuminElement, so a memo warmed on an element
    # does not answer the same form passed as a plain Form.
    a, b = certify(_dx(M1)), certify(_dy(M1))
    raw = _dx(M1)
    for family in (rumin_ops(M1), rumin_morphism(M1)):
        family(2, (a, b))
        assert raw == a.form and raw != a
        with pytest.raises(DomainError):
            family(2, (raw, b))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(0, 2**32), st.integers(0, 9))
def test_equal_rumin_elements_hash_alike(n, seed, other_degree):
    rng = stream(seed, 0)
    rho = pi(random_form(ContactModel(n), rng, rng.randint(0, 2 * n + 1), 2))
    model = ContactModel(n)  # another model instance
    terms = {
        idx: Poly(model.nvars, {ex: Fraction(c) for ex, c in p.terms.items()})
        for idx, p in rho.form.terms.items()
    }
    twin = RuminElement(Form(model, rho.degree, terms, _canonical=True))
    assert twin == rho and hash(twin) == hash(rho)
    zero = RuminElement(Form.zero(model, other_degree))
    assert zero == rho.zero_of_degree(rho.degree) and hash(zero) == hash(rho.zero_of_degree(rho.degree))
    wrapped = RuminElement(rho.form)
    assert wrapped == rho and hash(wrapped) == hash(rho)


def test_rumin_element_algebra():
    a = certify(_dx(M1))
    b = certify(_dy(M1))
    s = a + b
    assert isinstance(s, RuminElement) and s.degree == 1
    assert s.scale(Fraction(1, 2)) + s.scale(Fraction(1, 2)) == s
    assert a.zero_of_degree(2).is_zero()
    # subtraction is the forms': equal elements give a zero of their degree
    diff = s - RuminElement(Form(M1, 1, dict(s.form.terms), _canonical=True))
    assert isinstance(diff, RuminElement) and diff.is_zero() and diff.degree == 1
    assert s - a == b and (s - a).form == s.form + a.form.scale(-1)


# -- products kept on elements ------------------------------------------------------


def _fresh(rho):
    """An element equal to rho, on a new Form: no kept product, no kept gamma."""
    return RuminElement(Form(rho.model, rho.degree, dict(rho.form.terms), _canonical=True))


@pytest.mark.parametrize("n, seed, degrees", [(1, 1, (1, 1, 1)), (2, 3, (2, 1, 1)), (3, 0, (1, 2, 2))])
def test_kept_products_match_fresh_computations(n, seed, degrees):
    # seeds whose m2, m3 and f2 below are all nonzero
    model = ContactModel(n)
    rng = stream(seed, n)
    a, b, c = (pi(random_form(model, rng, degree, 2)) for degree in degrees)

    def values(a, b, c):
        return [m2(a, b), m3(a, b, c), f2(a, b), m3(b, c, a), f2(b, c), m2(b, c), m3(a, b, c)]

    warm = values(a, b, c)
    assert not any(v.is_zero() for v in warm)
    assert values(a, b, c) == warm  # the kept products answer
    assert values(*map(_fresh, (a, b, c))) == warm


def test_a_repeated_pair_reuses_its_kept_product(monkeypatch):
    wedges, gammas = [], []
    right_wedge, right_gamma = rumin.wedge, rumin._gamma

    def counted_wedge(x, y):
        wedges.append((x, y))
        return right_wedge(x, y)

    def counted_gamma(w, lam):
        gammas.append(w)
        return right_gamma(w, lam)

    monkeypatch.setattr(rumin, "wedge", counted_wedge)
    monkeypatch.setattr(rumin, "_gamma", counted_gamma)
    a, b, c = certify(_dx(M1)), certify(_dy(M1)), certify(_dx(M1))
    m3(a, b, c)
    assert len(wedges) == 4  # a^b, b^c, and the two outer wedges of m3
    m3(a, b, c)
    assert len(wedges) == 6  # the outer wedges only
    f2(a, b), f2(b, c), m2(a, b), m2(b, c)
    assert len(wedges) == 6
    ab = wedge(a.form, b.form)
    assert sum(1 for w in gammas if w == ab) == 1  # gamma(a^b) once, kept on the shared product


def test_kept_products_leave_certificates_equality_and_hash_alone():
    a, b, c = certify(_dx(M1)), certify(_dy(M1)), certify(_dx(M1))
    m2(a, b), m3(a, b, c), f2(a, b)
    assert a == _fresh(a) and hash(a) == hash(_fresh(a))
    raw = a.form
    for call in (lambda: m2(raw, b), lambda: m2(b, raw), lambda: m3(raw, b, c),
                 lambda: m3(a, b, raw), lambda: f2(raw, b)):
        with pytest.raises(DomainError):
            call()
