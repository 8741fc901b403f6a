import json
from fractions import Fraction
from math import lcm

import pytest

from ruminalg import cinfty, cli, finite, forms, rumin, suites
from ruminalg.forms import ContactModel, Form, exterior_d
from ruminalg.parser import eval_text
from ruminalg.suites import (
    SUITES,
    corrupted_rumin_ops,
    format_report,
    report_json,
    run_all,
    run_suite,
    suite_morphism,
    suite_stasheff,
)

from controls import corrupted_rumin_morphism

FAST = dict(n=1, trials=8, seed=3, max_poly_degree=2)


@pytest.fixture(scope="module")
def all_reports():
    return run_all(n=1, trials=3, seed=5)


def test_every_suite_passes_small():
    for name in SUITES:
        if name == "ce-cohomology":
            # exhaustive depth 5 is covered by the all_reports fixture; keep
            # the smoke loop at depth 3
            report = run_suite(name, **FAST, max_relation=3)
        else:
            report = run_suite(name, **FAST)
        assert report.passed, f"{name}: {report.failures[:2]}"
        assert report.checks > 0


def test_no_checks_never_passes():
    # ce-cohomology is exhaustive and ignores the trial count.
    for name in SUITES:
        if name == "ce-cohomology":
            continue
        report = run_suite(name, n=1, trials=0, seed=0)
        assert report.checks > 0 or not report.passed, name
    assert run_suite("lefschetz-iso", n=1, trials=0).passed  # checks no random input


def test_reports_deterministic():
    for name in ("dsa-lemma", "gamma-props", "stasheff"):
        a = run_suite(name, n=1, trials=10, seed=11)
        b = run_suite(name, n=1, trials=10, seed=11)
        da, db = a.to_json_dict(), b.to_json_dict()
        da.pop("wallTimeSeconds")
        db.pop("wallTimeSeconds")
        assert da == db


def test_different_seeds_differ_somewhere():
    # The generated inputs differ even though both runs pass.
    from ruminalg.forms import random_form
    from ruminalg.prng import stream

    m = ContactModel(1)
    a = random_form(m, stream(0, 0), 2, 2)
    b = random_form(m, stream(1, 0), 2, 2)
    assert a != b


def test_run_all_covers_everything(all_reports):
    assert [r.suite for r in all_reports] == list(SUITES)
    assert all(r.passed for r in all_reports)
    # the JSON report holds no check counts, so pin them here
    assert {r.suite: r.checks for r in all_reports} == {
        "dsq": 12, "leibniz": 12, "dsa-lemma": 9, "lefschetz-iso": 1, "gamma-props": 45,
        "gamma-invariance": 36, "retract": 60, "rumin-membership": 24, "stasheff": 15,
        "shuffle-vanishing": 36, "morphism": 12, "transfer-match": 9, "higher-vanish": 12,
        "ce-cohomology": 18047,
    }


def test_format_report_mentions_status():
    report = run_suite("lefschetz-iso", n=2, trials=1, seed=0)
    text = format_report(report)
    assert "PASS" in text and "suite=lefschetz-iso" in text


def test_report_json_array_for_all(all_reports, tmp_path):
    path = tmp_path / "all.json"
    report_json(all_reports, str(path))
    data = json.loads(path.read_text())
    assert isinstance(data, list) and len(data) == len(SUITES)
    assert all(set(d) >= {"suite", "passed", "failures", "version"} for d in data)


def test_corrupted_m3_fails_stasheff_with_witness(monkeypatch):
    monkeypatch.setattr(suites, "rumin_ops", corrupted_rumin_ops)
    rec = suite_stasheff(1, 30, 0, 2, max_relation=3)
    assert rec.failures
    witness = rec.failures[0]
    assert witness.inputs and witness.residual not in ("", "0")


def test_corrupted_f2_fails_morphism_with_witness(monkeypatch):
    monkeypatch.setattr(suites, "rumin_morphism", corrupted_rumin_morphism)
    rec = suite_morphism(1, 30, 0, 2, max_relation=2)
    assert rec.failures
    assert rec.failures[0].residual not in ("", "0")


def test_witnesses_refeed_to_eval(monkeypatch):
    model = ContactModel(1)
    with monkeypatch.context() as m:
        m.setattr(suites, "rumin_ops", corrupted_rumin_ops)
        rec = suite_stasheff(1, 30, 0, 2, max_relation=3)
    monkeypatch.setattr(suites, "rumin_morphism", corrupted_rumin_morphism)
    mor = suite_morphism(1, 30, 0, 2, max_relation=2)
    for witness in [rec.failures[0], mor.failures[0]]:
        for text in witness.inputs:
            assert eval_text(text, model) is not None
        assert eval_text(witness.residual, model) is not None


def test_a_family_built_after_a_monkeypatch_sees_it(monkeypatch):
    # The operator memos belong to the families, not to a module: a warm
    # family keeps its values, a new one computes with the patched code.
    model = ContactModel(1)
    a, b = rumin.certify(model.generator(1)), rumin.certify(model.generator(2))
    warm = rumin.rumin_ops(model)
    before = warm(3, (a, b, a))  # 2 theta^dx1
    assert not before.is_zero()
    right = rumin.m3
    monkeypatch.setattr(rumin, "m3", lambda *block: right(*block).scale(3))
    assert warm(3, (a, b, a)) == before
    assert rumin.rumin_ops(model)(3, (a, b, a)) == before.scale(3)


# -- negative controls: a corrupted operator must fail a suite -------------------


def _double_one_gamma_scalar(monkeypatch):
    # c_1 of degree 2, the only scalar gamma uses at n = 1
    right = rumin._gamma_scalars

    def wrong(n, k):
        b = right(n, k)
        return (2 * b[0],) + b[1:] if k == 2 else b

    monkeypatch.setattr(rumin, "_gamma_scalars", wrong)


def _flip_gamma_d_in_pi(monkeypatch):
    def pi(w):
        flipped = w - exterior_d(rumin.gamma(w)) + rumin.gamma(exterior_d(w))
        return rumin.RuminElement._make(flipped)

    for module in (rumin, suites):
        monkeypatch.setattr(module, "pi", pi)


def _drop_koszul_sign(monkeypatch):
    monkeypatch.setattr(cinfty, "koszul_sign", lambda perm, degrees: 1)


def _wedge_rescales_by_own_den(monkeypatch):
    # wedge bringing an operand's coefficient p to the operand's common
    # denominator L by multiplying by p.den instead of L / p.den: p enters
    # the product as p * p.den**2 / L
    right = forms.wedge

    def skewed(w):
        den = lcm(*[p.den for p in w.terms.values()])
        return Form(w.model, w.degree, {idx: p.scale(Fraction(p.den**2, den)) for idx, p in w.terms.items()})

    def wedge(a, b):
        return right(skewed(a), skewed(b))

    for module in (forms, rumin, suites):
        monkeypatch.setattr(module, "wedge", wedge)


def _wedge_ignores_merge_sign(monkeypatch):
    # wedge multiplying every pair of disjoint coframe monomials into the
    # product with sign +1 (the kernel is patched where forms binds it)
    right = forms.mul_into
    monkeypatch.setattr(forms, "mul_into", lambda acc, a, b, sign: right(acc, a, b, abs(sign)))


def _unsigned_pair_moves(monkeypatch):
    # L, Lambda and the dtheta tail of d moving every coframe pair with sign
    # +1 (the bisection helper is patched in forms, through which rumin and
    # exterior_d both call it)
    right = forms.pair_moves

    def unsigned(idx, n, lower=False):
        return [(i, 1, moved) for i, _, moved in right(idx, n, lower)]

    monkeypatch.setattr(forms, "pair_moves", unsigned)


def _stale_signed_shuffle(monkeypatch):
    # a signed shuffle table whose last entry has the wrong sign
    right = cinfty._signed_shuffles

    def stale(p, q, parities, koszul):
        *rest, (sign, word, pick) = right(p, q, parities, koszul)
        return (*rest, (-sign, word, pick))

    monkeypatch.setattr(cinfty, "_signed_shuffles", stale)


@pytest.mark.parametrize(
    "corrupt, n",
    [(_double_one_gamma_scalar, 1), (_flip_gamma_d_in_pi, 1), (_drop_koszul_sign, 2),
     (_wedge_rescales_by_own_den, 2), (_wedge_ignores_merge_sign, 2), (_stale_signed_shuffle, 2),
     (_unsigned_pair_moves, 2)],
    ids=["gamma-scalar", "pi-gamma-d-sign", "koszul-sign", "wedge-own-den", "wedge-merge-sign",
         "stale-signed-shuffle", "pair-parity"],
)
def test_corrupted_operator_fails_a_suite_with_witness(monkeypatch, corrupt, n):
    corrupt(monkeypatch)
    monkeypatch.setattr(suites, "_retract_cache", {})
    model = ContactModel(n)
    failed = [
        report
        for name in ("gamma-props", "retract", "stasheff", "morphism", "shuffle-vanishing")
        if not (report := run_suite(name, n=n, trials=10)).passed
    ]
    assert failed
    for report in failed:
        witness = report.failures[0]
        assert witness.inputs and witness.residual not in ("", "0")
        for text in witness.inputs + [witness.residual]:
            assert eval_text(text, model).model == model


@pytest.mark.parametrize(
    "corrupt", [_double_one_gamma_scalar, _flip_gamma_d_in_pi], ids=["gamma-scalar", "pi-gamma-d-sign"]
)
def test_broken_retract_fails_the_transfer_suites(monkeypatch, capsys, corrupt):
    # A retract that fails its identities is a failed report with witnesses,
    # not a traceback, and it is not cached for later runs.
    monkeypatch.setattr(suites, "_retract_cache", {})
    model = ContactModel(1)
    with monkeypatch.context() as m:
        corrupt(m)
        for name in ("transfer-match", "higher-vanish"):
            report = run_suite(name, n=1, trials=3)
            assert not report.passed and report.failures
            for witness in report.failures:
                assert witness.inputs and witness.residual not in ("", "0")
                for text in witness.inputs + [witness.residual]:
                    assert eval_text(text, model).model == model
        assert cli.main(["verify", "transfer-match", "--n", "1", "--trials", "2"]) == 1
        out, err = capsys.readouterr()
        assert "FAIL" in out and "witness 1:" in out and "Traceback" not in out + err
        assert suites._retract_cache == {}
    assert run_suite("transfer-match", n=1, trials=3).passed


def _double_the_finite_homotopy(monkeypatch):
    # the built-in model's h doubled: the words read fine, the retract fails
    right = finite.RetractData

    def doubled(**maps):
        h = maps["h"]
        return right(**{**maps, "h": lambda v: h(v).scale(2)})

    monkeypatch.setattr(finite, "RetractData", doubled)


@pytest.mark.parametrize(
    "corrupt, tag",
    [(_double_one_gamma_scalar, "mu outside the span of the basis words"),
     (_double_the_finite_homotopy, "i pi = 1 - dh - hd")],
    ids=["gamma-scalar", "doubled-h"],
)
def test_a_broken_finite_model_fails_ce_cohomology_with_witness(monkeypatch, capsys, corrupt, tag):
    # The model cannot be built: no transfer check runs, and the report
    # fails with witnesses instead of ending in an error line.
    corrupt(monkeypatch)
    report = run_suite("ce-cohomology")
    assert not report.passed and report.failures
    assert report.checks == len(report.failures)
    for witness in report.failures:
        assert witness.inputs[-1] and witness.residual not in ("", "0")
    assert report.failures[0].inputs[-1] == tag
    if tag.startswith("mu"):  # the two words and the part of pi(a ^ b) outside their span
        assert report.failures[0].inputs == ["a", "b", tag]
        assert report.failures[0].residual == "-dx1^dy1"
    assert cli.main(["verify", "ce-cohomology"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL" in out and "witness 1:" in out and f"input: {tag}" in out
    assert "error:" not in out + err and "Traceback" not in out + err
