"""Tests for the excess-rate-of-return calculus."""

import math

import numpy as np
import pytest

import glevy as g
from conftest import (
    DEFAULT_MODELS,
    assert_close,
    central_diff,
    random_risk_params,
)

LK_FAMILIES = [
    "Brownian",
    "Poisson",
    "CompoundPoissonNormal",
    "Gamma",
    "ScaledGamma",
    "VarianceGamma",
    "NegativeBinomial",
]


def test_closed_form_premiums():
    # Gamma: R = ln[(1 - sig + lam*sig/(1+lam)) / (1 - sig)] * m ... via psi.
    model = g.Gamma(m=1.0)
    lam, sig = 1.0, 0.5
    r = g.risk_premium(model, lam, sig)
    expected = (
        -math.log(0.5) - math.log(2.0) + math.log(1.5)
    )  # psi(sig)+psi(-lam)-psi(sig-lam)
    assert r == pytest.approx(expected, rel=1e-14)
    assert r == pytest.approx(math.log(1.5), rel=1e-12)

    vg = g.VarianceGamma(m=2.0)
    r = g.risk_premium(vg, 1.0, 1.0)
    # psi(1) + psi(-1) - psi(0), with psi even for the symmetric VG model.
    assert r == pytest.approx(-4.0 * math.log(0.75), rel=1e-12)

    po = g.Poisson(m=1.0)
    r = g.risk_premium(po, math.log(2.0), math.log(2.0))
    # m[(e^s - 1) + (e^{-l} - 1) - (e^{s-l} - 1)] = 1 + 0.5 - 1 - 1 + 1 - 1 = 0.5
    assert r == pytest.approx(0.5, rel=1e-14)


def test_premium_identity(family_case, np_rng):
    # R(lam, sig) + R_tilde(lam, sig) = psi(sig) + psi(-sig).
    model, _, _ = family_case
    for lam, sig in random_risk_params(model, 30, np_rng, need_minus_sigma=True):
        lhs = g.risk_premium(model, lam, sig) + g.inverse_fx_premium(model, lam, sig)
        rhs = model.psi(sig) + model.psi(-sig)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))
        assert g.premium_identity_check(model, lam, sig) < 1e-12


def test_premium_positive(family_case, np_rng):
    model, _, _ = family_case
    for lam, sig in random_risk_params(model, 200, np_rng):
        assert g.risk_premium(model, lam, sig) > 0.0


def test_premium_monotone_in_each_argument(family_case, np_rng):
    model, _, _ = family_case
    for lam, sig in random_risk_params(model, 200, np_rng, frac=0.4):
        base = g.risk_premium(model, lam, sig)
        up_l = g.risk_premium(model, lam * 1.05, sig)
        up_s = g.risk_premium(model, lam, sig * 1.05)
        assert up_l > base
        assert up_s > base


def test_gradient_analytic_vs_fd(family_case, np_rng):
    model, _, _ = family_case
    for lam, sig in random_risk_params(model, 20, np_rng, frac=0.4):
        dl, ds = g.premium_gradient(model, lam, sig)
        h = 1e-6
        fd_l = central_diff(lambda x: g.risk_premium(model, x, sig), lam, h)
        fd_s = central_diff(lambda x: g.risk_premium(model, lam, x), sig, h)
        assert_close(dl, fd_l, 1e-5, "dR/dlam")
        assert_close(ds, fd_s, 1e-5, "dR/dsig")
        assert dl > 0.0 and ds > 0.0


def test_siegel_sign_rule(family_case, np_rng):
    # The inverse-rate premium is positive iff sig > lam.
    model, _, _ = family_case
    for lam, sig in random_risk_params(model, 200, np_rng, need_minus_sigma=True):
        rt = g.inverse_fx_premium(model, lam, sig)
        if abs(sig - lam) < 1e-10:
            continue
        assert (rt > 0.0) == (sig > lam)


def test_inverse_premium_as_mirror_premium(family_case, np_rng):
    # R_tilde(lam, sig) under M equals R(sig - lam, sig) under the mirror of M,
    # whenever sig > lam (so both arguments stay positive).
    model, _, _ = family_case
    mm = g.mirror(model)
    for lam, sig in random_risk_params(model, 50, np_rng, need_minus_sigma=True):
        if sig <= lam + 1e-6:
            continue
        rt = g.inverse_fx_premium(model, lam, sig)
        r_mirror = g.risk_premium(mm, sig - lam, sig)
        assert rt == pytest.approx(r_mirror, rel=1e-12, abs=1e-14)


def test_hessian_signs():
    # Gamma: R is concave in lam, convex in sig (for these parameters).
    ss, sl = g.premium_hessian_signs(g.Gamma(m=1.0), 1.0, 0.5)
    assert ss > 0 and sl < 0
    # Brownian: bilinear, so both second derivatives vanish.
    ss, sl = g.premium_hessian_signs(g.Brownian(), 0.3, 0.7)
    assert sl == 0 and ss == 0
    # VG: sign of d2R/dsig2 follows sign of |sig| - |sig - lam|.
    vg = g.VarianceGamma(m=2.0)
    ss, _ = g.premium_hessian_signs(vg, 1.0, 1.2)  # |1.2| > |0.2|
    assert ss > 0
    ss, _ = g.premium_hessian_signs(vg, 1.0, 0.3)  # |0.3| < |0.7|
    assert ss < 0


def test_hessian_signs_evaluates_psi_second_three_times(monkeypatch):
    calls = []
    psi_second = g.Gamma.psi_second

    def counting(self, alpha):
        calls.append(alpha)
        return psi_second(self, alpha)

    monkeypatch.setattr(g.Gamma, "psi_second", counting)
    assert g.premium_hessian_signs(g.Gamma(m=1.0), 1.0, 0.5) == (1, -1)
    assert sorted(calls) == [-1.0, -0.5, 0.5]


def test_curvature_recovery(family_case):
    model, lam, sig = family_case
    est = g.curvature_from_premium(model, sig)
    exact = model.psi_second(sig)
    assert_close(est, exact, 1e-3, "curvature")


def test_curvature_values():
    assert g.curvature_from_premium(g.Brownian(), 0.7) == pytest.approx(1.0, rel=1e-4)
    vg = g.VarianceGamma(m=2.0)
    # psi''(1) = (1 + 1/4) / (1 - 1/4)^2 = 20/9.
    assert g.curvature_from_premium(vg, 1.0) == pytest.approx(20.0 / 9.0, rel=1e-3)
    assert vg.psi_second(1.0) == pytest.approx(20.0 / 9.0, rel=1e-14)


def test_bilinearity_detection():
    assert g.is_bilinear(g.Brownian())
    for name in ("Poisson", "Gamma", "VarianceGamma", "NegativeBinomial"):
        model, _, _ = DEFAULT_MODELS[name]
        assert not g.is_bilinear(model)


def test_small_parameter_bilinear_limit(family_case):
    # R ~ psi''(0) * lam * sig for small lam, sig.
    model, _, _ = family_case
    lam = sig = 1e-3
    r = g.risk_premium(model, lam, sig)
    lead = model.psi_second(0.0) * lam * sig
    assert abs(r - lead) <= 10.0 * lam * sig * max(lam, sig)


@pytest.mark.parametrize("name", LK_FAMILIES)
def test_jump_decomposition_oracle(name, np_rng):
    model, _, _ = DEFAULT_MODELS[name]
    for lam, sig in random_risk_params(model, 10, np_rng, frac=0.4):
        direct = g.risk_premium(model, lam, sig)
        oracle = g.premium_via_levy_measure(model, lam, sig)
        assert_close(oracle, direct, 1e-8, f"{name} LK oracle")


def test_jump_decomposition_unsupported():
    with pytest.raises(g.Unsupported):
        g.levy_measure_of(g.AsymmetricVG(m=1.5, mu=0.2, s=0.8))


def test_measure_atoms():
    spec = g.levy_measure_of(g.Poisson(m=2.0))
    atoms = list(spec.atoms)
    assert atoms == [(1.0, 2.0)]
    nb = g.levy_measure_of(g.NegativeBinomial(m=1.0, q=0.5))
    it = iter(nb.atoms)
    x1, w1 = next(it)
    x2, w2 = next(it)
    assert (x1, w1) == (1.0, 0.5)  # m q^1 / 1
    assert x2 == 2.0 and w2 == pytest.approx(0.125)  # m q^2 / 2


def test_premium_witness_values():
    # Poisson: R = m (e^sig - 1)(1 - e^-lam).
    m, lam, sig = 1.3, 0.4, 0.7
    r = g.risk_premium(g.Poisson(m=m), lam, sig)
    assert r == pytest.approx(
        m * (math.exp(sig) - 1.0) * (1.0 - math.exp(-lam)), rel=1e-13
    )
    # NegativeBinomial leading atom contribution: m q (e^sig - 1)(1 - e^-lam).
    q = 0.5
    nb = g.NegativeBinomial(m=1.0, q=q)
    lam, sig = 0.4, 0.5
    r1 = q * (math.exp(sig) - 1.0) * (1.0 - math.exp(-lam))
    r_full = g.risk_premium(nb, lam, sig)
    assert r_full > r1  # remaining atoms all add positive mass
    # Gamma closed form: R = m ln[(1-sig+lam)(1)/( (1-sig)(1+lam) )] ... check via psi.
    ga = g.Gamma(m=2.0)
    lam, sig = 0.6, 0.3
    expect = 2.0 * math.log((1.0 - sig + lam) / ((1.0 - sig) * (1.0 + lam)))
    assert g.risk_premium(ga, lam, sig) == pytest.approx(expect, rel=1e-13)


def test_premium_surface_shape():
    model = g.Gamma(m=1.0)
    lams = [0.2, 0.4]
    sigs = [0.1, 0.3, 0.5]
    rows = g.premium_surface(model, lams, sigs)
    assert len(rows) == 6
    lam, sig, r, rt = rows[0]
    assert (lam, sig) == (0.2, 0.1)
    assert r == pytest.approx(g.risk_premium(model, 0.2, 0.1), rel=1e-15)
    assert rt == pytest.approx(g.inverse_fx_premium(model, 0.2, 0.1), rel=1e-15)
