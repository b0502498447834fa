"""Tests for the excess-rate-of-return calculus."""

import collections
import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import glevy as g
from glevy import premium
from conftest import (
    DEFAULT_MODELS,
    FAMILY_NAMES,
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
    "AsymmetricVG",
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


class _Curvatures:
    """A stand-in model whose psi'' is a table."""

    def __init__(self, table):
        self.table = table

    def psi_second(self, alpha):
        return self.table[alpha]


@pytest.mark.parametrize("k, sign", [(1.0, 1), (-1.0, -1), (0.5, 1), (-0.5, -1), (0.0, 0)])
def test_hessian_signs_have_no_tolerance(k, sign):
    # psi''(sig - lam) = 0 makes d2R/dsig2 = psi''(sig) and d2R/dlam2 =
    # psi''(-lam) exactly; each sign is that of k, however small the value.
    lam, sig = 1.0, 0.5

    def signs(at_sig, at_minus_lam):
        model = _Curvatures({sig: at_sig, sig - lam: 0.0, -lam: at_minus_lam})
        return g.premium_hessian_signs(model, lam, sig)

    assert signs(k * 1e-12, 0.0) == (sign, 0)
    assert signs(0.0, k * 1e-12) == (0, sign)
    assert signs(4.0, k * 4e-12) == (1, sign)
    assert signs(sign * 5e-324, sign * 5e-324) == (sign, sign)  # the smallest subnormal


def _sign(a, b):
    """The sign rule premium_hessian_signs states: the exact sign of a - b."""
    return 0 if a == b else (1 if a > b else -1)


# Finite only: the checked psi'' raises on a non-finite value.
_CURVATURES = [0.0, -0.0, 5e-324, -5e-324, 1e-12, -1e-12, 1.0, -1.0, 1.0 + 2.0**-52,
               1e300, -1e300]


@pytest.mark.parametrize("at_sig", _CURVATURES)
def test_hessian_signs_follow_the_sign_rule(at_sig):
    # One ulp apart still counts, and 1e300 - (-1e300), which overflows a
    # float, still gives +1.
    lam, sig = 1.0, 0.5
    for at_diff in _CURVATURES:
        for at_minus_lam in _CURVATURES:
            model = _Curvatures({sig: at_sig, sig - lam: at_diff, -lam: at_minus_lam})
            want = _sign(at_sig, at_diff), _sign(at_minus_lam, at_diff)
            got = g.premium_hessian_signs(model, lam, sig)
            assert got == want and all(type(s) is int for s in got)


@pytest.mark.parametrize("model", [
    g.Poisson(m=1e-7), g.Gamma(m=1e-7), g.CompoundPoissonNormal(m=1e-5, s=1.0),
    g.VarianceGamma(m=1e6), g.AsymmetricVG(m=1e6, mu=0.0, s=1.0),
], ids=lambda model: repr(model))
def test_small_intensity_jump_models_are_not_bilinear(model):
    # Their mixed partial d2R/dlam dsig = psi''(sig - lam) moves by less than
    # 1e-6 over the grid, but it moves: the verdict does not depend on scale.
    assert not g.is_bilinear(model)


@pytest.mark.parametrize("model", [g.Poisson(m=1e-13), g.Gamma(m=1e-13)],
                         ids=lambda model: model.family)
def test_hessian_signs_of_a_small_intensity(model):
    # |d2R| is near 1e-13: the signs do not depend on the model's scale.
    assert g.premium_hessian_signs(model, 0.3, 0.5) == (1, -1)


def test_curvature_recovery(family_case):
    model, lam, sig = family_case
    est = g.curvature_from_premium(model, sig)
    exact = model.psi_second(sig)
    assert_close(est, exact, 1e-3, "curvature")


@pytest.mark.parametrize("model, sig", [
    (g.Gamma(m=1.0), 0.999995),
    (g.mirror(g.Gamma(m=1.0)), -0.999995),
    (g.ScaledGamma(m=2.0, kappa=0.5), 1.99999),
    (g.mirror(g.ScaledGamma(m=1.0, kappa=1e6)), 5e-7),
], ids=["Gamma", "mirror-Gamma", "ScaledGamma", "mirror-ScaledGamma"])
def test_curvature_recovery_near_the_domain_limit(model, sig):
    # h = 1e-5 put sig + h, sig - 2h or -h past a limit (the last, -1e-5, past
    # the mirror's -1e-6); h shrinks to a 1e4th of sig's distance from it.
    est = g.curvature_from_premium(model, sig)
    assert_close(est, model.psi_second(sig), 1e-3, "curvature")


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
    # Domain upper end -ln 0.95 = 0.051: no point of the scan fits.
    with pytest.raises(g.Unsupported, match="grid infeasible"):
        g.is_bilinear(g.NegativeBinomial(m=1.0, q=0.95))


def test_small_parameter_bilinear_limit(family_case):
    # R ~ psi''(0) * lam * sig for small lam, sig.
    model, _, _ = family_case
    lam = sig = 1e-3
    r = g.risk_premium(model, lam, sig)
    lead = model.psi_second(0.0) * lam * sig
    assert abs(r - lead) <= 10.0 * lam * sig * max(lam, sig)


LK_MODELS = [DEFAULT_MODELS[name][0] for name in LK_FAMILIES] + [
    g.mirror(DEFAULT_MODELS[name][0])
    for name in ("Poisson", "Gamma", "ScaledGamma", "AsymmetricVG", "NegativeBinomial")]


@pytest.mark.parametrize("model", LK_MODELS, ids=lambda model: model.family)
def test_jump_decomposition_oracle(model, np_rng):
    for lam, sig in random_risk_params(model, 10, np_rng, frac=0.4):
        direct = g.risk_premium(model, lam, sig)
        oracle = g.premium_via_levy_measure(model, lam, sig)
        assert_close(oracle, direct, 1e-8, f"{model.family} LK oracle")


@pytest.mark.parametrize("model", [g.Gamma(m=1.0), g.VarianceGamma(m=1.0),
                                   g.CompoundPoissonNormal(m=1.0, s=1.0)], ids=repr)
def test_levy_measure_premium_is_accurate_at_a_tiny_premium(model):
    # R is about 1e-14 at lam = sig = 1e-7: the quadrature's tolerance is
    # relative to R, with no absolute floor for a small R to hide under.
    lam = sig = 1e-7
    assert g.premium_via_levy_measure(model, lam, sig) == pytest.approx(
        g.risk_premium(model, lam, sig), rel=1e-8, abs=0.0)


@pytest.mark.parametrize("model,lam,sig", [
    (g.Gamma(m=1.0), 0.25, 1.5),
    (g.VarianceGamma(m=2.0), 0.3, 2.5),
    (g.NegativeBinomial(m=1.0, q=0.5), 0.3, 1.0),
], ids=lambda v: getattr(v, "family", v))
def test_levy_measure_premium_outside_the_domain_raises(model, lam, sig):
    # The jump-measure integral diverges where risk_premium's psi is undefined.
    with pytest.raises(g.DomainViolation):
        g.risk_premium(model, lam, sig)
    with pytest.raises(g.DomainViolation):
        g.premium_via_levy_measure(model, lam, sig)


@pytest.mark.parametrize("model,lam,sig,match", [
    # At the inclusive limit sig = 1 - 1e-9 the density's tail decays as
    # e^{-1e-9 x}/x: a quadrature piece fails.
    (g.Gamma(m=1.0), 0.5, 1.0 - 1e-9, "premium quadrature error inf exceeds tolerance"),
    # Logarithmic atoms q^n/n with q = 1 - 1e-7 need about 1e8 terms.
    (g.NegativeBinomial(m=1.0, q=1.0 - 1e-7), 0.5, 5e-8, "not converged in 1000000 terms"),
], ids=["Gamma", "NegativeBinomial"])
def test_levy_measure_premium_that_misses_its_tolerance_raises(model, lam, sig, match):
    assert math.isfinite(g.risk_premium(model, lam, sig))
    with pytest.raises(g.QuadratureFailure, match=match):
        g.premium_via_levy_measure(model, lam, sig)


@pytest.mark.parametrize("fn, model, lam", [
    (g.risk_premium, g.Brownian(), 0.5),
    (g.risk_premium, g.CompoundPoissonNormal(m=1.0, s=1.0), 0.0),
    (g.premium_via_levy_measure, g.CompoundPoissonNormal(m=1.0, s=1.0), 0.0),
], ids=["Brownian", "CPN", "CPN-levy-measure"])
def test_premium_whose_psi_rounds_to_inf_raises(fn, model, lam):
    # psi(1e200) rounds to inf without an OverflowError: R would be inf - inf,
    # and the jump-measure integrand would overflow math.exp untyped.
    with pytest.raises(g.ParamOutOfRange, match="psi overflows a float"):
        fn(model, lam, 1e200)


@pytest.mark.parametrize("m,mu,s", [(1.5, 0.2, 0.8), (0.3, -1.0, 0.5)])
def test_asymmetric_vg_jump_measure_oracle(m, mu, s):
    # nu(dx) = m e^{-x/kappa1}/x dx on x > 0 and m e^{-|x|/kappa2}/|x| dx on
    # x < 0, with the kappas of the class docstring.
    model = g.AsymmetricVG(m=m, mu=mu, s=s)
    root = math.sqrt(mu * mu + 2.0 * m * s * s)
    k1, k2 = (mu + root) / (2.0 * m), (-mu + root) / (2.0 * m)
    log_f = model.levy_measure().log_density
    for x in (0.7, -0.7, 3.0, -3.0):
        want = math.log(m) - abs(x) / (k1 if x > 0.0 else k2) - math.log(abs(x))
        assert log_f(x) == pytest.approx(want, rel=1e-14)
    for lam, sig in [(0.1, 0.2), (0.25, 0.05), (0.05, 0.3)]:
        assert_close(g.premium_via_levy_measure(model, lam, sig),
                     g.risk_premium(model, lam, sig), 1e-8, "AVG LK oracle")


def test_measure_atoms():
    nu = g.Poisson(m=2.0).levy_measure()
    assert (nu.atoms, nu.scale) == ((1, 1), 1.0)
    assert math.exp(nu.log_weight(1)) == pytest.approx(2.0, rel=1e-15)
    nb = g.NegativeBinomial(m=1.0, q=0.5).levy_measure()
    assert (nb.atoms, nb.scale) == ((1, math.inf), 1.0)
    assert math.exp(nb.log_weight(1)) == pytest.approx(0.5, rel=1e-15)  # m q^1 / 1
    assert math.exp(nb.log_weight(2)) == pytest.approx(0.125, rel=1e-15)  # m q^2 / 2


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
    assert _surface_ulps(model, rows, lams, sigs) <= SURFACE_ULPS


# --------------------------------------------------------------------------
# The results equal the per-point formulas bit for bit (the surface, whose psi
# values come from arrays, to SURFACE_ULPS), and the functions that share psi
# values evaluate each distinct argument once.
# --------------------------------------------------------------------------

MIRRORED = ("Poisson", "Gamma", "ScaledGamma", "AsymmetricVG", "NegativeBinomial")
ALL_MODELS = [DEFAULT_MODELS[name][0] for name in FAMILY_NAMES] + [
    g.mirror(DEFAULT_MODELS[name][0]) for name in MIRRORED]


def _same(new, old):
    # repr tells -0.0 from 0.0, which == does not.
    return new == old and repr(new) == repr(old)


# Reference per-point formulas, composed of whole risk_premium and
# inverse_fx_premium calls, each of which evaluates its own psi values.
def _ref_identity_check(model, lam, sig):
    return (g.risk_premium(model, lam, sig) + g.inverse_fx_premium(model, lam, sig)
            - model.psi(sig) - model.psi(-sig))


def _ref_gradient(model, lam, sig):
    d_lam = model.psi_prime(sig - lam) - model.psi_prime(-lam)
    d_sig = model.psi_prime(sig) - model.psi_prime(sig - lam)
    return d_lam, d_sig


def _ref_curvature(model, sig):
    h = premium._FD_SCALE * max(1.0, abs(sig))
    k = premium._FD_SCALE * max(1.0, abs(sig))
    rp = g.risk_premium
    d_sig_at_h = (rp(model, h, sig + k) - rp(model, h, sig - k)) / (2.0 * k)
    return d_sig_at_h / h


def _ref_surface(model, lams, sigs):
    rows = []
    for lam in lams:
        for sig in sigs:
            rows.append((float(lam), float(sig),
                         g.risk_premium(model, lam, sig),
                         g.inverse_fx_premium(model, lam, sig)))
    return rows


# The surface's bound, in ulps of the largest |psi| term of R (or R_tilde): on
# these grids each array psi is within 2 ulps of the scalar one, and the two
# additions round their nearby sums to floats up to an ulp of twice that term
# apart, so 3 * 2 + 2. Measured worst: 4.0 (AsymmetricVG on perfbench's 40 x 40
# calculus grid, where one term is 2 ulps off); Brownian's rows are equal.
SURFACE_ULPS = 8


def _surface_ulps(model, rows, lams, sigs):
    """The worst |R - R_ref| and |R_tilde - R_tilde_ref| of rows against
    _ref_surface, in ulps of each formula's largest |psi| term; the rows must
    hold floats, in _ref_surface's order, with its (lam, sig)."""
    ref = _ref_surface(model, lams, sigs)
    assert len(rows) == len(ref)
    worst = 0.0
    for row, want, (lam, sig) in zip(rows, ref, itertools.product(lams, sigs)):
        assert row[:2] == want[:2] and all(type(x) is float for x in row)
        at_sig, at_lam, at_diff, at_minus_sig = map(model.psi, (sig, -lam, sig - lam, -sig))
        for got, want_, terms in ((row[2], want[2], (at_sig, at_lam, at_diff)),
                                  (row[3], want[3], (at_minus_sig, at_diff, at_lam))):
            worst = max(worst, abs(got - want_) / math.ulp(max(map(abs, terms))))
    return worst


def _outcome(fn, *args):
    """fn's value, or the type of the error it raises."""
    try:
        return fn(*args)
    except g.GlevyError as e:
        return type(e)


def _grid_for(model, n, dtype=float):
    hi = min(model.domain.upper, -model.domain.lower, 3.0) * 0.45
    return np.linspace(0.02, hi, n).astype(dtype)


_SYMMETRIC = [g.VarianceGamma(m=2.0), g.CompoundPoissonNormal(m=1.0, s=0.5),
              g.AsymmetricVG(m=1.5, mu=0.0, s=0.8), g.mirror(g.AsymmetricVG(m=1.5, mu=0.0, s=0.8))]


def test_structural_zeros_of_the_hessian_are_exact():
    for lam, sig in itertools.product([0.05, 0.2, 0.35], repeat=2):
        assert g.premium_hessian_signs(g.Brownian(), lam, sig) == (0, 0)
    for model in ALL_MODELS:
        for sig in (0.05, 0.2, 0.35):
            # lam = 0: sig - lam is sig, so d2R/dsig2 is exactly 0.
            assert g.premium_hessian_signs(model, 0.0, sig)[0] == 0
    for model in _SYMMETRIC:  # psi'' even: |sig - lam| = sig or = lam
        for x in (0.1, 0.2, 0.3):
            assert g.premium_hessian_signs(model, 2 * x, x)[0] == 0
            assert g.premium_hessian_signs(model, x, 2 * x)[1] == 0


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda model: model.family)
def test_hessian_signs_match_second_differences_of_the_premium(model):
    # An independent route: the sign of the central second difference of R,
    # wherever it stands clear of its rounding error.
    h, rp = 1e-3, g.risk_premium
    grid = _grid_for(model, 6)
    for lam, sig in itertools.product(grid[1:-1], repeat=2):
        r = rp(model, lam, sig)
        fd = (rp(model, lam, sig + h) - 2.0 * r + rp(model, lam, sig - h),
              rp(model, lam + h, sig) - 2.0 * r + rp(model, lam - h, sig))
        signs = g.premium_hessian_signs(model, lam, sig)
        for d2, sign in zip(fd, signs):
            if abs(d2) > 1e-9 * max(1.0, abs(r)):
                assert sign == (1 if d2 > 0 else -1)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda model: model.family)
def test_pointwise_functions_match_the_per_point_formulas(model, np_rng):
    for lam, sig in random_risk_params(model, 30, np_rng, need_minus_sigma=True):
        assert _same(g.premium_identity_check(model, lam, sig),
                     _ref_identity_check(model, lam, sig))
        assert _same(g.premium_gradient(model, lam, sig), _ref_gradient(model, lam, sig))
        assert _same(g.curvature_from_premium(model, sig), _ref_curvature(model, sig))


@pytest.mark.parametrize("dtype", [float, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda model: model.family)
def test_surface_matches_the_per_point_formulas(model, dtype):
    lams, sigs = _grid_for(model, 17, dtype), _grid_for(model, 13, dtype)[::-1]
    rows = g.premium_surface(model, lams, sigs)
    assert _surface_ulps(model, rows, lams, sigs) <= SURFACE_ULPS
    if model.family == "Brownian":  # 0.5 a a is the same on arrays
        assert _same(rows, _ref_surface(model, lams, sigs))


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda model: model.family)
def test_surface_on_python_ints_matches_the_per_point_formulas(model):
    # Integer points leave the domain of most families; then both raise.
    lams, sigs = [0, 1, 2], [0, 1]
    new = _outcome(g.premium_surface, model, lams, sigs)
    old = _outcome(_ref_surface, model, lams, sigs)
    if isinstance(old, list):
        assert _surface_ulps(model, new, lams, sigs) <= SURFACE_ULPS
    else:
        assert new is old
    if model.domain.upper == math.inf and model.domain.lower == -math.inf:
        assert len(new) == 6


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda model: model.family)
def test_empty_surface_evaluates_nothing(model, monkeypatch):
    def no_psi(self, alpha):
        raise AssertionError("psi evaluated")

    monkeypatch.setattr(type(model), "psi", no_psi)
    assert g.premium_surface(model, [], [0.1, 5.0]) == []
    assert g.premium_surface(model, np.array([0.1, 5.0]), np.array([])) == []


@pytest.mark.parametrize("name", ["lams", "sigs"])
@pytest.mark.parametrize("grid", [
    np.array([[0.1, 0.2], [0.3, 0.4]]), 0.2, np.array(0.2), np.array([0.1, 0.2 + 1j]),
    [0.1, "0.2"], [0.1, [0.2, 0.3]], [True, False],
], ids=["2-d", "float", "0-d", "complex", "str", "ragged", "bool"])
def test_surface_takes_only_one_dimensional_real_grids(name, grid):
    # A 2-d grid once gave rows holding lists, a 0-d one a TypeError, and a
    # complex one lost its imaginary part with a ComplexWarning.
    grids = {"lams": [0.1, 0.3], "sigs": [0.2, 0.4], name: grid}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(g.ParamOutOfRange) as exc:
            g.premium_surface(g.Gamma(m=1.0), grids["lams"], grids["sigs"])
    assert exc.value.name == name


@pytest.mark.parametrize("bad_sig", [0.5, 0.999, 1.0, 1.5, -1.5, math.inf, math.nan])
@pytest.mark.parametrize("model", [g.Gamma(m=1.0), g.mirror(g.Gamma(m=1.0))],
                         ids=lambda model: model.family)
def test_surface_raises_exactly_when_the_per_point_formulas_do(model, bad_sig):
    lams, sigs = [0.1, 0.3], [0.2, bad_sig, 0.4]
    new = _outcome(g.premium_surface, model, lams, sigs)
    old = _outcome(_ref_surface, model, lams, sigs)
    if old is g.DomainViolation:
        assert new is g.DomainViolation
    else:
        assert isinstance(old, list) and _surface_ulps(model, new, lams, sigs) <= SURFACE_ULPS


def _count_calls(monkeypatch, method):
    calls = []
    original = getattr(g.Gamma, method)

    def counting(self, alpha):
        calls.append(alpha)
        return original(self, alpha)

    monkeypatch.setattr(g.Gamma, method, counting)
    return calls


def test_surface_evaluates_each_psi_argument_once(monkeypatch):
    # Four array evaluations: at sig, -sig, -lam and the lam x sig matrix sig - lam.
    calls = _count_calls(monkeypatch, "psi")
    lams, sigs = np.array([0.1, 0.2, 0.3]), np.array([0.1, 0.2, 0.3, 0.4])
    rows = g.premium_surface(g.Gamma(m=1.0), lams, sigs)
    assert len(rows) == 12
    assert [np.shape(alpha) for alpha in calls] == [(4,), (4,), (3,), (3, 4)]
    want = [sigs, -sigs, -lams, sigs - lams[:, None]]
    assert all(np.array_equal(got, w) for got, w in zip(calls, want))


def test_identity_check_evaluates_psi_four_times(monkeypatch):
    calls = _count_calls(monkeypatch, "psi")
    g.premium_identity_check(g.Gamma(m=1.0), 0.25, 0.5)
    assert sorted(calls) == [-0.5, -0.25, 0.25, 0.5]


def test_gradient_evaluates_psi_prime_three_times(monkeypatch):
    calls = _count_calls(monkeypatch, "psi_prime")
    g.premium_gradient(g.Gamma(m=1.0), 1.0, 0.5)
    assert sorted(calls) == [-1.0, -0.5, 0.5]


@dataclasses.dataclass(frozen=True)
class _CountingGamma(g.Gamma):
    """A gamma process whose formulas record each float argument they run at,
    in `calls`, a field outside eq and hash."""

    calls: dict = dataclasses.field(default_factory=lambda: collections.defaultdict(list),
                                    compare=False)

    def _psi(self, a, xp=math):
        self.calls["psi"].append(a)
        return super()._psi(a, xp)

    def _psi_prime(self, a, xp=math):
        self.calls["psi_prime"].append(a)
        return super()._psi_prime(a, xp)

    def _psi_second(self, a, xp=math):
        self.calls["psi_second"].append(a)
        return super()._psi_second(a, xp)


def test_per_point_report_runs_each_formula_once_per_distinct_argument():
    # perfbench's calculus report: 1600 points, each through the gradient, the
    # Hessian signs and the identity check, on one model.
    model = _CountingGamma(m=1.0)
    grid = np.linspace(0.05, 0.4, 40)
    pts = [(lam, sig) for lam in grid for sig in grid]
    for lam, sig in pts:
        g.premium_gradient(model, lam, sig)
        g.premium_hessian_signs(model, lam, sig)
        g.premium_identity_check(model, lam, sig)
    args = {"psi": lambda lam, sig: (sig, -lam, sig - lam, -sig),
            "psi_prime": lambda lam, sig: (sig, -lam, sig - lam),
            "psi_second": lambda lam, sig: (sig, -lam, sig - lam)}
    for name, at in args.items():
        distinct = {float(a) for lam, sig in pts for a in at(lam, sig)}
        counts = collections.Counter(model.calls[name])
        assert set(counts) == distinct and len(distinct) < 400, name
        assert counts.pop(0.0) == len(grid)  # zero, at sig == lam, is never kept
        assert set(counts.values()) == {1}, name


# --------------------------------------------------------------------------
# Properties over random in-domain (lam, sig).
# --------------------------------------------------------------------------

def _draw_point(data, model, need_minus_sigma=False):
    dom = model.domain
    lam_max = min(-dom.lower, 3.0) * 0.95
    sig_max = min(dom.upper, 3.0) * 0.95
    if need_minus_sigma:
        sig_max = min(sig_max, lam_max)
    lam = data.draw(st.floats(1e-3, lam_max), label="lam")
    sig = data.draw(st.floats(1e-3, sig_max), label="sig")
    probes = (sig, -lam, sig - lam) + ((-sig,) if need_minus_sigma else ())
    assume(all(dom.admissible(p) for p in probes))
    return lam, sig


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda model: model.family)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_premium_pair_sums_to_psi_sig_plus_psi_minus_sig(model, data):
    lam, sig = _draw_point(data, model, need_minus_sigma=True)
    values = [model.psi(a) for a in (sig, -lam, sig - lam, -sig)]
    scale = max(1.0, *map(abs, values))
    total = g.risk_premium(model, lam, sig) + g.inverse_fx_premium(model, lam, sig)
    assert abs(total - model.psi(sig) - model.psi(-sig)) < 1e-12 * scale


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda model: model.family)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_premium_vanishes_at_zero_lambda(model, data):
    _, sig = _draw_point(data, model)
    assert g.risk_premium(model, 0.0, sig) == 0.0


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda model: model.family)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_premium_gradient_is_positive(model, data):
    lam, sig = _draw_point(data, model)
    d_lam, d_sig = g.premium_gradient(model, lam, sig)
    assert d_lam > 0.0 and d_sig > 0.0
