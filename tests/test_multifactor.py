"""Tests for vector models, coefficient schedules, and the money market."""

import math

import numpy as np
import pytest

import glevy as g


def two_gamma_fx():
    # Two independent gamma drivers, exposures of opposite sign: the standard
    # positive-rate construction for an exchange-rate-like price.
    m, lam1, lam2, sig1, sig2 = 1.0, 0.4, 0.3, 0.5, 0.2
    vglm = g.VectorGlm(
        components=(
            g.Component(g.Gamma(m=m), lam1, sig1),
            g.Component(g.Gamma(m=m), -lam2, -sig2),
        ),
        r=0.02,
    )
    return vglm, (m, lam1, lam2, sig1, sig2)


def test_jump_diffusion_premium_closed_form():
    # R = lam*sig + m [e^{theta^2/2} + e^{beta^2/2} - e^{(theta-beta)^2/2} - 1],
    # at lam = sig = 0 and theta = beta = 1: m (2 sqrt(e) - 2).
    vglm = g.jump_diffusion(m=1.0, s=1.0, lam=0.0, sig=0.0, beta=1.0, theta=1.0)
    r = g.vector_premium(vglm)
    expect = 2.0 * math.sqrt(math.e) - 2.0
    assert r == pytest.approx(expect, rel=1e-13)
    assert r == pytest.approx(1.2974425414002564, rel=1e-12)


def test_jump_diffusion_premium_general():
    m, s, lam, sig, beta, theta = 2.0, 1.0, 0.3, 0.4, 0.6, 0.7
    vglm = g.jump_diffusion(m=m, s=s, lam=lam, sig=sig, beta=beta, theta=theta)
    expect = lam * sig + m * (
        math.exp(theta**2 / 2.0)
        + math.exp(beta**2 / 2.0)
        - math.exp((theta - beta) ** 2 / 2.0)
        - 1.0
    )
    assert g.vector_premium(vglm) == pytest.approx(expect, rel=1e-13)


def test_single_component_reduces_to_scalar():
    model = g.Gamma(m=1.0)
    vglm = g.VectorGlm(components=(g.Component(model, 0.5, 0.4),), r=0.03, s0=2.0)
    assert g.vector_premium(vglm) == pytest.approx(
        g.risk_premium(model, 0.5, 0.4), rel=1e-15
    )
    spec = g.GlmSpec(model=model, r=0.03, lam=0.5, sig=0.4, s0=2.0)
    for x, t in [(0.3, 1.0), (-0.2, 2.5)]:
        assert g.vector_asset_value(vglm, [x], t) == pytest.approx(
            g.asset_value(spec, x, t), rel=1e-13
        )
        assert g.vector_kernel_value(vglm, [x], t) == pytest.approx(
            g.kernel_value(spec, x, t), rel=1e-13
        )


def test_two_gamma_closed_forms():
    # Asset: s0 e^{(r+R)t} e^{sig1 x1 - sig2 x2} (1-sig1)^{mt} (1+sig2)^{mt};
    # kernel: e^{-rt} e^{-lam1 x1 + lam2 x2} (1+lam1)^{mt} (1-lam2)^{mt}.
    vglm, (m, lam1, lam2, sig1, sig2) = two_gamma_fx()
    big_r = g.vector_premium(vglm)
    x1, x2, t = 0.7, 0.4, 2.0
    s = g.vector_asset_value(vglm, [x1, x2], t)
    expect_s = math.exp((0.02 + big_r) * t) * math.exp(sig1 * x1 - sig2 * x2) * (
        (1.0 - sig1) ** (m * t) * (1.0 + sig2) ** (m * t)
    )
    assert s == pytest.approx(expect_s, rel=1e-12)
    pi = g.vector_kernel_value(vglm, [x1, x2], t)
    expect_pi = math.exp(-0.02 * t) * math.exp(-lam1 * x1 + lam2 * x2) * (
        (1.0 + lam1) ** (m * t) * (1.0 - lam2) ** (m * t)
    )
    assert pi == pytest.approx(expect_pi, rel=1e-12)


def test_per_component_premium_sign():
    # Each component contributes a positive premium when sig_i lam_i > 0.
    vglm, _ = two_gamma_fx()
    for c in vglm.components:
        assert c.premium > 0.0


def test_premium_monotone_in_component_exposures():
    model = g.Gamma(m=1.0)

    def total(lam1, sig1):
        vglm = g.VectorGlm(
            components=(
                g.Component(model, lam1, sig1),
                g.Component(model, 0.3, 0.2),
            ),
            r=0.0,
        )
        return g.vector_premium(vglm)

    base = total(0.4, 0.5)
    assert total(0.5, 0.5) > base
    assert total(0.4, 0.6) > base


def test_cached_component_premium_is_exact():
    vglm, _ = two_gamma_fx()
    for c in vglm.components:
        assert c.premium == g.risk_premium(c.model, c.lam, c.sig)
        assert c.premium == c.premium


def test_component_domain_validation():
    with pytest.raises(g.DomainViolation):
        g.Component(g.Gamma(m=1.0), 0.5, 1.2)
    with pytest.raises(g.ParamOutOfRange):
        g.VectorGlm(components=(), r=0.0)


def make_schedule():
    return g.Schedule(
        breakpoints=[0.0, 1.0, 2.0],
        r=[0.02, 0.04],
        lam=[[0.4], [0.6]],
        sig=[[0.3], [0.5]],
    )


def test_money_market():
    sch = make_schedule()
    assert g.money_market(sch, 0.0) == pytest.approx(1.0)
    assert g.money_market(sch, 1.0) == pytest.approx(math.exp(0.02), rel=1e-14)
    assert g.money_market(sch, 2.0) == pytest.approx(math.exp(0.06), rel=1e-14)
    # Extension beyond the last breakpoint keeps the final rate.
    assert g.money_market(sch, 3.0) == pytest.approx(math.exp(0.10), rel=1e-14)
    # Continuity across a breakpoint.
    eps = 1e-9
    assert g.money_market(sch, 1.0 + eps) == pytest.approx(
        g.money_market(sch, 1.0 - eps), rel=1e-7
    )


def test_single_interval_schedule_matches_constant_model():
    model = g.Gamma(m=1.0)
    lam, sig, r, s0 = 0.5, 0.4, 0.03, 2.0
    vglm = g.VectorGlm(components=(g.Component(model, lam, sig),), r=r, s0=s0)
    sch = g.Schedule(breakpoints=[0.0, 2.0], r=[r], lam=[[lam]], sig=[[sig]])
    driver = g.simulate_path(model, horizon=2.0, steps=8, rng=g.Rng(3))
    spath = g.schedule_asset_path(vglm, sch, [driver])
    kpath = g.schedule_kernel_path(vglm, sch, [driver])
    spec = g.GlmSpec(model=model, r=r, lam=lam, sig=sig, s0=s0)
    for j, t in enumerate(driver.times):
        x = driver.values[j]
        assert spath.values[j] == pytest.approx(g.asset_value(spec, x, t), rel=1e-12)
        assert kpath.values[j] == pytest.approx(g.kernel_value(spec, x, t), rel=1e-12)


def test_schedule_paths_start_at_initial_values():
    vglm, _ = two_gamma_fx()
    sch = g.Schedule(
        breakpoints=[0.0, 1.0],
        r=[0.02],
        lam=[[0.4, -0.3]],
        sig=[[0.5, -0.2]],
    )
    d1 = g.simulate_path(g.Gamma(m=1.0), 1.0, 4, g.Rng(1))
    d2 = g.simulate_path(g.Gamma(m=1.0), 1.0, 4, g.Rng(2))
    spath = g.schedule_asset_path(vglm, sch, [d1, d2])
    kpath = g.schedule_kernel_path(vglm, sch, [d1, d2])
    assert spath.values[0] == pytest.approx(vglm.s0)
    assert kpath.values[0] == pytest.approx(1.0)


def test_grid_mismatch_raises():
    model = g.Gamma(m=1.0)
    vglm = g.VectorGlm(components=(g.Component(model, 0.4, 0.3),), r=0.02)
    sch = make_schedule()
    # 3 steps over [0, 2] puts no grid point at the t = 1 breakpoint.
    driver = g.simulate_path(model, horizon=2.0, steps=3, rng=g.Rng(4))
    with pytest.raises(g.GridMismatch):
        g.schedule_asset_path(vglm, sch, [driver])


@pytest.mark.parametrize("times", [
    np.linspace(0.0, 2.0, 9),               # points exactly on every breakpoint
    np.linspace(0.0, 3.5, 15),              # beyond the last breakpoint
    np.array([0.0, 0.3, 1.0, 1.7, 2.0, 2.2, 5.0]),
    np.array([0.0, 1.0 + 8e-6, 2.0 - 1e-13]),  # within isclose's tolerance
    np.array([0.0, 0.5, 1.0]),              # ends on an inner breakpoint
])
def test_refining_grid_indices_match_interval_of(times):
    from glevy.multifactor import _require_refining_grid

    sch = make_schedule()
    idx = _require_refining_grid(times, sch)
    assert idx.dtype.kind == "i"
    assert idx.tolist() == [sch.interval_of(t) for t in times[:-1]]


@pytest.mark.parametrize("offset", [9.9e-6, 1.01e-5, -1.01e-5, 1e-12, 3e-12])
def test_refining_grid_tolerance_matches_isclose(offset):
    from glevy.multifactor import _require_refining_grid

    sch = make_schedule()
    times = np.array([0.0, 0.5, 1.0 + offset, 1.5, 2.0])
    on_grid = bool(np.isclose(times, 1.0, atol=1e-12).any())
    if on_grid:
        _require_refining_grid(times, sch)
    else:
        with pytest.raises(g.GridMismatch):
            _require_refining_grid(times, sch)


def test_schedule_dict_round_trip():
    sch = make_schedule()
    back = g.Schedule.from_dict(sch.to_dict())
    assert np.array_equal(back.breakpoints, sch.breakpoints)
    assert np.array_equal(back.r, sch.r)
    assert np.array_equal(back.lam, sch.lam)
    assert np.array_equal(back.sig, sch.sig)


def test_schedule_length_validation():
    with pytest.raises(g.ParamOutOfRange):
        g.Schedule(breakpoints=[0.0, 1.0, 2.0], r=[0.02], lam=[[0.4]], sig=[[0.3]])
    with pytest.raises(g.ParamOutOfRange):
        g.Schedule(breakpoints=[1.0, 2.0], r=[0.02], lam=[[0.4]], sig=[[0.3]])


@pytest.mark.parametrize("field,value", [
    ("r", [math.nan]), ("r", [math.inf]), ("breakpoints", [0.0, math.inf]),
    ("lam", [[math.nan]]), ("sig", [[-math.inf]]),
])
def test_schedule_non_finite_rejected(field, value):
    kw = dict(breakpoints=[0.0, 1.0], r=[0.02], lam=[[0.4]], sig=[[0.3]])
    kw[field] = value
    with pytest.raises(g.ParamOutOfRange):
        g.Schedule(**kw)


@pytest.mark.parametrize("field,value", [
    ("r", math.inf), ("r", math.nan), ("s0", math.inf)])
def test_vector_glm_non_finite_rejected(field, value):
    kw = dict(components=(g.Component(g.Gamma(m=1.0), 0.4, 0.3),), r=0.02, s0=1.0)
    kw[field] = value
    with pytest.raises(g.ParamOutOfRange):
        g.VectorGlm(**kw)


def test_schedule_domain_validation():
    sch = g.Schedule(breakpoints=[0.0, 1.0], r=[0.02], lam=[[0.5]], sig=[[1.2]])
    model = g.Gamma(m=1.0)
    with pytest.raises(g.DomainViolation):
        sch.validate_against([model])


def test_integrated_premium():
    model = g.Gamma(m=1.0)
    vglm = g.VectorGlm(components=(g.Component(model, 0.4, 0.3),), r=0.02)
    sch = make_schedule()
    r1 = g.risk_premium(model, 0.4, 0.3)
    r2 = g.risk_premium(model, 0.6, 0.5)
    assert g.integrated_premium(vglm, sch, 0.0, 2.0) == pytest.approx(
        r1 + r2, rel=1e-13
    )
    assert g.integrated_premium(vglm, sch, 0.5, 1.5) == pytest.approx(
        0.5 * r1 + 0.5 * r2, rel=1e-13
    )


def test_deflated_price_is_martingale_mc():
    # E[pi_t S_t] = s0 under a schedule, within MC error.
    model = g.Gamma(m=1.0)
    vglm = g.VectorGlm(components=(g.Component(model, 0.4, 0.3),), r=0.02, s0=2.0)
    sch = make_schedule()
    t, n = 2.0, 20_000
    _, values = g.simulate_paths(model, t, 8, n, g.Rng(55))
    grid = np.linspace(0.0, t, 9)
    prods = np.empty(n)
    for i in range(n):
        path = g.Path(times=grid, values=values[i])
        s = g.schedule_asset_path(vglm, sch, [path]).values[-1]
        pi = g.schedule_kernel_path(vglm, sch, [path]).values[-1]
        prods[i] = pi * s
    se = prods.std(ddof=1) / math.sqrt(n)
    assert abs(prods.mean() - 2.0) < 4.0 * se


def test_submartingale_check():
    model = g.Gamma(m=1.0)
    vglm = g.VectorGlm(components=(g.Component(model, 0.4, 0.3),), r=0.02)
    sch = make_schedule()
    out = g.submartingale_check(vglm, sch, 0.5, 2.0, n=20_000, rng=g.Rng(66))
    assert out["submartingale_ok"]
    pred = out["predicted_ratio"]
    assert pred == pytest.approx(
        math.exp(g.integrated_premium(vglm, sch, 0.5, 2.0)), rel=1e-12
    )
    rel_se = math.sqrt(
        (out["stderr_s"] / out["mean_s"]) ** 2 + (out["stderr_t"] / out["mean_t"]) ** 2
    )
    assert abs(out["observed_ratio"] - pred) < 5.0 * pred * rel_se
