"""Tests for vector models, coefficient schedules, and the money market."""

import math
import warnings

import numpy as np
import pytest

import glevy as g
from glevy import multifactor


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


def _integral_by_interval(schedule, values, t):
    """Reference: the integral over [0, t] summed interval by interval."""
    bp, total = schedule.breakpoints, 0.0
    for k in range(schedule.n_intervals):
        left = bp[k]
        right = bp[k + 1] if k < schedule.n_intervals - 1 else math.inf
        if t <= left:
            break
        total += values[k] * (min(t, right) - left)
    return total


@pytest.mark.parametrize("seed", range(6))
def test_integral_matches_interval_by_interval_sum(seed):
    from glevy.multifactor import _integral

    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 7))
    bp = np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 2.0, k))))
    sch = g.Schedule(breakpoints=bp, r=rng.normal(0.0, 0.1, k),
                     lam=np.zeros((k, 1)), sig=np.zeros((k, 1)))
    values = rng.normal(0.0, 1.0, k)
    # Random times, the breakpoints themselves and times past the last one.
    times = np.sort(np.concatenate((rng.uniform(0.0, bp[-1] + 3.0, 20), bp, [0.0])))
    expect = [_integral_by_interval(sch, values, t) for t in times]
    assert _integral(sch, values, times) == pytest.approx(expect, rel=1e-14)
    for t, e in zip(times, expect):
        assert _integral(sch, values, float(t)) == pytest.approx(e, rel=1e-14)
    assert g.money_market(sch, float(times[7])) == pytest.approx(
        math.exp(_integral_by_interval(sch, sch.r, times[7])), rel=1e-14)


def test_single_interval_schedule_matches_constant_model():
    model = g.Gamma(m=1.0)
    lam, sig, r, s0 = 0.5, 0.4, 0.03, 2.0
    vglm = g.VectorGlm(components=(g.Component(model, lam, sig),), r=r, s0=s0)
    sch = g.Schedule(breakpoints=[0.0, 2.0], r=[r], lam=[[lam]], sig=[[sig]])
    times, values = g.simulate_paths(model, horizon=2.0, steps=8, n=1, rng=g.Rng(3))
    driver = g.Path(times, values[0])
    spath = g.schedule_asset_path(vglm, sch, [driver])
    kpath = g.schedule_kernel_path(vglm, sch, [driver])
    assert type(spath) is type(kpath) is g.PricePath
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
    t1, v1 = g.simulate_paths(g.Gamma(m=1.0), 1.0, 4, 1, g.Rng(1))
    t2, v2 = g.simulate_paths(g.Gamma(m=1.0), 1.0, 4, 1, g.Rng(2))
    d1, d2 = g.Path(t1, v1[0]), g.Path(t2, v2[0])
    spath = g.schedule_asset_path(vglm, sch, [d1, d2])
    kpath = g.schedule_kernel_path(vglm, sch, [d1, d2])
    assert spath.values[0] == pytest.approx(vglm.s0)
    assert kpath.values[0] == pytest.approx(1.0)


def test_grid_mismatch_raises():
    model = g.Gamma(m=1.0)
    vglm = g.VectorGlm(components=(g.Component(model, 0.4, 0.3),), r=0.02)
    sch = make_schedule()
    # 3 steps over [0, 2] puts no grid point at the t = 1 breakpoint.
    times, values = g.simulate_paths(model, horizon=2.0, steps=3, n=1, rng=g.Rng(4))
    driver = g.Path(times, values[0])
    with pytest.raises(g.GridMismatch):
        g.schedule_asset_path(vglm, sch, [driver])
    # Also right after the schedule has planned paths on a good grid.
    times, values = g.simulate_paths(model, horizon=2.0, steps=8, n=1, rng=g.Rng(4))
    good = g.Path(times, values[0])
    g.schedule_asset_path(vglm, sch, [good])
    g.schedule_kernel_path(vglm, sch, [good])
    for fn in (g.schedule_asset_path, g.schedule_kernel_path):
        with pytest.raises(g.GridMismatch):
            fn(vglm, sch, [driver])


def test_schedule_paths_reject_drivers_that_do_not_fit_the_model():
    vglm, _ = two_gamma_fx()
    sch = g.Schedule(breakpoints=[0.0, 1.0], r=[0.02], lam=[[0.4, -0.3]], sig=[[0.5, -0.2]])
    t1, v1 = g.simulate_paths(g.Gamma(m=1.0), 1.0, 4, 1, g.Rng(1))
    t2, v2 = g.simulate_paths(g.Gamma(m=1.0), 1.0, 8, 1, g.Rng(2))
    d1, d2 = g.Path(t1, v1[0]), g.Path(t2, v2[0])
    for fn in (g.schedule_asset_path, g.schedule_kernel_path):
        with pytest.raises(g.ParamOutOfRange, match="need 2 component paths"):
            fn(vglm, sch, [d1])
        with pytest.raises(g.GridMismatch, match="share one grid"):
            fn(vglm, sch, [d1, d2])


@pytest.mark.parametrize("fn", [g.vector_kernel_value, g.vector_asset_value])
def test_vector_values_reject_a_wrong_component_count(fn):
    vglm, _ = two_gamma_fx()
    for x in ([0.1], [[0.1, 0.2, 0.3]]):
        with pytest.raises(g.ParamOutOfRange, match="must have 2 components"):
            fn(vglm, x, 1.0)


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


def test_schedule_step_takes_the_interval_of_its_midpoint():
    # 0.99999 matches the breakpoint 1 within the tolerance, so the step
    # [0.99999, 2) lies in interval 1 and takes its sigma, not interval 0's.
    vglm = g.VectorGlm(components=(g.Component(g.Brownian(), 0.1, 0.2),), r=0.0)
    sch = g.Schedule(breakpoints=[0.0, 1.0, 2.0], r=[0.0, 0.0], lam=[[0.1], [0.1]],
                     sig=[[0.2], [0.9]])
    want = math.exp(0.9 * 0.5 + 0.1 * 0.9 - 0.5 * 0.9**2)  # on the grid [0, 1, 2]
    for grid in ([0.0, 1.0, 2.0], [0.0, 0.99999, 2.0]):
        end = g.schedule_asset_path(vglm, sch, [g.Path(grid, [0.0, 0.0, 0.5])]).values[-1]
        assert end == pytest.approx(want, rel=1e-5), grid


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


def test_schedule_length_validation():
    with pytest.raises(g.ParamOutOfRange):
        g.Schedule(breakpoints=[0.0, 1.0, 2.0], r=[0.02], lam=[[0.4]], sig=[[0.3]])
    with pytest.raises(g.ParamOutOfRange):
        g.Schedule(breakpoints=[1.0, 2.0], r=[0.02], lam=[[0.4]], sig=[[0.3]])
    with pytest.raises(g.ParamOutOfRange, match="lam and sig must have equal shapes"):
        g.Schedule(breakpoints=[0.0, 1.0], r=[0.02], lam=[[0.4]], sig=[[0.3, 0.2]])
    # More than 2 dimensions once built, and integrated_premium then named a cell.
    with pytest.raises(g.ParamOutOfRange, match="1-d or 2-d") as exc:
        g.Schedule(breakpoints=[0.0, 1.0], r=[0.02], lam=[[[0.4]]], sig=[[[0.3]]])
    assert exc.value.name == "schedule"
    # A 1-d lam and sig are one interval's row.
    sch = g.Schedule(breakpoints=[0.0, 1.0], r=[0.02], lam=[0.4, 0.1], sig=[0.3, 0.2])
    assert sch.lam.shape == sch.sig.shape == (1, 2)
    # No interval: [] once raised an untyped IndexError and [0.0] built.
    for bp in ([], [0.0]):
        with pytest.raises(g.ParamOutOfRange, match="must increase from 0"):
            g.Schedule(breakpoints=bp, r=[], lam=np.zeros((0, 1)), sig=np.zeros((0, 1)))


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
    ("r", ["0.02"]), ("r", [0.02 + 1j]), ("breakpoints", np.array([0.0, 1.0 + 0j])),
    ("breakpoints", [0.0, [1.0, 2.0]]), ("lam", [[0.4], [0.1, 0.2]]), ("sig", [["0.3"]]),
    ("lam", [[None]]), ("r", 0.02), ("breakpoints", [[0.0, 1.0]]),
])
def test_schedule_accepts_only_real_arrays(field, value):
    # Once a text r was accepted, and a complex or ragged one raised untyped.
    kw = dict(breakpoints=[0.0, 1.0], r=[0.02], lam=[[0.4]], sig=[[0.3]])
    kw[field] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(g.ParamOutOfRange) as exc:
            g.Schedule(**kw)
    assert exc.value.name == "schedule"


@pytest.mark.parametrize("components", [
    (g.Brownian(),), 5, None, "ab", [g.Component(g.Brownian(), 0.1, 0.2), 0.3], (),
])
def test_vector_glm_accepts_only_components(components):
    # (Brownian(),) once built and failed later with an AttributeError, and 5
    # raised an untyped TypeError.
    with pytest.raises(g.ParamOutOfRange) as exc:
        g.VectorGlm(components=components, r=0.02)
    assert exc.value.name == "components"


_NON_NUMBERS = [pytest.param("x", id="str"), pytest.param("0.5", id="numeric-str"),
                pytest.param([1.0], id="list"), pytest.param(None, id="None"),
                pytest.param(10**400, id="huge-int")]


@pytest.mark.parametrize("field,value", [
    ("r", math.inf), ("r", math.nan), ("s0", math.inf),
    *(pytest.param(field, *p.values, id=f"{field}-{p.id}")
      for field in ("r", "s0") for p in _NON_NUMBERS)])
def test_vector_glm_non_finite_rejected(field, value):
    kw = dict(components=(g.Component(g.Gamma(m=1.0), 0.4, 0.3),), r=0.02, s0=1.0)
    kw[field] = value
    with pytest.raises(g.ParamOutOfRange) as exc:
        g.VectorGlm(**kw)
    assert exc.value.name == field


@pytest.mark.parametrize("value", [math.nan, math.inf, *_NON_NUMBERS])
@pytest.mark.parametrize("field", ["lam", "sig"])
def test_component_rejects_non_finite(field, value):
    kw = dict(model=g.Gamma(m=1.0), lam=0.4, sig=0.3)
    kw[field] = value
    with pytest.raises(g.ParamOutOfRange) as exc:
        g.Component(**kw)
    assert exc.value.name == field


def test_schedule_domain_validation():
    sch = g.Schedule(breakpoints=[0.0, 1.0], r=[0.02], lam=[[0.5]], sig=[[1.2]])
    model = g.Gamma(m=1.0)
    vglm = g.VectorGlm(components=(g.Component(model, 0.4, 0.3),), r=0.02)
    path = g.Path(times=[0.0, 1.0], values=[0.0, 0.1])
    with pytest.raises(g.DomainViolation):
        g.schedule_asset_path(vglm, sch, [path])
    with pytest.raises(g.DomainViolation):
        g.integrated_premium(vglm, sch, 0.0, 1.0)


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


@pytest.mark.parametrize("s,t,n", [
    (0.5, 2.0, 1),          # one sample has no standard error
    (0.5, math.inf, 100),   # infinite horizon
    (math.nan, 2.0, 100),
    ("0", 2.0, 100),         # a string, once an untyped TypeError
    (1.0, 1.0, 100),         # s = t
    (2.0, 1.0, 100),         # s > t
])
def test_submartingale_check_rejects_bad_input(s, t, n):
    vglm = g.VectorGlm(components=(g.Component(g.Gamma(m=1.0), 0.4, 0.3),), r=0.02)
    with pytest.raises(g.ParamOutOfRange):
        g.submartingale_check(vglm, make_schedule(), s, t, n=n, rng=g.Rng(1))


def test_submartingale_check_overflowing_predicted_ratio_raises():
    # The integral of R over [0.5, 1] is 3.3e7: e^{it} once raised an untyped
    # OverflowError from math.exp. Every S/B draw underflows to 0 here.
    vglm = g.VectorGlm(components=(g.Component(g.CompoundPoissonNormal(1.0, 3.0), 0.3, 2.0),),
                       r=0.0)
    schedule = g.Schedule(breakpoints=[0.0, 1.0], r=[0.0], lam=[[0.3]], sig=[[2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(g.ParamOutOfRange, match="integral of R=.* overflows a float"):
            g.submartingale_check(vglm, schedule, 0.5, 1.0, n=100, rng=g.Rng(1))


@pytest.mark.parametrize("kw", [
    dict(n=2.5),                   # not an integer
], ids=["n=2.5"])
def test_submartingale_check_rejects_bad_counts(kw):
    vglm = g.VectorGlm(components=(g.Component(g.Gamma(m=1.0), 0.4, 0.3),), r=0.02)
    kw = {"n": 100, **kw}
    with pytest.raises(g.ParamOutOfRange):
        g.submartingale_check(vglm, make_schedule(), 0.5, 2.0, rng=g.Rng(1), **kw)


@pytest.mark.parametrize("t", [math.nan, math.inf, -0.5, "1", np.array([0.5, -1.0]),
                               np.array([math.nan]), np.array([[1.0], [math.inf]]),
                               np.array(["1"]), np.array([1.0 + 0j]), [True]])
def test_money_market_rejects_bad_time(t):
    # An array once gave B_t for t = -1 and NaN for a NaN time without an error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(g.ParamOutOfRange) as exc:
            g.money_market(make_schedule(), t)
    assert exc.value.name == "time"


def test_money_market_takes_an_array_of_times():
    # An array once raised an untyped TypeError from float().
    sch = make_schedule()
    times = np.array([[0.0, 0.5, 1.0], [2.0, 3.0, 1e-9]])
    values = g.money_market(sch, times)
    assert isinstance(values, np.ndarray) and values.shape == times.shape
    assert values.tobytes() == np.exp(multifactor._integral(sch, sch.r, times)).tobytes()
    for t, b in zip(times.ravel(), values.ravel()):
        assert type(g.money_market(sch, float(t))) is float
        assert g.money_market(sch, float(t)) == pytest.approx(b, rel=1e-15)
    assert g.money_market(sch, [0, 1]).tolist() == [1.0, g.money_market(sch, 1.0)]
    with pytest.raises(g.ParamOutOfRange, match="B_t overflows a float"):
        g.money_market(g.Schedule(breakpoints=[0.0, 1.0], r=[5.0], lam=[[0.4]], sig=[[0.3]]),
                       np.array([140.0, 200.0]))


@pytest.mark.parametrize("s,t", [(math.nan, 1.0), (0.0, math.nan), (-0.5, 1.0),
                                 (0.0, math.inf), (2.0, 1.0)])
def test_integrated_premium_rejects_bad_time(s, t):
    vglm = g.VectorGlm(components=(g.Component(g.Gamma(m=1.0), 0.4, 0.3),), r=0.02)
    with pytest.raises(g.ParamOutOfRange):
        g.integrated_premium(vglm, make_schedule(), s, t)


def test_schedule_equality_compares_arrays_by_value():
    a, b = make_schedule(), make_schedule()
    assert (a == b) is True
    assert (a != b) is False
    assert a != g.Schedule(breakpoints=[0.0, 1.0, 2.0], r=[0.02, 0.05],
                           lam=[[0.4], [0.6]], sig=[[0.3], [0.5]])
    assert a != g.Schedule(breakpoints=[0.0, 2.0], r=[0.02], lam=[[0.4]], sig=[[0.3]])
    assert a != {"breakpoints": a.breakpoints, "r": a.r, "lam": a.lam, "sig": a.sig}
    # The plan a path leaves on the schedule takes no part in == or repr.
    vglm = g.VectorGlm(components=(g.Component(g.Gamma(m=1.0), 0.4, 0.3),), r=0.02)
    times, values = g.simulate_paths(g.Gamma(m=1.0), 2.0, 8, 1, g.Rng(4))
    g.schedule_asset_path(vglm, a, [g.Path(times, values[0])])
    assert a == b
    assert repr(a) == repr(b)


def test_schedule_copies_its_arrays_read_only():
    bp, r = np.array([0.0, 1.0, 2.0]), np.array([0.02, 0.04])
    lam, sig = np.array([[0.4], [0.6]]), np.array([[0.3], [0.5]])
    sch = g.Schedule(breakpoints=bp, r=r, lam=lam, sig=sig)
    for a in (bp, r, lam, sig):
        a[-1] += 1.0
    assert sch == make_schedule()
    for a in (sch.breakpoints, sch.r, sch.lam, sch.sig):
        with pytest.raises(ValueError):
            a[-1] = 5.0
    assert sch == make_schedule()


def test_schedule_paths_follow_the_model_across_plan_switches():
    # One schedule serves A, then B, then A again: each call gives the paths a
    # fresh schedule gives for its own model.
    sch = make_schedule()
    a = g.VectorGlm(components=(g.Component(g.Gamma(m=1.0), 0.4, 0.3),), r=0.02)
    b = g.VectorGlm(components=(g.Component(g.Gamma(m=2.0), 0.4, 0.3),), r=0.02, s0=2.0)
    times, values = g.simulate_paths(g.Gamma(m=1.0), horizon=2.0, steps=8, n=1, rng=g.Rng(3))
    driver = g.Path(times, values[0])
    for fn in (g.schedule_asset_path, g.schedule_kernel_path):
        assert not np.array_equal(fn(a, make_schedule(), [driver]).values,
                                  fn(b, make_schedule(), [driver]).values)
    for vglm in (a, b, a):
        for fn in (g.schedule_asset_path, g.schedule_kernel_path):
            want = fn(vglm, make_schedule(), [driver]).values
            assert np.array_equal(fn(vglm, sch, [driver]).values, want)


def test_domain_violation_raises_after_another_model_passed():
    # sig = 1.2 lies in the Brownian domain but outside the gamma one (alpha < 1).
    sch = g.Schedule(breakpoints=[0.0, 1.0], r=[0.02], lam=[[0.5]], sig=[[1.2]])
    brownian = g.VectorGlm(components=(g.Component(g.Brownian(), 0.5, 1.2),), r=0.02)
    gamma = g.VectorGlm(components=(g.Component(g.Gamma(m=1.0), 0.4, 0.3),), r=0.02)
    times, values = g.simulate_paths(g.Brownian(), horizon=1.0, steps=4, n=1, rng=g.Rng(5))
    driver = g.Path(times, values[0])
    g.schedule_asset_path(brownian, sch, [driver])
    for fn in (g.schedule_asset_path, g.schedule_kernel_path):
        with pytest.raises(g.DomainViolation):
            fn(gamma, sch, [driver])
    with pytest.raises(g.DomainViolation):
        g.submartingale_check(gamma, sch, 0.5, 1.0, n=100, rng=g.Rng(1))


def test_repeated_schedule_paths_evaluate_psi_once(monkeypatch):
    model = g.Gamma(m=1.0)
    vglm = g.VectorGlm(components=(g.Component(model, 0.4, 0.3),), r=0.02)
    sch = make_schedule()
    times, values = g.simulate_paths(model, horizon=2.0, steps=8, n=1, rng=g.Rng(6))
    driver = g.Path(times, values[0])
    calls = []
    psi = g.Gamma.psi

    def counting_psi(self, alpha):
        calls.append(alpha)
        return psi(self, alpha)

    monkeypatch.setattr(g.Gamma, "psi", counting_psi)
    g.schedule_asset_path(vglm, sch, [driver])
    first = len(calls)
    assert first > 0
    for _ in range(99):
        g.schedule_asset_path(vglm, sch, [driver])
    for _ in range(100):
        g.schedule_kernel_path(vglm, sch, [driver])
    assert len(calls) == first


class _RecordingRng(g.Rng):
    """An Rng that keeps every substream it hands out."""

    def spawn(self, k):
        child = super().spawn(k)
        self.__dict__.setdefault("children", []).append(child)
        return child


def _matrix_submartingale_check(vglm, sch, s, t, n, rng):
    """Reference: the check with every increment, driver value and log value
    held as a (grid x n) matrix, drawn in the same order from the same
    substreams, on the grid of the breakpoints below t, s and t."""
    grid = np.unique(np.concatenate((sch.breakpoints[sch.breakpoints < t], [s, t])))
    j_s = int(np.argmin(np.abs(grid - s)))
    dt = np.diff(grid)
    idx = np.array([sch.interval_of(x) for x in grid[:-1]])
    log_vals = np.zeros((n, len(grid)))
    for i, c in enumerate(vglm.components):
        sub = rng.spawn(i)
        inc = np.array([g.sample_increments(c.model, float(d), n, sub) for d in dt])
        values = np.zeros((n, len(grid)))
        values[:, 1:] = np.cumsum(inc.T, axis=1)
        drift = np.array([g.risk_premium(c.model, sch.lam[k, i], sch.sig[k, i])
                          - c.model.psi(sch.sig[k, i]) for k in idx])
        log_vals[:, 1:] += np.cumsum(sch.sig[idx, i] * np.diff(values, axis=1) + drift * dt,
                                     axis=1)
    log_vals += math.log(vglm.s0)
    log_vals[:, 1:] += np.cumsum(sch.r[idx] * dt)
    ratio_s = np.exp(log_vals[:, j_s]) / g.money_market(sch, s)
    ratio_t = np.exp(log_vals[:, -1]) / g.money_market(sch, t)
    return {"mean_s": ratio_s.mean(), "stderr_s": ratio_s.std(ddof=1) / math.sqrt(n),
            "mean_t": ratio_t.mean(), "stderr_t": ratio_t.std(ddof=1) / math.sqrt(n),
            "observed_ratio": ratio_t.mean() / ratio_s.mean()}


def _benchmark_schedule(name):
    """The Brownian, Poisson and Gamma schedules of acceptance criterion 11 on
    [0.5, 3], and a two-component jump diffusion on [0.5, 2]."""
    if name == "JumpDiffusion":
        vglm = g.jump_diffusion(m=1.0, s=0.3, lam=0.3, sig=0.2, beta=0.5, theta=0.4, r=0.02)
        sch = g.Schedule(breakpoints=[0.0, 1.0, 2.0], r=[0.02, 0.03],
                         lam=[[0.3, 0.5], [0.4, 0.6]], sig=[[0.2, 0.4], [0.3, 0.3]])
        return vglm, sch, 2.0
    model = {"Brownian": g.Brownian(), "Poisson": g.Poisson(m=1.0), "Gamma": g.Gamma(m=1.0)}[name]
    vglm = g.VectorGlm(components=(g.Component(model, 0.4, 0.3),), r=0.02, s0=2.0)
    sch = g.Schedule(breakpoints=[0.0, 1.0, 2.0, 3.0], r=[0.02, 0.04, 0.03],
                     lam=[[0.4], [0.6], [0.3]], sig=[[0.3], [0.5], [0.2]])
    return vglm, sch, 3.0


@pytest.mark.parametrize("name", ["Brownian", "Poisson", "Gamma", "JumpDiffusion"])
def test_submartingale_check_matches_matrix_reference(name):
    vglm, sch, t = _benchmark_schedule(name)
    rng, ref_rng = _RecordingRng(71), _RecordingRng(71)
    out = g.submartingale_check(vglm, sch, 0.5, t, n=2000, rng=rng)
    ref = _matrix_submartingale_check(vglm, sch, 0.5, t, 2000, ref_rng)
    for key, want in ref.items():
        assert out[key] == pytest.approx(want, rel=1e-13, abs=0.0), key
    # Same substreams, each left at the same position (the next draws agree),
    # and the stream itself untouched.
    assert [c.spawn_key for c in rng.children] == [c.spawn_key for c in ref_rng.children]
    assert ([c.generator.random(4).tolist() for c in rng.children]
            == [c.generator.random(4).tolist() for c in ref_rng.children])
    assert rng.generator.random(4).tolist() == g.Rng(71).generator.random(4).tolist()


def _counting_sample_increments(monkeypatch):
    """(model, dt) of every increment draw submartingale_check makes."""
    calls = []

    def counting(model, dt, size, rng):
        calls.append((model, dt))
        return g.sample_increments(model, dt, size, rng)

    monkeypatch.setattr(multifactor, "sample_increments", counting)
    return calls


@pytest.mark.parametrize("name", ["Brownian", "Poisson", "Gamma", "JumpDiffusion"])
def test_submartingale_check_draws_once_per_constant_piece(name, monkeypatch):
    # The pieces of [0, t] cut at the breakpoints and at s = 0.5: four on
    # [0, 3] cut at 1 and 2, three on [0, 2] cut at 1.
    vglm, sch, t = _benchmark_schedule(name)
    calls = _counting_sample_increments(monkeypatch)
    g.submartingale_check(vglm, sch, 0.5, t, n=10, rng=g.Rng(71))
    dts = [0.5, 0.5, 1.0, 1.0][:int(t) + 1]
    assert calls == [(c.model, dt) for c in vglm.components for dt in dts]


def test_submartingale_check_grid_ends_at_t(monkeypatch):
    # A breakpoint 5e-13 past t once became the last grid point.
    vglm = g.VectorGlm(components=(g.Component(g.Gamma(m=1.0), 0.4, 0.3),), r=0.02)
    sch = g.Schedule(breakpoints=[0.0, 1.0 + 5e-13, 2.0], r=[0.02, 0.04],
                     lam=[[0.4], [0.6]], sig=[[0.3], [0.5]])
    calls = _counting_sample_increments(monkeypatch)
    out = g.submartingale_check(vglm, sch, 0.5, 1.0, n=10, rng=g.Rng(71))
    assert [dt for _, dt in calls] == [0.5, 0.5]
    assert sch._memo[1].tolist() == [0.0, 0.5, 1.0]
    assert out["predicted_ratio"] == math.exp(g.integrated_premium(vglm, sch, 0.5, 1.0))


def test_submartingale_check_from_time_zero():
    vglm, sch, t = _benchmark_schedule("JumpDiffusion")
    out = g.submartingale_check(vglm, sch, 0.0, t, n=100, rng=g.Rng(71))
    assert out["stderr_s"] == 0.0
    assert out["mean_s"] == pytest.approx(vglm.s0, rel=1e-15)
    assert math.isfinite(out["mean_t"]) and math.isfinite(out["stderr_t"])


def test_submartingale_check_with_huge_finite_ratios():
    # S/B is about e^{500} at t = 0.5: its squared deviations once overflowed
    # with a RuntimeWarning and an infinite stderr_t.
    vglm = g.VectorGlm(components=(g.Component(g.Brownian(), 1000.0, 1.0),), r=0.0)
    sch = g.Schedule(breakpoints=[0.0, 1.0], r=[0.0], lam=[[1000.0]], sig=[[1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = g.submartingale_check(vglm, sch, 0.25, 0.5, n=6, rng=g.Rng(3))
    assert out["mean_t"] > 1e200
    assert all(math.isfinite(out[k]) for k in ("mean_s", "stderr_s", "mean_t", "stderr_t"))
    assert out["submartingale_ok"]


def _two_column_schedule():
    return g.Schedule(breakpoints=[0.0, 1.0, 2.0], r=[0.02, 0.04],
                      lam=[[0.4, 0.1], [0.6, 0.1]], sig=[[0.3, 0.2], [0.5, 0.2]])


@pytest.mark.parametrize("case", ["fewer-columns", "more-columns"])
def test_schedule_column_count_must_match_components(case):
    # A two-component model on a one-column schedule once raised an untyped
    # IndexError; a one-component model on a two-column schedule once
    # ignored the extra column.
    if case == "fewer-columns":
        vglm = g.jump_diffusion(m=1.0, s=0.5, lam=0.2, sig=0.3, beta=0.1, theta=0.2)
        sch = make_schedule()
    else:
        vglm = g.VectorGlm(components=(g.Component(g.Gamma(m=1.0), 0.4, 0.3),), r=0.02)
        sch = _two_column_schedule()
    paths = [g.Path(times=[0.0, 1.0, 2.0], values=[0.0, 0.1, 0.2])] * len(vglm.components)
    with pytest.raises(g.ParamOutOfRange):
        g.integrated_premium(vglm, sch, 0.0, 2.0)
    with pytest.raises(g.ParamOutOfRange):
        g.schedule_asset_path(vglm, sch, paths)
    with pytest.raises(g.ParamOutOfRange):
        g.submartingale_check(vglm, sch, 0.5, 2.0, n=100, rng=g.Rng(1))


def test_money_market_overflow_is_typed():
    sch = g.Schedule(breakpoints=[0.0, 1.0], r=[5.0], lam=[[0.4]], sig=[[0.3]])
    assert g.money_market(sch, 140.0) == pytest.approx(math.exp(700.0), rel=1e-12)
    with pytest.raises(g.ParamOutOfRange):
        g.money_market(sch, 200.0)
    # S/B is formed without B, so the check stays finite where B overflows.
    vglm = g.VectorGlm(components=(g.Component(g.Gamma(m=1.0), 0.4, 0.3),), r=0.02)
    out = g.submartingale_check(vglm, sch, 0.5, 200.0, n=2, rng=g.Rng(1))
    assert math.isfinite(out["mean_s"]) and math.isfinite(out["mean_t"])
