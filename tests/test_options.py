"""Tests for option valuation: closed forms, quadrature/series oracles, MC."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import glevy as g


def brownian_spec(lam=0.2, sig=0.25, r=0.02, s0=1.0):
    return g.GlmSpec(model=g.Brownian(), r=r, lam=lam, sig=sig, s0=s0)


def test_bs_zero_strike():
    assert g.bs_call_price(1.3, 0.05, 0.2, 0.0, 2.0) == pytest.approx(1.3)


def test_bs_zero_vol_intrinsic():
    # sigma -> 0: price -> max(s0 - K e^{-rT}, 0).
    p = g.bs_call_price(1.0, 0.05, 1e-12, 0.9, 1.0)
    assert p == pytest.approx(1.0 - 0.9 * math.exp(-0.05), rel=1e-9)
    assert g.bs_call_price(1.0, 0.0, 1e-12, 2.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def _bs_norm_cdf(s0, r, sig, strike, expiry):
    """The Black-Scholes price as written with scipy.stats.norm.cdf."""
    from scipy.stats import norm

    if strike == 0.0:
        return s0
    if sig <= 0.0:
        return max(s0 - strike * math.exp(-r * expiry), 0.0)
    st = sig * math.sqrt(expiry)
    d1 = (math.log(s0 / strike) + (r + 0.5 * sig * sig) * expiry) / st
    d2 = d1 - st
    return s0 * norm.cdf(d1) - strike * math.exp(-r * expiry) * norm.cdf(d2)


def test_bs_is_the_norm_cdf_formula_to_one_ulp():
    grid = itertools.product((0.5, 1.0, 2.0), (-0.01, 0.0, 0.05), (1e-12, 0.05, 0.25, 1.5),
                             (0.0, 0.5, 1.0, 2.0, 10.0), (0.01, 1.0, 10.0))
    for args in grid:
        got, want = g.bs_call_price(*args), _bs_norm_cdf(*args)
        assert abs(got - want) <= math.ulp(args[0]) and type(got) is float, args


def _ulps(got, want):
    """|got - want| in units of the last place of want, rounded to a float."""
    return abs(got - float(want)) / math.ulp(float(want))


def test_ndtr_is_as_accurate_as_scipy_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    from scipy.special import ndtr

    from glevy.options import _ndtr

    xs = np.concatenate([np.linspace(-37.0, 8.5, 1821),
                         np.random.default_rng(11).uniform(-37.0, 8.5, 500)]).tolist()
    with mpmath.workdps(40):
        want = [mpmath.ncdf(x) for x in xs]
    ours = max(_ulps(_ndtr(x), w) for x, w in zip(xs, want))
    theirs = max(_ulps(float(ndtr(x)), w) for x, w in zip(xs, want))
    # scipy's error grows as x^2 in the lower tail from rounding x/sqrt(2);
    # _ndtr carries that rounding error to first order.
    assert ours <= 4.0 and ours <= theirs, (ours, theirs)


def test_log_ndtr_is_within_4_ulps_of_mpmath():
    mpmath = pytest.importorskip("mpmath")
    from glevy.options import _log_ndtr

    xs = np.concatenate([np.linspace(-1e5, 40.0, 1001), np.linspace(-40.0, 40.0, 1601),
                         -np.logspace(-3.0, 5.0, 401), np.logspace(-3.0, 1.6, 401)]).tolist()
    with mpmath.workdps(40):
        # Above 0, Phi(x) rounds to 1 at 40 digits: log Phi(x) = log1p(-Phi(-x)).
        want = [mpmath.log1p(-mpmath.ncdf(-x)) if x > 0.0 else mpmath.log(mpmath.ncdf(x))
                for x in xs]
    for x, w in zip(xs, want):
        assert _ulps(_log_ndtr(x), w) <= 4.0, x


def test_bs_underflowing_vol_is_the_deterministic_limit():
    # sig * sqrt(T) rounds to 0 for the smallest subnormal sig.
    assert g.bs_call_price(1.0, 0.05, 5e-324, 0.9, 0.01) == 1.0 - 0.9 * math.exp(-0.05 * 0.01)


@pytest.mark.parametrize("s0, r, sig, strike, expiry", [
    (1.0, 0.0, 1e200, 1.0, 1.0),     # sig * sig overflows
    (2.0, 0.05, 1e155, 1.5, 1.0),    # 0.5 * sig * sig overflows
    (1.0, 0.0, 1e150, 1.0, 1e10),    # (r + sig^2/2) T overflows
    (1.0, 0.0, 1e200, 1.0, 1e200),   # sig^2 T overflows, sig sqrt(T) = 1e300 does not
    (1.0, 0.0, 1e300, 1.0, 1e20),    # sig sqrt(T) overflows too
    (1.0, 1e308, 1.7e308, 1.0, 2.0), # r T and sig sqrt(T) both overflow
])
def test_bs_huge_vol_is_the_spot_limit(s0, r, sig, strike, expiry):
    # d1 -> inf and d2 -> -inf as sig grows, so the price tends to s0.
    assert g.bs_call_price(s0, r, sig, strike, expiry) == s0


@pytest.mark.parametrize("s0, r, sig, strike, expiry, want", [
    # A subnormal sig leaves sig sqrt(T) nonzero, so (x + r T)/st overflows
    # with the sign of x + r T: d1 = d2 = +-inf, the deterministic limit.
    (1.0, 0.05, 1e-320, 1.0, 1.0, 1.0 - math.exp(-0.05)),
    (1.01, -0.05, 1e-320, 1.0, 1.0, 0.0),
    # r T overflows with a normal sig: e^{-rT} is 0 and d1 = d2 = inf.
    (1.0, 1e308, 0.2, 1.0, 2.0, 1.0),
])
def test_bs_overflowing_drift_keeps_its_sign(s0, r, sig, strike, expiry, want):
    assert g.bs_call_price(s0, r, sig, strike, expiry) == want


def _bs_mpmath(s0, r, sig, strike, expiry):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        s0, r, sig, strike, expiry = (mpmath.mpf(v) for v in (s0, r, sig, strike, expiry))
        st = sig * mpmath.sqrt(expiry)
        d1 = (mpmath.log(s0 / strike) + (r + sig * sig / 2) * expiry) / st
        return float(s0 * mpmath.ncdf(d1)
                     - strike * mpmath.exp(-r * expiry) * mpmath.ncdf(d1 - st))


@pytest.mark.parametrize("s0, strike", [(1e-200, 1e200), (1e200, 1e-200), (1e-300, 1e10)])
@pytest.mark.parametrize("sig", [0.2, 60.0, 40.0])
def test_bs_moneyness_beyond_the_float_range_matches_mpmath(s0, strike, sig):
    # s0/K underflows to 0 or overflows to inf; log s0 - log K does not. At
    # sig = 40 and s0 < K, Phi(d2) underflows or is subnormal while
    # K e^{-rT} Phi(d2) is a visible part of the price.
    got = g.bs_call_price(s0, 0.01, sig, strike, 1.0)
    assert got == pytest.approx(_bs_mpmath(s0, 0.01, sig, strike, 1.0), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("sig", [0.2, 0.0])
def test_bs_overflowing_discount_raises(sig):
    with pytest.raises(g.ParamOutOfRange) as exc:
        g.bs_call_price(1.0, -1000.0, sig, 1.0, 1.0)
    assert exc.value.name == "-r T"


@pytest.mark.parametrize("s0, r, sig, strike, expiry, name", [
    (1.0, 0.05, 0.2, 1.0, 0.0, "expiry"),
    (1.0, 0.05, 0.2, 1.0, -1.0, "expiry"),
    (1.0, 0.05, 0.2, 1.0, math.inf, "expiry"),
    (1.0, 0.05, 0.2, -1.0, 1.0, "strike"),
    (1.0, 0.05, 0.2, math.nan, 1.0, "strike"),
    (0.0, 0.05, 0.2, 1.0, 1.0, "s0"),
    (-1.0, 0.05, 0.2, 1.0, 1.0, "s0"),
    (math.inf, 0.05, 0.2, 1.0, 1.0, "s0"),
    (math.nan, 0.05, 0.2, 0.0, 1.0, "s0"),
    (1.0, math.nan, 0.2, 1.0, 1.0, "r"),
    (1.0, -math.inf, 0.2, 1.0, 1.0, "r"),
    (1.0, 0.05, math.nan, 1.0, 1.0, "sig"),
    (1.0, 0.05, math.inf, 1.0, 1.0, "sig"),
    (1.0, 0.05, -0.2, 1.0, 1.0, "sig"),
    pytest.param("x", 0.05, 0.2, 1.0, 1.0, "s0", id="str-s0"),
    pytest.param(None, 0.05, 0.2, 1.0, 1.0, "s0", id="None-s0"),
    pytest.param(1.0, None, 0.2, 1.0, 1.0, "r", id="None-r"),
    pytest.param(1.0, 10**400, 0.2, 1.0, 1.0, "r", id="huge-int-r"),
    pytest.param(1.0, 0.05, "x", 1.0, 1.0, "sig", id="str-sig"),
    pytest.param(1.0, 0.05, [0.2], 1.0, 1.0, "sig", id="list-sig"),
    pytest.param(1.0, 0.05, 0.2, "x", 1.0, "strike", id="str-strike"),
    pytest.param(1.0, 0.05, 0.2, 1.0, None, "expiry", id="None-expiry"),
    pytest.param(1.0, 0.05, 0.2, 1.0, 10**400, "expiry", id="huge-int-expiry"),
])
def test_bs_rejects_bad_input(s0, r, sig, strike, expiry, name):
    with pytest.raises(g.ParamOutOfRange) as exc:
        g.bs_call_price(s0, r, sig, strike, expiry)
    assert exc.value.name == name


def test_bs_monotone_in_strike():
    prices = [g.bs_call_price(1.0, 0.03, 0.2, k, 1.0) for k in (0.5, 0.8, 1.0, 1.3, 2.0)]
    assert all(a > b for a, b in zip(prices, prices[1:]))


def test_brownian_exact_matches_bs():
    # Expiries down to 1e-8 leave the law far narrower than the distance from
    # the log-moneyness threshold to its centre; the price must still be found.
    for spec in (brownian_spec(), brownian_spec(lam=2.5, sig=0.1)):
        for t in (1e-8, 1e-4, 1e-3, 1e-2, 0.25, 1.5, 4.0):
            for k in (0.0, 0.3, 0.5, 0.9, 1.0, 1.01, 1.1, 1.8, 3.0):
                opt = g.OptionSpec(strike=k, expiry=t)
                exact = g.exact_call(spec, opt)
                bs = g.bs_call_price(spec.s0, spec.r, spec.sig, k, t)
                assert exact == pytest.approx(bs, abs=1e-10), (spec.lam, k, t)


def _gamma_closed_form(spec, opt):
    """E[pi_T (S_T - K)^+] for the gamma family through the regularized upper
    incomplete gamma function: E[e^{bX_T}; X_T > x] = (1-b)^{-mT} Q(mT, (1-b)x)."""
    from scipy.special import gammaincc

    t, strike, shape = opt.expiry, opt.strike, spec.model.m * opt.expiry
    log_pi_c = -spec.r * t - t * spec.model.psi(-spec.lam)
    log_s_c = (math.log(spec.s0) + (spec.r + spec.premium) * t
               - t * spec.model.psi(spec.sig))
    x = 0.0 if strike == 0.0 else max(0.0, (math.log(strike) - log_s_c) / spec.sig)

    def tail(b):
        return (1.0 - b) ** -shape * gammaincc(shape, (1.0 - b) * x)

    return (math.exp(log_pi_c + log_s_c) * tail(spec.sig - spec.lam)
            - strike * math.exp(log_pi_c) * tail(-spec.lam))


@pytest.mark.parametrize("expiry", [1e-6, 1e-4, 1e-2, 0.1, 1.0, 4.0])
@pytest.mark.parametrize("strike", [0.0, 0.5, 0.9, 1.0, 1.05, 1.3, 3.0])
def test_gamma_exact_matches_incomplete_gamma(strike, expiry):
    spec = g.GlmSpec(model=g.Gamma(m=1.0), r=0.02, lam=0.5, sig=0.4)
    opt = g.OptionSpec(strike=strike, expiry=expiry)
    want = _gamma_closed_form(spec, opt)
    assert g.exact_call(spec, opt) == pytest.approx(want, rel=1e-9, abs=1e-14)


def _mirrored_gamma_closed_form(spec, opt, m, kappa):
    """E[pi_T (S_T - K)^+] for X_T = -kappa G with G ~ Gamma(mT, 1), through the
    regularized lower incomplete gamma function: S_T > K exactly when G < g, and
    tilting G by pi_T S_T and by pi_T gives s0 P(mT, (1 + kappa(sig - lam)) g)
    - K e^{-rT} P(mT, (1 - kappa lam) g)."""
    from scipy.special import gammainc

    t, strike, shape = opt.expiry, opt.strike, m * opt.expiry
    log_s_c = (math.log(spec.s0) + (spec.r + spec.premium) * t
               - t * spec.model.psi(spec.sig))
    gk = (log_s_c - math.log(strike)) / (kappa * spec.sig)
    if gk <= 0.0:
        return 0.0
    return (spec.s0 * gammainc(shape, (1.0 + kappa * (spec.sig - spec.lam)) * gk)
            - strike * math.exp(-spec.r * t) * gammainc(shape, (1.0 - kappa * spec.lam) * gk))


@pytest.mark.parametrize("model,m,kappa", [
    (g.mirror(g.Gamma(m=1.0)), 1.0, 1.0),
    (g.mirror(g.ScaledGamma(m=0.7, kappa=0.5)), 0.7, 0.5),
], ids=["Gamma", "ScaledGamma"])
@pytest.mark.parametrize("expiry", [1e-7, 1e-6, 1e-5, 1e-4, 1e-2, 1.0, 3.0])
@pytest.mark.parametrize("strike", [1e-300, 0.5, 0.9, 0.99, 1.0, 1.02])
def test_mirrored_gamma_exact_matches_incomplete_gamma(model, m, kappa, strike, expiry):
    # The singular edge of the law at its top 0 stays out of the quadrature:
    # the put side below x_k is integrated and the call follows by parity.
    spec = g.GlmSpec(model=model, r=0.02, lam=0.3, sig=0.5)
    opt = g.OptionSpec(strike=strike, expiry=expiry)
    want = _mirrored_gamma_closed_form(spec, opt, m, kappa)
    assert g.exact_call(spec, opt) == pytest.approx(want, rel=1e-9, abs=1e-14)


@pytest.mark.parametrize("lam,sig,expiry,strike", [
    (0.3, 0.5, 100.0, 1e5),   # K e^{-rT} far above s0: forward + put cancels
    (0.0, 0.05, 10.0, 1.5),   # a tiny call next to a put of 0.5
    (0.4, 3.0, 100.0, 0.5),   # pi_T's mass far below that of pi_T S_T
    (0.4, 3.0, 100.0, 1e5),
])
def test_mirrored_gamma_exact_far_from_the_forward(lam, sig, expiry, strike):
    spec = g.GlmSpec(model=g.mirror(g.Gamma(m=1.0)), r=0.02, lam=lam, sig=sig)
    opt = g.OptionSpec(strike=strike, expiry=expiry)
    want = _mirrored_gamma_closed_form(spec, opt, 1.0, 1.0)
    assert g.exact_call(spec, opt) == pytest.approx(want, rel=1e-9, abs=1e-14)


def test_mirrored_gamma_exact_where_the_discounted_strike_overflows():
    # K e^{-rT} = e^{770} leaves no float forward for the put side; the call
    # side prices it (about 3.6e-138 by 50-digit mpmath).
    spec = g.GlmSpec(model=g.mirror(g.Gamma(m=1.0)), r=-5.0, lam=0.99, sig=0.5)
    assert 0.0 <= g.exact_call(spec, g.OptionSpec(strike=1e-100, expiry=200.0)) < 1e-100


# At sigma = 1e10, sigma x and T psi(sigma) cancel in log S_T, and the rounding
# error left (about 1e4) passes exp's range in the integrand.
def test_exact_call_overflowing_integrand_raises_quadrature_failure():
    spec = g.GlmSpec(model=g.Brownian(), r=0.02, lam=0.0, sig=1e10)
    with pytest.raises(g.QuadratureFailure, match="call integrand overflows a float"):
        g.exact_call(spec, g.OptionSpec(1e-300, 1.0))


def test_exact_call_huge_sigma_at_a_huge_price_unit_is_the_scaled_unit_price():
    # sigma x and T psi(sigma) cancel in log u, but s0 is not in it: s0 only
    # scales the unit price, so s0 = K = 1e300 prices 1e300 times s0 = K = 1.
    def price(s0):
        spec = g.GlmSpec(model=g.mirror(g.Gamma(m=1.0)), s0=s0, r=0.02, lam=0.0, sig=1e10)
        return g.exact_call(spec, g.OptionSpec(s0, 1e-6))

    assert price(1e300) == 1e300 * price(1.0)
    assert price(1.0) == pytest.approx(2.3045329553060212e-05, rel=1e-14)


@pytest.mark.parametrize("model", [g.Gamma(m=1.0), g.Poisson(m=1.0), g.Brownian()],
                         ids=lambda model: model.family)
def test_zero_strike_is_the_spot_at_a_huge_negative_rate(model):
    # E[pi_T S_T] = s0 without integrating pi_T, whose e^{-rT} overflows a float.
    spec = g.GlmSpec(model=model, r=-800.0, lam=0.3, sig=0.5, s0=1.25)
    assert g.exact_call(spec, g.OptionSpec(strike=0.0, expiry=1.0)) == 1.25


def test_brownian_price_lambda_independent():
    # The diffusive model's option price carries no risk-aversion dependence.
    opt = g.OptionSpec(strike=1.0, expiry=1.0)
    prices = [g.exact_call(brownian_spec(lam=l), opt) for l in (0.0, 0.3, 1.0, 2.5)]
    spread = max(prices) - min(prices)
    assert spread < 1e-10


def test_poisson_price_depends_on_product_only():
    # Prices coincide whenever m e^{-lam} matches.
    opt = g.OptionSpec(strike=1.1, expiry=1.0)

    def price(m, lam):
        spec = g.GlmSpec(model=g.Poisson(m=m), r=0.02, lam=lam, sig=0.3)
        return g.exact_call(spec, opt)

    p1 = price(2.0, math.log(2.0))  # m e^-lam = 1
    p2 = price(1.0, 0.0)
    p3 = price(4.0, math.log(4.0))
    assert p1 == pytest.approx(p2, rel=1e-10)
    assert p1 == pytest.approx(p3, rel=1e-10)
    # A pair with a different product prices differently.
    p4 = price(2.0, 0.0)
    assert abs(p4 - p1) > 1e-4


def test_gamma_price_depends_on_reduced_pair_only():
    # (m, sig / (1 + lam)) is the identifiable parameter pair.
    opt = g.OptionSpec(strike=1.05, expiry=1.0)

    def price(m, lam, sig):
        spec = g.GlmSpec(model=g.Gamma(m=m), r=0.02, lam=lam, sig=sig)
        return g.exact_call(spec, opt)

    p1 = price(1.0, 0.0, 0.4)
    p2 = price(1.0, 1.0, 0.8)  # 0.8 / 2 = 0.4
    p3 = price(1.0, 3.0, 0.8)  # 0.8 / 4 = 0.2 -> different
    assert p1 == pytest.approx(p2, rel=1e-8)
    assert abs(p3 - p1) > 1e-4


def test_exact_zero_strike_recovers_spot():
    opt = g.OptionSpec(strike=0.0, expiry=1.0)
    assert g.exact_call(brownian_spec(s0=1.7), opt) == pytest.approx(1.7, rel=1e-10)
    spec_p = g.GlmSpec(model=g.Poisson(m=1.0), r=0.02, lam=0.3, sig=0.3, s0=1.7)
    assert g.exact_call(spec_p, opt) == pytest.approx(1.7, rel=1e-10)
    spec_g = g.GlmSpec(model=g.Gamma(m=1.0), r=0.02, lam=0.5, sig=0.4, s0=1.7)
    assert g.exact_call(spec_g, opt) == pytest.approx(1.7, rel=1e-8)


def test_deep_out_of_the_money_is_tiny():
    opt = g.OptionSpec(strike=50.0, expiry=0.5)
    assert g.exact_call(brownian_spec(), opt) < 1e-8
    spec_g = g.GlmSpec(model=g.Gamma(m=1.0), r=0.02, lam=0.5, sig=0.4)
    assert g.exact_call(spec_g, opt) < 1e-6


# Every family with a terminal law: Brownian, Poisson, Gamma, ScaledGamma and
# the mirrors of the last three.
_UNIT_MODELS = [g.Brownian(), g.Gamma(0.5), g.Poisson(1.0), g.ScaledGamma(2.0, 0.3),
                g.mirror(g.Gamma(0.5)), g.mirror(g.Gamma(3.0)), g.mirror(g.ScaledGamma(2.0, 0.3)),
                g.mirror(g.Poisson(1.0))]


@pytest.mark.parametrize("model", _UNIT_MODELS, ids=repr)
def test_exact_call_is_independent_of_the_price_unit(model):
    # The price is s0 times the unit price at k = K e^{-rT}/s0, so the
    # currency unit must not change it. A price below the normal float range
    # keeps a subnormal's absolute precision only: one ulp of 0 is allowed.
    def price(s0, moneyness, expiry):
        spec = g.GlmSpec(model=model, r=0.02, lam=0.2, sig=0.3, s0=s0)
        return g.exact_call(spec, g.OptionSpec(moneyness * s0, expiry))

    grid = [*itertools.product((0.01, 0.1, 1.0, 5.0), (0.8, 1.05, 1.5),
                               (1e-200, 1e-10, 1e10, 1e200)),
            *itertools.product((1e-6,), (0.5, 1.0, 3.0), (1e-300, 1e300))]
    for expiry, moneyness, s0 in grid:
        want = s0 * price(1.0, moneyness, expiry)
        assert price(s0, moneyness, expiry) == pytest.approx(
            want, rel=1e-14, abs=math.ulp(0.0)), (expiry, moneyness, s0)


@pytest.mark.parametrize("expiry", [1e-6, 0.01, 1.0, 20.0])
@pytest.mark.parametrize("model", _UNIT_MODELS, ids=repr)
def test_exact_call_scales_with_a_power_of_two_price_unit_bit_for_bit(model, expiry):
    # 2^j s0 and 2^j K leave k = K e^{-rT}/s0 with its bits, so the price is
    # 2^j times the same unit price, exactly.
    def price(s0, strike):
        spec = g.GlmSpec(model=model, r=0.02, lam=0.2, sig=0.3, s0=s0)
        return g.exact_call(spec, g.OptionSpec(strike, expiry))

    for moneyness in (0.5, 1.0, 1.05, 3.0):
        want = price(1.0, moneyness)
        for j in (1, -1, 100, -100, 900, -900):
            scale = 2.0**j
            assert price(scale, scale * moneyness) == scale * want, (moneyness, j)


@pytest.mark.parametrize("s0, strike, r, expiry", [
    (1e300, 1e-20, -740.0, 1.0), (1e300, 1e-20, -745.0, 1.0),
    (1e-300, 1e20, 740.0, 1.0), (1e300, 1e-15, -37.0, 20.0)])
def test_brownian_exact_matches_bs_where_k_over_s0_leaves_the_float_range(s0, strike, r, expiry):
    # K/s0 overflows or underflows, and K e^{-rT} may too: log k is formed as
    # log K - log s0 - r T, and k = K e^{-rT}/s0 is an ordinary number.
    spec = g.GlmSpec(model=g.Brownian(), r=r, lam=0.2, sig=0.5, s0=s0)
    got = g.exact_call(spec, g.OptionSpec(strike, expiry))
    assert got == pytest.approx(_bs_mpmath(s0, r, 0.5, strike, expiry), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("strike", [1.5, 2.0])
def test_brownian_exact_matches_bs_deep_out_of_the_money(strike):
    # At T = 0.01 the price is 1.9e-44 at K = 1.5 and 4.4e-121 at K = 2; the
    # quadrature's tolerance is relative to the price, however small.
    spec = g.GlmSpec(model=g.Brownian(), r=0.02, lam=0.2, sig=0.3)
    want = g.bs_call_price(1.0, 0.02, 0.3, strike, 0.01)
    assert g.exact_call(spec, g.OptionSpec(strike, 0.01)) == pytest.approx(want, rel=1e-9, abs=0.0)


def _poisson_brute_force(spec, opt, sign=1):
    """sum over n <= 200 of P(N_T = n) pi_T(x) (S_T(x) - K)^+ at x = sign n,
    term by term."""
    t = opt.expiry
    mt = spec.model.params()["m"] * t
    total = 0.0
    for n in range(201):
        pmf = math.exp(-mt + n * math.log(mt) - math.lgamma(n + 1))
        payoff = max(g.asset_value(spec, sign * n, t) - opt.strike, 0.0)
        total += pmf * g.kernel_value(spec, sign * n, t) * payoff
    return total


@pytest.mark.parametrize("expiry", [0.25, 1.0, 1.5, 3.0])
@pytest.mark.parametrize("strike", [0.0, 0.9, 1.3, 1.8, 3.0, 50.0])
def test_poisson_exact_matches_brute_force_sum(strike, expiry):
    # Out-of-the-money strikes included: the series starts at the first
    # in-the-money atom however far beyond the mean count it lies.
    spec = g.GlmSpec(model=g.Poisson(m=1.0), r=0.02, lam=0.3, sig=0.5)
    opt = g.OptionSpec(strike=strike, expiry=expiry)
    want = _poisson_brute_force(spec, opt)
    assert want > 0.0
    assert g.exact_call(spec, opt) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("s0", [1e-200, 1e200])
@pytest.mark.parametrize("moneyness", [0.8, 1.05, 1.8])
def test_poisson_exact_at_an_extreme_price_unit_matches_brute_force_sum(s0, moneyness):
    # The series' tail estimate must neither under- nor overflow with the
    # size of its terms, which scale with s0.
    spec = g.GlmSpec(model=g.Poisson(m=1.0), r=0.02, lam=0.2, sig=0.3, s0=s0)
    want = _poisson_brute_force(dataclasses.replace(spec, s0=1.0), g.OptionSpec(moneyness, 1.0))
    price = g.exact_call(spec, g.OptionSpec(moneyness * s0, 1.0))
    assert price / s0 == pytest.approx(want, rel=1e-12, abs=0.0)


def test_poisson_threshold_on_an_atom_matches_brute_force_sum():
    # S_1 at the atom N = 1 rounds to one ulp below K, so the integrand's
    # side test leaves that atom out (it returns 0 for it).
    spec = g.GlmSpec(model=g.Poisson(m=1.0), r=0.0, lam=0.2, sig=1.0)
    opt = g.OptionSpec(strike=0.665770557927507, expiry=1.0)
    assert g.asset_value(spec, 1.0, 1.0) < opt.strike < g.asset_value(spec, 1.0 + 1e-12, 1.0)
    assert g.exact_call(spec, opt) == pytest.approx(_poisson_brute_force(spec, opt),
                                                    rel=1e-12, abs=0.0)


@pytest.mark.parametrize("strike", [1.02, 1.7, 2.5])
def test_mirrored_poisson_deep_out_of_the_money(strike):
    # S_1 = 1.73 e^{-N/2} falls with the count N, so only the counts up to a
    # bound are in the money (N <= 1 at K = 1.02, N = 0 at 1.7, none at 2.5):
    # the reflected lattice must sum those atoms and no others.
    spec = g.GlmSpec(model=g.mirror(g.Poisson(m=1.0)), r=0.02, lam=0.3, sig=0.5)
    opt = g.OptionSpec(strike=strike, expiry=1.0)
    want = _poisson_brute_force(spec, opt, sign=-1)
    assert g.exact_call(spec, opt) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("m, sig", [(1000.0, 1.6), (100.0, 3.15), (1.0, 8.0)])
def test_poisson_call_past_the_mode_matches_tilted_law(m, sig):
    # The first in-the-money count lies far past the pmf's mode, where every
    # pmf term underflows, but short of the mode m e^sig of the law tilted by
    # pi_T S_T, which holds nearly all of the price: the series must not stop
    # on the underflowed terms. With lam = 0, pi_T = e^{-r} and
    # E[pi_T (S_T - K)^+] = P(N' >= n) - K e^{-r} P(N >= n), N' ~ Poisson(m e^sig).
    stats = pytest.importorskip("scipy.stats")
    r = 0.02
    spec = g.GlmSpec(model=g.Poisson(m=m), r=r, lam=0.0, sig=sig)
    opt = g.OptionSpec(strike=1.0, expiry=1.0)
    n = math.floor((m * math.expm1(sig) - r) / sig) + 1  # first count with S_1 > 1
    want = (stats.poisson.sf(n - 1, m * math.exp(sig))
            - math.exp(-r) * stats.poisson.sf(n - 1, m))
    assert want > 0.99
    assert g.exact_call(spec, opt) == pytest.approx(want, rel=1e-11, abs=0.0)


def test_poisson_large_mean_matches_mpmath():
    # A count law of mean 1e4: the log pmf near the mode is a difference of
    # terms near 1e5 unless formed without that cancellation.
    mpmath = pytest.importorskip("mpmath")
    spec = g.GlmSpec(model=g.Poisson(m=1e4), r=0.02, lam=0.005, sig=0.01)
    opt = g.OptionSpec(strike=1.0, expiry=1.0)
    with mpmath.workdps(40):
        m, lam, sig, r = (mpmath.mpf(v) for v in (1e4, 0.005, 0.01, 0.02))
        psi = lambda a: m * mpmath.expm1(a)  # noqa: E731
        log_s_c = r + psi(sig) + psi(-lam) - psi(sig - lam) - psi(sig)
        log_pi_c = -r - psi(-lam)
        want = mpmath.mpf(0)
        for n in range(9000, 11001):  # every count beyond holds < 1e-20 of the price
            log_s = log_s_c + sig * n
            if log_s > 0:
                log_pmf = n * mpmath.log(m) - m - mpmath.loggamma(n + 1)
                want += mpmath.exp(log_pmf + log_pi_c - lam * n) * mpmath.expm1(log_s)
        assert abs(g.exact_call(spec, opt) / want - 1) < 1e-13


def test_mc_against_exact_oracles():
    n = 200_000
    at_the_money = g.OptionSpec(strike=1.0, expiry=1.0)
    poisson = g.GlmSpec(model=g.Poisson(m=1.0), r=0.02, lam=0.3, sig=0.5)
    cases = [
        (brownian_spec(), at_the_money),
        (poisson, at_the_money),
        (g.GlmSpec(model=g.Gamma(m=1.0), r=0.02, lam=0.5, sig=0.4), at_the_money),
        # Out of the money: the first in-the-money atom lies beyond the mean count.
        (poisson, g.OptionSpec(strike=1.8, expiry=1.0)),
    ]
    for spec, opt in cases:
        res = g.mc_call_price(spec, opt, n=n, rng=g.Rng(31))
        assert abs(res.estimate - g.exact_call(spec, opt)) < 4.0 * res.stderr


def test_mc_zero_strike_prices_spot():
    spec = g.GlmSpec(model=g.VarianceGamma(m=2.0), r=0.02, lam=0.5, sig=0.6, s0=1.4)
    opt = g.OptionSpec(strike=0.0, expiry=1.0)
    res = g.mc_call_price(spec, opt, n=200_000, rng=g.Rng(17))
    assert abs(res.estimate - 1.4) < 4.0 * res.stderr


def test_kernel_discounts_unit_payoff():
    # E[pi_T] = e^{-rT}: price of a sure unit payment.
    spec = g.GlmSpec(model=g.Gamma(m=1.0), r=0.05, lam=0.5, sig=0.4)
    t, n = 1.0, 200_000
    xs = g.sample_increments(spec.model, t, n, g.Rng(23))
    vals = g.kernel_value(spec, xs, t)
    est, se = vals.mean(), vals.std(ddof=1) / math.sqrt(n)
    assert abs(est - math.exp(-0.05)) < 4.0 * se


def test_dependence_experiment_brownian():
    opt = g.OptionSpec(strike=1.0, expiry=1.0)
    specs = [brownian_spec(lam=lam) for lam in (0.0, 0.5, 1.0, 2.0)]
    out = g.dependence_experiment(specs, opt, 1e-10)
    assert out["equal_within_tolerance"]
    assert out["spread"] < out["tolerance"]
    assert len(out["rows"]) == 4


def test_dependence_experiment_poisson():
    opt = g.OptionSpec(strike=1.1, expiry=1.0)
    pairs = [(1.0, 0.0), (2.0, math.log(2.0)), (4.0, math.log(4.0))]
    specs = [g.GlmSpec(model=g.Poisson(m=m), r=0.02, lam=lam, sig=0.3) for m, lam in pairs]
    out = g.dependence_experiment(specs, opt, 1e-10)
    assert out["equal_within_tolerance"]


def test_dependence_experiment_gamma():
    opt = g.OptionSpec(strike=1.05, expiry=1.0)
    triples = [(1.0, 0.0, 0.4), (1.0, 1.0, 0.8), (1.0, 0.6, 0.64)]
    specs = [g.GlmSpec(model=g.Gamma(m=m), r=0.02, lam=lam, sig=sig) for m, lam, sig in triples]
    out = g.dependence_experiment(specs, opt, 1e-8)
    assert out["equal_within_tolerance"]


@pytest.mark.parametrize("s0", [1.0, 1e-10])
def test_dependence_experiment_is_relative_to_the_prices(s0):
    # The verdict does not depend on the currency unit: two Poisson specs whose
    # prices differ by 21% are unequal at any s0, and criterion 8's equivalent
    # Poisson triple stays equal.
    opt = g.OptionSpec(strike=1.05 * s0, expiry=1.0)
    apart = [g.GlmSpec(model=g.Poisson(m=1.0), r=0.02, lam=lam, sig=0.5, s0=s0)
             for lam in (0.1, 0.6)]
    assert not g.dependence_experiment(apart, opt, 1e-6)["equal_within_tolerance"]
    pairs = [(1.0, 0.0), (2.0, math.log(2.0)), (4.0, math.log(4.0))]
    same = [g.GlmSpec(model=g.Poisson(m=m), r=0.02, lam=lam, sig=0.3, s0=s0) for m, lam in pairs]
    assert g.dependence_experiment(same, opt, 1e-10)["equal_within_tolerance"]


def test_dependence_experiment_rejects_empty_specs():
    with pytest.raises(g.ParamOutOfRange):
        g.dependence_experiment([], g.OptionSpec(strike=1.0, expiry=1.0), 1e-10)


@pytest.mark.parametrize("tol", [math.nan, -1.0])
def test_dependence_experiment_rejects_bad_tolerance(tol):
    spec = g.GlmSpec(model=g.Brownian(), lam=0.3, sig=0.2, r=0.02)
    with pytest.raises(g.ParamOutOfRange):
        g.dependence_experiment([spec], g.OptionSpec(strike=1.0, expiry=1.0), tol)


@pytest.mark.parametrize("sig", [1e-300, 1e-310])
@pytest.mark.parametrize("strike", [2.0, 0.5])
@pytest.mark.parametrize("model", [g.Poisson(m=1.0), g.mirror(g.Poisson(m=1.0)), g.Gamma(m=1.0)],
                         ids=["Poisson", "Mirrored[Poisson]", "Gamma"])
def test_vanishing_volatility_prices_the_degenerate_limit(model, strike, sig):
    # The log-moneyness threshold (log K - log s_c)/sig lies past 2^53 (or
    # overflows): S_T is deterministic at double precision and the call is
    # worth (s0 - K e^{-rT})^+.
    spec = g.GlmSpec(model=model, r=0.02, lam=0.3, sig=sig)
    want = max(1.0 - strike * math.exp(-0.02), 0.0)
    price = g.exact_call(spec, g.OptionSpec(strike=strike, expiry=1.0))
    assert price == pytest.approx(want, rel=1e-12)


_EXACT_PRICED = [g.Brownian(), g.Poisson(m=1.0), g.Gamma(m=1.0), g.ScaledGamma(m=1.0, kappa=0.5),
                 g.mirror(g.Poisson(m=1.0)), g.mirror(g.Gamma(m=1.0)),
                 g.mirror(g.ScaledGamma(m=1.0, kappa=0.5))]


@pytest.mark.parametrize("model", _EXACT_PRICED, ids=lambda model: model.family)
def test_deterministic_limit_past_the_float_range_is_worth_zero(model):
    # -rT = 8e8: K e^{-rT} overflows a float even at K = 1e-300, so the call
    # on a deterministic S_T, max(s0 - K e^{-rT}, 0), is 0.
    spec = g.GlmSpec(model=model, r=-800.0, lam=0.0, sig=1e-8)
    assert g.exact_call(spec, g.OptionSpec(strike=1e-300, expiry=1e6)) == 0.0


def test_option_spec_validation():
    with pytest.raises(g.ParamOutOfRange):
        g.OptionSpec(strike=-1.0, expiry=1.0)
    with pytest.raises(g.ParamOutOfRange):
        g.OptionSpec(strike=1.0, expiry=0.0)
    with pytest.raises(g.ParamOutOfRange):
        g.mc_call_price(brownian_spec(), g.OptionSpec(strike=1.0, expiry=1.0),
                        n=10, rng=g.Rng(1))
    with pytest.raises(g.ParamOutOfRange) as exc:
        g.mc_call_price(brownian_spec(), g.OptionSpec(strike=1.0, expiry=1.0),
                        n="x", rng=g.Rng(1))
    assert exc.value.name == "n"


@pytest.mark.parametrize("strike,expiry", [
    (math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan),
    pytest.param("x", 1.0, id="str-1.0"), pytest.param([1.0], 1.0, id="list-1.0"),
    pytest.param(None, 1.0, id="None-1.0"), pytest.param(1.0, None, id="1.0-None"),
    pytest.param(1.0, 10**400, id="1.0-huge-int")])
def test_option_spec_rejects_non_finite(strike, expiry):
    with pytest.raises(g.ParamOutOfRange) as exc:
        g.OptionSpec(strike=strike, expiry=expiry)
    assert exc.value.name == ("strike" if expiry == 1.0 else "expiry")
