"""Tests for option valuation: closed forms, quadrature/series oracles, MC."""

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


def test_bs_monotone_in_strike():
    prices = [g.bs_call_price(1.0, 0.03, 0.2, k, 1.0) for k in (0.5, 0.8, 1.0, 1.3, 2.0)]
    assert all(a > b for a, b in zip(prices, prices[1:]))


def test_brownian_exact_matches_bs():
    spec = brownian_spec()
    for t in (0.25, 1.5, 4.0):
        for k in (0.0, 0.5, 0.9, 1.0, 1.1, 1.8, 3.0):
            opt = g.OptionSpec(strike=k, expiry=t)
            exact = g.brownian_exact_call(spec, opt)
            bs = g.bs_call_price(spec.s0, spec.r, spec.sig, k, t)
            assert exact == pytest.approx(bs, abs=1e-10), (k, t)


def test_brownian_price_lambda_independent():
    # The diffusive model's option price carries no risk-aversion dependence.
    opt = g.OptionSpec(strike=1.0, expiry=1.0)
    prices = [g.brownian_exact_call(brownian_spec(lam=l), opt) for l in (0.0, 0.3, 1.0, 2.5)]
    spread = max(prices) - min(prices)
    assert spread < 1e-10


def test_poisson_price_depends_on_product_only():
    # Prices coincide whenever m e^{-lam} matches.
    opt = g.OptionSpec(strike=1.1, expiry=1.0)

    def price(m, lam):
        spec = g.GlmSpec(model=g.Poisson(m=m), r=0.02, lam=lam, sig=0.3)
        return g.poisson_exact_call(spec, opt)

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
        return g.gamma_exact_call(spec, opt)

    p1 = price(1.0, 0.0, 0.4)
    p2 = price(1.0, 1.0, 0.8)  # 0.8 / 2 = 0.4
    p3 = price(1.0, 3.0, 0.8)  # 0.8 / 4 = 0.2 -> different
    assert p1 == pytest.approx(p2, rel=1e-8)
    assert abs(p3 - p1) > 1e-4


def test_exact_zero_strike_recovers_spot():
    opt = g.OptionSpec(strike=0.0, expiry=1.0)
    assert g.brownian_exact_call(brownian_spec(s0=1.7), opt) == pytest.approx(1.7, rel=1e-10)
    spec_p = g.GlmSpec(model=g.Poisson(m=1.0), r=0.02, lam=0.3, sig=0.3, s0=1.7)
    assert g.poisson_exact_call(spec_p, opt) == pytest.approx(1.7, rel=1e-10)
    spec_g = g.GlmSpec(model=g.Gamma(m=1.0), r=0.02, lam=0.5, sig=0.4, s0=1.7)
    assert g.gamma_exact_call(spec_g, opt) == pytest.approx(1.7, rel=1e-8)


def test_deep_out_of_the_money_is_tiny():
    opt = g.OptionSpec(strike=50.0, expiry=0.5)
    assert g.brownian_exact_call(brownian_spec(), opt) < 1e-8
    spec_g = g.GlmSpec(model=g.Gamma(m=1.0), r=0.02, lam=0.5, sig=0.4)
    assert g.gamma_exact_call(spec_g, opt) < 1e-6


def test_mc_against_exact_oracles():
    n = 200_000
    cases = [
        (brownian_spec(), g.brownian_exact_call),
        (g.GlmSpec(model=g.Poisson(m=1.0), r=0.02, lam=0.3, sig=0.5), g.poisson_exact_call),
        (g.GlmSpec(model=g.Gamma(m=1.0), r=0.02, lam=0.5, sig=0.4), g.gamma_exact_call),
    ]
    opt = g.OptionSpec(strike=1.0, expiry=1.0)
    for spec, oracle in cases:
        res = g.mc_call_price(spec, opt, n=n, rng=g.Rng(31))
        assert abs(res.estimate - oracle(spec, opt)) < 4.0 * res.stderr


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
    out = g.dependence_experiment("Brownian", [0.0, 0.5, 1.0, 2.0], opt)
    assert out["equal_within_tolerance"]
    assert out["spread"] < out["tolerance"]
    assert len(out["rows"]) == 4


def test_dependence_experiment_poisson():
    opt = g.OptionSpec(strike=1.1, expiry=1.0)
    pairs = [(1.0, 0.0), (2.0, math.log(2.0)), (4.0, math.log(4.0))]
    out = g.dependence_experiment("Poisson", pairs, opt)
    assert out["equal_within_tolerance"]


def test_dependence_experiment_gamma():
    opt = g.OptionSpec(strike=1.05, expiry=1.0)
    triples = [(1.0, 0.0, 0.4), (1.0, 1.0, 0.8), (1.0, 0.6, 0.64)]
    out = g.dependence_experiment("Gamma", triples, opt)
    assert out["equal_within_tolerance"]


def test_option_spec_validation():
    with pytest.raises(g.ParamOutOfRange):
        g.OptionSpec(strike=-1.0, expiry=1.0)
    with pytest.raises(g.ParamOutOfRange):
        g.OptionSpec(strike=1.0, expiry=0.0)
    with pytest.raises(g.ParamOutOfRange):
        g.mc_call_price(brownian_spec(), g.OptionSpec(strike=1.0, expiry=1.0),
                        n=10, rng=g.Rng(1))
