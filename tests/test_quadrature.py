"""Tests for the adaptive Gauss-Kronrod integrator behind `Measure.integrate`:
the qk21 table, closed forms, failure as an infinite error estimate, and
scipy's `quad` (imported here only) as an oracle for prices and premiums."""

import itertools
import math

import numpy as np
import pytest

import glevy as g
from glevy import exponents
from glevy.exponents import _NODES, _WG, _WK, _quad


def _rule_error(weights, nodes, k):
    """sum_i w_i x_i^k minus the integral of x^k over [-1, 1]."""
    return sum(w * x**k for w, x in zip(weights, nodes)) - (2.0 / (k + 1) if k % 2 == 0 else 0.0)


def test_kronrod_rule_is_exact_to_degree_31_and_gauss_rule_to_19():
    # The 10 Gauss nodes are every second Kronrod node.
    kronrod, gauss = (_WK, _NODES), (_WG, _NODES[1::2])
    assert len(_NODES) == len(_WK) == 21 and len(_WG) == 10
    assert _NODES == tuple(sorted(_NODES)) and _NODES == tuple(-x for x in reversed(_NODES))
    for k in range(32):
        assert abs(_rule_error(*kronrod, k)) <= 1e-15, k
    for k in range(20):
        assert abs(_rule_error(*gauss, k)) <= 1e-15, k
    # One degree further neither rule is exact, so the table is the one claimed.
    assert abs(_rule_error(*kronrod, 32)) > 1e-13 and abs(_rule_error(*gauss, 20)) > 1e-7
    assert _NODES[-1] == 0.9956571630258081  # QUADPACK's xgk(1)


def _plain(f):
    return lambda x, log_w: f(x)


@pytest.mark.parametrize("f, a, b, want", [
    (lambda x: math.exp(-x), 0.0, math.inf, 1.0),
    (lambda x: math.exp(x), -math.inf, 0.0, 1.0),
    (lambda x: math.exp(-0.5 * x * x), -math.inf, math.inf, math.sqrt(2.0 * math.pi)),
    (lambda x: x**-0.5, 0.0, 1.0, 2.0),
    (lambda x: 1.0 / (1.0 + x * x), -math.inf, 1.0, 0.75 * math.pi),
    (math.cos, 0.0, 100.0, math.sin(100.0)),
], ids=["exp-half-line", "exp-lower-half-line", "gauss-whole-line", "inverse-sqrt",
        "cauchy-below-1", "oscillating"])
def test_closed_forms(f, a, b, want):
    value, err = _quad(_plain(f), lambda x: 0.0, a, b)
    assert err <= max(1e-15, 1e-10 * abs(value))
    assert value == pytest.approx(want, rel=1e-10, abs=0.0)


def _counted(f):
    calls = []

    def g(x, log_w):
        calls.append(x)
        return f(x)
    return g, calls


def test_divergent_integral_is_an_infinite_error_estimate():
    # Every piece at 0 keeps the same error, so bisection stops at 500 pieces:
    # one rule on the whole interval and two per bisection, 21 points each.
    g, calls = _counted(lambda x: 1.0 / x)
    _, err = _quad(g, lambda x: 0.0, 0.0, 1.0)
    assert err == math.inf and len(calls) == 21 * (1 + 2 * 499)


def test_piece_too_short_to_bisect_is_an_infinite_error_estimate():
    # The pole at 1/3 is bisected down to pieces of about 100 ulps, which
    # QUADPACK's test calls too short, long before 500 pieces.
    g, calls = _counted(lambda x: 1.0 / abs(x - 1.0 / 3.0))
    _, err = _quad(g, lambda x: 0.0, 0.3, 0.4)
    assert err == math.inf and len(calls) < 21 * 200


def test_non_finite_integrand_is_an_infinite_error_estimate():
    for bad in (math.inf, -math.inf, math.nan):
        _, err = _quad(_plain(lambda x: bad if x > 0.5 else 1.0), lambda x: 0.0, 0.0, 1.0)
        assert err == math.inf


def _scipy_quad(gf, log_f, a, b):
    """scipy's quad with the integrator's tolerances and subdivision limit."""
    from scipy import integrate

    v, e, _, *message = integrate.quad(lambda x: gf(x, log_f(x)), a, b, full_output=1,
                                       epsabs=1e-15, epsrel=1e-10, limit=500)
    return v, math.inf if message else e


def _both(monkeypatch, fn, *args):
    ours = fn(*args)
    with monkeypatch.context() as m:
        m.setattr(exponents, "_quad", _scipy_quad)
        return ours, fn(*args)


_PRICE_MODELS = [g.Brownian(), g.Gamma(0.5), g.Gamma(3.0), g.ScaledGamma(2.0, 0.3),
                 g.ScaledGamma(0.3, 1.5), g.mirror(g.Gamma(0.5)), g.mirror(g.Gamma(3.0)),
                 g.mirror(g.ScaledGamma(2.0, 0.3))]


def test_exact_prices_agree_with_scipy_quad(monkeypatch):
    # Both integrators aim at max(1e-15, 1e-10 |value|) per piece, so prices
    # agree to 1e-9 relative except near 1e-15, where the absolute tolerance
    # governs and both may be that far off.
    n = 0
    for model, (lam, sig), strike, expiry in itertools.product(
            _PRICE_MODELS, [(0.1, 0.2), (0.3, 0.5), (0.0, 0.25)],
            [0.5, 0.9, 1.0, 1.1, 2.0, 5.0], [0.001, 0.01, 0.25, 1.0, 5.0, 20.0]):
        glm = g.GlmSpec(model=model, r=0.02, lam=lam, sig=sig)
        ours, want = _both(monkeypatch, g.exact_call, glm, g.OptionSpec(strike, expiry))
        assert abs(ours - want) <= 1e-9 * abs(want) + 1e-15, (model, lam, sig, strike, expiry)
        n += 1
    assert n == 864


def test_jump_measure_premiums_agree_with_scipy_quad(monkeypatch):
    rng = np.random.default_rng(5)
    models = [g.Gamma(0.5), g.Gamma(3.0), g.ScaledGamma(2.0, 0.3), g.VarianceGamma(2.0),
              g.AsymmetricVG(1.5, 0.2, 0.8), g.CompoundPoissonNormal(1.0, 1.0),
              g.mirror(g.Gamma(0.5)), g.mirror(g.AsymmetricVG(1.5, 0.2, 0.8))]
    for model in models:  # 35 (lam, sig) pairs each, 280 premiums
        hi, lo = min(model.domain.upper, 3.0) * 0.45, min(-model.domain.lower, 3.0) * 0.45
        k = 0
        while k < 35:
            lam, sig = rng.uniform(0.02, lo), rng.uniform(0.02, hi)
            if not all(model.domain.admissible(a) for a in (sig, -lam, sig - lam)):
                continue
            ours, want = _both(monkeypatch, g.premium_via_levy_measure, model, lam, sig)
            assert abs(ours - want) <= 1e-11 * max(1.0, abs(want)), (model, lam, sig)
            k += 1
