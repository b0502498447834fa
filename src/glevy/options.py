"""Call option valuation: Monte Carlo via the pricing kernel, one exact
pricer over the family's terminal law (`exact_call`; Brownian, Poisson, Gamma,
ScaledGamma and the mirrors of the last three have one, and the old pricer
names `brownian_exact_call`, `poisson_exact_call` and `gamma_exact_call`
remain as aliases of it), and the parameter-dependence experiment (which
parameter combinations option prices actually identify).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr

from .errors import ParamOutOfRange, QuadratureFailure
from .exponents import _check_fields, _finite, _nonnegative, _param, _positive
from .pricing import GlmSpec, asset_value, kernel_value, log_value
from .sampling import McResult, Rng, _check_count, sample_increments

__all__ = [
    "OptionSpec",
    "mc_call_price",
    "bs_call_price",
    "exact_call",
    "brownian_exact_call",
    "poisson_exact_call",
    "gamma_exact_call",
    "dependence_experiment",
]

@dataclass(frozen=True)
class OptionSpec:
    """European call with a finite strike K >= 0 and a finite expiry T > 0
    (years); each field declares its check."""

    strike: float = _param(_nonnegative)
    expiry: float = _param(_positive)

    __post_init__ = _check_fields


def mc_call_price(glm: GlmSpec, opt: OptionSpec, n: int, rng: Rng) -> McResult:
    """Monte Carlo estimate of E[pi_T (S_T - K)^+] on exact terminal draws.

    Kernel and asset share the same driver draws, so the estimator inherits
    the martingale structure of pi*S exactly.
    """
    _check_count("n", n, 1000)
    t = opt.expiry
    x = sample_increments(glm.model, t, n, rng)
    payoff = kernel_value(glm, x, t) * np.maximum(asset_value(glm, x, t) - opt.strike, 0.0)
    return McResult.from_samples(payoff)


def bs_call_price(s0: float, r: float, sig: float, strike: float, expiry: float) -> float:
    """Black-Scholes call price; serves as the closed-form lognormal oracle."""
    opt = OptionSpec(strike, expiry)
    strike, expiry = opt.strike, opt.expiry
    s0, r, sig = _positive("s0", s0), _finite("r", r), _nonnegative("sig", sig)
    if strike == 0.0:
        return s0
    try:
        disc = math.exp(-r * expiry)
    except OverflowError:
        raise ParamOutOfRange("-r T", -r * expiry, "e^{-rT} overflows a float") from None
    st = sig * math.sqrt(expiry)
    if st == 0.0:  # sig = 0, or sig so small that st underflows
        return max(s0 - strike * disc, 0.0)
    moneyness = s0 / strike
    if sys.float_info.min <= moneyness < math.inf:
        x = math.log(moneyness)
    else:  # s0/K underflows or overflows
        x = math.log(s0) - math.log(strike)
    d1 = (x + (r + 0.5 * sig * sig) * expiry) / st
    if math.isfinite(d1):
        d2 = d1 - st
    elif st == math.inf:  # d1 -> inf and d2 -> -inf whatever x and r T
        return s0
    else:  # sig^2 T, r T or (x + r T)/st overflows: y +- st/2 keep their limits
        y = (x + r * expiry) / st
        d1, d2 = y + 0.5 * st, y - 0.5 * st
    cdf2 = ndtr(d2)
    if cdf2 < sys.float_info.min:  # Phi(d2) underflows or is subnormal: both terms in logs
        return (np.exp(math.log(s0) + log_ndtr(d1))
                - np.exp(math.log(strike) - r * expiry + log_ndtr(d2)))
    return s0 * ndtr(d1) - strike * disc * cdf2


def exact_call(glm: GlmSpec, opt: OptionSpec) -> float:
    """E[pi_T (S_T - K)^+] against the family's terminal law of X_T.

    The law's atoms are summed from the first in-the-money one and its density
    integrated by adaptive quadrature from the log-moneyness threshold. The
    risk-aversion parameter stays in the integrand, so which parameters the
    price depends on is an outcome rather than an assumption. Families with
    no terminal law raise Unsupported.
    """
    t, strike, model, lam, sig = opt.expiry, opt.strike, glm.model, glm.lam, glm.sig
    law = model.terminal_law(t)
    log_k = math.log(strike) if strike > 0.0 else -math.inf
    log_pi_c = log_value(0.0, -glm.r, model, -lam, 0.0, t)
    log_s_c = log_value(math.log(glm.s0), glm.r + glm.premium, model, sig, 0.0, t)

    def integrand(x: float, log_w: float) -> float:
        # All factors assembled in log space: the quadrature probes x deep in
        # the tail where S alone would overflow.
        log_s = log_s_c + sig * x
        if log_s <= log_k:
            return 0.0
        log_w += log_pi_c - lam * x
        if log_s < 600.0:
            return math.exp(log_w) * (math.exp(log_s) - strike)
        return math.exp(log_w + log_s) - strike * math.exp(log_w)

    # The law tilted by pi_T S_T, whose weights grow and fall with the terms.
    tilt = sig - lam
    breaks = ()
    if law.log_density is not None:
        # Breakpoints 8 standard deviations either side of the centre of the
        # tilted law put the bulk of the mass in a finite piece whatever its
        # width: a short expiry leaves it too narrow for quad's first nodes on
        # a long or infinite piece, which then return 0 with a tiny error.
        # They also keep an edge singularity (gamma shape below 1) out of the
        # infinite-range transform.
        centre = t * model.psi_prime(tilt)
        width = 8.0 * math.sqrt(t * model.psi_second(tilt))
        breaks = (centre - width, centre + width)
    # S_T(x) exceeds K only beyond the log-moneyness threshold. Past 2^53 no
    # atom series can start (integers stop being distinct doubles), and the
    # laws here put no mass there: S_T is deterministic and the call is worth
    # its limit.
    x_k = (log_k - log_s_c) / sig
    if strike > 0.0 and not abs(x_k) < 2.0**53:
        return max(glm.s0 - strike * math.exp(-glm.r * t), 0.0)
    value, err = law.integrate(integrand, x_k, math.inf, tilt, breaks)
    if err > min(1e-9 * max(abs(value), 1e-3), 1e-8 * max(abs(value), 1e-6)):
        raise QuadratureFailure(f"call quadrature error {err:.2e}")
    return value


# Names kept for callers of the per-family pricers; each is exact_call.
brownian_exact_call = poisson_exact_call = gamma_exact_call = exact_call


def dependence_experiment(specs, opt: OptionSpec, tol: float) -> dict:
    """Price the option under each spec of a set that the theory says is
    observationally equivalent, and flag any spread beyond tolerance.

    For example Brownian specs that differ only in lambda (the price must not
    depend on risk aversion), Poisson specs with equal m e^{-lambda}, or gamma
    specs with equal (m, sigma/(1+lambda)).
    """
    rows = [{"params": {**glm.model.params(), "lambda": glm.lam, "sigma": glm.sig},
             "price": exact_call(glm, opt)} for glm in specs]
    if not rows:
        raise ParamOutOfRange("specs", specs, "must be nonempty")
    prices = [row["price"] for row in rows]
    spread = max(prices) - min(prices)
    return {"strike": opt.strike, "expiry": opt.expiry,
            "rows": rows, "spread": spread, "tolerance": tol,
            "equal_within_tolerance": spread <= tol * max(1.0, max(prices))}
