"""Call option valuation: Monte Carlo via the pricing kernel, one exact
pricer over the family's terminal law (`exact_call`; Brownian, Poisson, Gamma,
ScaledGamma and the mirrors of the last three have one, and the old pricer
names `brownian_exact_call`, `poisson_exact_call` and `gamma_exact_call`
remain as aliases of it), and the parameter-dependence experiment (which
parameter combinations option prices actually identify). `exact_call` prices
one unit of s0 at the discounted moneyness k = K e^{-rT}/s0 and scales it by
s0, so the price is homogeneous in (s0, K e^{-rT}) by construction. A strike
at or below S_T's mass is worth the forward s0 (1 - k), and a law whose
density's support has a finite top (the mirrored gamma laws) is priced from
the put side, as the forward less the put, unless the two cancel beyond the
tolerance. The Black-Scholes oracle forms the normal CDF and its log from
`math.erfc`. `glevy` exports this module's `__all__`.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParamOutOfRange, QuadratureFailure
from .exponents import _check_fields, _finite, _nonnegative, _param, _positive
from .pricing import _LOG_MAX, GlmSpec, _exp, asset_value, kernel_value, log_value
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


_SQRT1_2 = math.sqrt(0.5)
# _SQRT1_2 as hi + lo, hi of 26 bits, and its rounding error 1/sqrt(2) - _SQRT1_2
_SQRT1_2_HI, _SQRT1_2_LO = 0.7071067839860916, -2.7995440410322203e-09
_SQRT1_2_TAIL = -4.833646656726457e-17


def _ndtr(x: float) -> float:
    """The standard normal CDF Phi(x) = erfc(w)/2 at w = -x/sqrt(2). erfc
    magnifies an error in w 2 w^2-fold, so the rounding error dx of x/sqrt(2),
    exact by Dekker's product of Veltkamp's 26-bit halves, enters to first order."""
    w = -x * _SQRT1_2
    if not abs(x) < 40.0:  # Phi(x) rounds to 0 or 1
        return 0.5 * math.erfc(w)
    u = 134217729.0 * x  # 2^27 + 1
    hi = u - (u - x)
    lo = x - hi
    dx = (((hi * _SQRT1_2_HI + w) + hi * _SQRT1_2_LO + lo * _SQRT1_2_HI) + lo * _SQRT1_2_LO
          + x * _SQRT1_2_TAIL)
    return 0.5 * (math.erfc(w) + 2.0 / math.sqrt(math.pi) * math.exp(-w * w) * dx)


def _log_ndtr(x: float) -> float:
    """log Phi(x): log1p(-Phi(-x)) above 0, and below -20, where Phi(x) nears
    the float range, -x^2/2 - log(-x sqrt(2 pi)) plus the log of the first
    ten terms of the asymptotic series sum_n (-1)^n (2n - 1)!! / x^{2n}."""
    if x > 0.0:
        return math.log1p(-_ndtr(-x))
    if x > -20.0:
        return math.log(_ndtr(x))
    series = 1.0
    for n in range(10, 0, -1):
        series = 1.0 - (2 * n - 1) / (x * x) * series
    return -0.5 * x * x - math.log(-x) - 0.5 * math.log(2.0 * math.pi) + math.log(series)


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
    disc = _exp(-r * expiry, "-r T", -r * expiry, "e^{-rT}")
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
    cdf2 = _ndtr(d2)
    if cdf2 < sys.float_info.min:  # Phi(d2) underflows or is subnormal: both terms in logs
        return (math.exp(math.log(s0) + _log_ndtr(d1))
                - math.exp(math.log(strike) - r * expiry + _log_ndtr(d2)))
    return s0 * _ndtr(d1) - strike * disc * cdf2


def exact_call(glm: GlmSpec, opt: OptionSpec) -> float:
    """E[pi_T (S_T - K)^+] against the family's terminal law of X_T. pi_T is
    e^{-rT} times the risk-aversion weight w, so the price is s0 E[w (u - k)^+]
    at u = S_T e^{-rT}/s0 and k = K e^{-rT}/s0: homogeneous in (s0, K e^{-rT})
    by construction. The law's atoms are summed from the first in-the-money
    one and its density integrated by adaptive quadrature from the
    log-moneyness threshold, or first up to it, on the put side, where the
    density's support has a finite top. A side's value stands when its error
    estimate is within 1e-9 of it; on the put side it is the forward less the
    put, so a cancelling put goes on to the call side. The risk-aversion
    parameter stays in the integrand, so which parameters the price depends
    on is an outcome rather than an assumption. Families with no terminal law
    raise Unsupported.
    """
    t, model, lam, sig = opt.expiry, glm.model, glm.lam, glm.sig
    law = model.terminal_law(t)
    moneyness, log_k = opt.strike / glm.s0, -math.inf  # log k of K = 0
    if sys.float_info.min <= moneyness < math.inf:
        log_k = math.log(moneyness) - glm.r * t
    elif opt.strike > 0.0:  # K/s0 underflows or overflows
        log_k = math.log(opt.strike) - math.log(glm.s0) - glm.r * t
    log_w_c = log_value(0.0, 0.0, model, -lam, 0.0, t)
    log_u_c = log_value(0.0, glm.premium, model, sig, 0.0, t)

    def integrand(x: float, log_w: float) -> float:
        # w (u - k) on the integrated side of x_k, assembled in log space: the
        # quadrature probes x deep in the tail where u alone would overflow.
        log_u = log_u_c + sig * x
        if (log_u <= log_k) != below:
            return 0.0
        log_w += log_w_c - lam * x
        if log_u < 600.0:
            return math.exp(log_w) * (math.exp(log_u) - k)
        return math.exp(log_w + log_u) - math.exp(log_w + log_k)

    # u exceeds k only beyond the log-moneyness threshold x_k, and since
    # E[w u] = E[w] = 1 the unit call is also the forward 1 - k minus the
    # integral of w (u - k) below x_k, the put side. That integral is empty
    # where x_k is at or below the law's mass (K = 0 gives s0). Past 2^53 no
    # atom series can start (integers stop being distinct doubles), and the
    # laws here put no mass there: u is deterministic, the call its limit.
    x_k = (log_k - log_u_c) / sig
    k = math.exp(min(log_k, _LOG_MAX))
    forward = 1.0 - k
    if x_k <= law.lowest or not abs(x_k) < 2.0**53:
        return glm.s0 * max(forward, 0.0)
    # Below a finite top of the density's support the put side comes first:
    # it keeps the quadrature off the top's singular edge (the mirrored gamma
    # laws of small shape), which every piece above x_k would reach; the call
    # side follows where k overflows or the forward and the put cancel.
    put_first = x_k < law.support[1] < math.inf and log_k < _LOG_MAX
    for below in (True, False) if put_first else (False,):
        # The law tilted by the larger term of the integrand, whose weights
        # grow and fall with the terms: w u above x_k, w k below it.
        tilt = -lam if below else sig - lam
        breaks = ()
        if law.log_density is not None:
            # Breakpoints 8 standard deviations either side of the centre of
            # the tilted law put the bulk of the mass in a finite piece
            # whatever its width: a short expiry leaves it too narrow for
            # the quadrature's first nodes on a long or infinite piece, which then
            # return 0 with a tiny error. They also keep an edge singularity
            # (gamma shape below 1) out of the infinite-range transform.
            centre = t * model.psi_prime(tilt)
            width = 8.0 * math.sqrt(t * model.psi_second(tilt))
            breaks = (centre - width, centre + width)
        lo, hi = (-math.inf, x_k) if below else (x_k, math.inf)
        try:
            value, err = law.integrate(integrand, lo, hi, tilt, breaks)
        except OverflowError:  # log_u rounds past exp's range where sig x and t psi(sig) cancel
            raise QuadratureFailure("call integrand overflows a float") from None
        if below:
            value = forward - value
        if not err > 1e-9 * abs(value):
            return glm.s0 * value
    raise QuadratureFailure(f"call quadrature error {err:.2e}")


# Names kept for callers of the per-family pricers; each is exact_call.
brownian_exact_call = poisson_exact_call = gamma_exact_call = exact_call


def dependence_experiment(specs, opt: OptionSpec, tol: float) -> dict:
    """Price the option under each spec of a set that the theory says is
    observationally equivalent, and flag a spread beyond tol times the largest
    price (relative, so the verdict does not depend on the currency unit).

    For example Brownian specs that differ only in lambda (the price must not
    depend on risk aversion), Poisson specs with equal m e^{-lambda}, or gamma
    specs with equal (m, sigma/(1+lambda)).
    """
    tol = _nonnegative("tol", tol)
    rows = [{"params": {**glm.model.params(), "lambda": glm.lam, "sigma": glm.sig},
             "price": exact_call(glm, opt)} for glm in specs]
    if not rows:
        raise ParamOutOfRange("specs", specs, "must be nonempty")
    prices = [row["price"] for row in rows]
    spread = max(prices) - min(prices)
    return {"strike": opt.strike, "expiry": opt.expiry,
            "rows": rows, "spread": spread, "tolerance": tol,
            "equal_within_tolerance": spread <= tol * max(prices)}
