"""Call option valuation: Monte Carlo via the pricing kernel, exact oracles
for the Brownian, Poisson and gamma families, and the parameter-dependence
experiments (which parameter combinations option prices actually identify).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import gammaln
from scipy.stats import norm

from .errors import ParamOutOfRange, QuadratureFailure, WrongFamily
from .exponents import Brownian, Gamma, Poisson
from .pricing import GlmSpec, asset_value, kernel_value
from .sampling import McResult, Rng, sample_increments

__all__ = [
    "OptionSpec",
    "mc_call_price",
    "bs_call_price",
    "brownian_exact_call",
    "poisson_exact_call",
    "gamma_exact_call",
    "dependence_experiment",
]


@dataclass(frozen=True)
class OptionSpec:
    """European call with strike K and expiry T (years)."""

    strike: float
    expiry: float

    def __post_init__(self):
        if not 0.0 <= self.strike < math.inf:
            raise ParamOutOfRange("strike", self.strike, "must be finite and >= 0")
        if not 0.0 < self.expiry < math.inf:
            raise ParamOutOfRange("expiry", self.expiry, "must be finite and > 0")


def mc_call_price(glm: GlmSpec, opt: OptionSpec, n: int, rng: Rng) -> McResult:
    """Monte Carlo estimate of E[pi_T (S_T - K)^+] on exact terminal draws.

    Kernel and asset share the same driver draws, so the estimator inherits
    the martingale structure of pi*S exactly.
    """
    if n < 1000:
        raise ParamOutOfRange("n", n, "must be >= 1e3")
    t = opt.expiry
    x = sample_increments(glm.model, t, n, rng)
    payoff = kernel_value(glm, x, t) * np.maximum(asset_value(glm, x, t) - opt.strike, 0.0)
    return McResult(estimate=float(payoff.mean()),
                    stderr=float(payoff.std(ddof=1) / math.sqrt(n)),
                    n=n)


def bs_call_price(s0: float, r: float, sig: float, strike: float, expiry: float) -> float:
    """Black-Scholes call price; serves as the closed-form lognormal oracle."""
    if strike == 0.0:
        return s0
    if sig <= 0.0:
        return max(s0 - strike * math.exp(-r * expiry), 0.0)
    st = sig * math.sqrt(expiry)
    d1 = (math.log(s0 / strike) + (r + 0.5 * sig * sig) * expiry) / st
    d2 = d1 - st
    return s0 * norm.cdf(d1) - strike * math.exp(-r * expiry) * norm.cdf(d2)


def brownian_exact_call(glm: GlmSpec, opt: OptionSpec) -> float:
    """E[pi_T (S_T - K)^+] for a Brownian driver by direct quadrature.

    Keeps the risk-aversion parameter in the integrand, so lambda-independence
    of the price is an outcome rather than an assumption.
    """
    if not isinstance(glm.model, Brownian):
        raise WrongFamily(f"expected Brownian, got {glm.model.family}")
    t = opt.expiry
    sd = math.sqrt(t)
    density_c = 1.0 / (sd * math.sqrt(2.0 * math.pi))

    def integrand(x: float) -> float:
        s = asset_value(glm, x, t)
        if s <= opt.strike:
            return 0.0
        density = density_c * math.exp(-0.5 * x * x / t)
        return kernel_value(glm, x, t) * (s - opt.strike) * density

    # Payoff is nonzero for x above the log-moneyness threshold.
    if opt.strike > 0.0:
        log_ratio = math.log(opt.strike / asset_value(glm, 0.0, t))
        x_star = max(log_ratio / glm.sig, -12.0 * sd)
    else:
        x_star = -12.0 * sd
    hi = 12.0 * sd + glm.sig * t + glm.lam * t
    value, err = integrate.quad(integrand, x_star, max(hi, x_star + 1.0),
                                epsabs=1e-14, epsrel=1e-12, limit=500)
    if err > 1e-9 * max(abs(value), 1e-3):
        raise QuadratureFailure(f"brownian call quadrature error {err:.2e}")
    return value


def poisson_exact_call(glm: GlmSpec, opt: OptionSpec) -> float:
    """Exact series price for the Poisson-driven model.

    Sums P(N_T = n) * pi_T(n) * (S_T(n) - K)^+ until the tail contributes
    less than 1e-12 of the running sum (the summand ratio test bounds the
    remaining tail by a geometric series).
    """
    if not isinstance(glm.model, Poisson):
        raise WrongFamily(f"expected Poisson, got {glm.model.family}")
    t = opt.expiry
    mt = glm.model.m * t
    total = 0.0
    n = 0
    # Effective weight decays once n exceeds m*T*e^{sig}; cap generously.
    n_cap = int(mt * math.exp(glm.sig) + 60.0 * math.sqrt(mt * math.exp(glm.sig)) + 60)
    while n <= n_cap:
        log_pmf = -mt + n * math.log(mt) - gammaln(n + 1) if mt > 0 else (0.0 if n == 0 else -math.inf)
        weight = math.exp(log_pmf)
        payoff = max(asset_value(glm, float(n), t) - opt.strike, 0.0)
        term = weight * kernel_value(glm, float(n), t) * payoff
        total += term
        if n > mt * math.exp(glm.sig) and term < 1e-12 * max(total, 1e-300):
            break
        n += 1
    return total


def gamma_exact_call(glm: GlmSpec, opt: OptionSpec) -> float:
    """Exact price for the gamma-driven model by adaptive quadrature.

    Integrates pi_T(x) (S_T(x) - K)^+ against the gamma density with shape
    m*T to 1e-8 relative tolerance.
    """
    if not isinstance(glm.model, Gamma):
        raise WrongFamily(f"expected Gamma, got {glm.model.family}")
    t = opt.expiry
    shape = glm.model.m * t
    log_norm = -gammaln(shape)
    log_k = math.log(opt.strike) if opt.strike > 0.0 else -math.inf
    log_pi_c = -glm.r * t - t * glm.model.psi(-glm.lam)
    log_s_c = (math.log(glm.s0) + (glm.r + glm.premium) * t
               - t * glm.model.psi(glm.sig))

    def integrand(x: float) -> float:
        # All three factors assembled in log space; the quadrature probes x
        # deep in the tail where S alone would overflow.
        log_s = log_s_c + glm.sig * x
        if log_s <= log_k:
            return 0.0
        log_pi_dens = (log_pi_c - glm.lam * x
                       + log_norm + (shape - 1.0) * math.log(x) - x)
        if log_s < 600.0:
            return math.exp(log_pi_dens) * (math.exp(log_s) - opt.strike)
        return (math.exp(log_pi_dens + log_s)
                - opt.strike * math.exp(log_pi_dens))

    # S_T(x) exceeds K only beyond the log-moneyness threshold.
    if opt.strike > 0.0:
        log_ratio = math.log(opt.strike / asset_value(glm, 0.0, t))
        x_star = max(log_ratio / glm.sig, 0.0)
    else:
        x_star = 0.0
    value, err = integrate.quad(integrand, x_star, math.inf,
                                epsabs=1e-14, epsrel=1e-10, limit=500)
    if err > 1e-8 * max(abs(value), 1e-6):
        raise QuadratureFailure(f"gamma call quadrature error {err:.2e}")
    return value


def dependence_experiment(family: str, param_pairs, opt: OptionSpec,
                          tol: float | None = None) -> dict:
    """Price the option across parameter settings that the theory says are
    observationally equivalent, and flag any spread beyond tolerance.

    family "Brownian": settings are lambda values (price must not depend on
    risk aversion). "Poisson": (m, lambda) pairs with equal m e^{-lambda}.
    "Gamma": (m, lambda, sigma) triples with equal (m, sigma/(1+lambda)).
    """
    rows = []
    if family == "Brownian":
        tol = 1e-10 if tol is None else tol
        for lam in param_pairs:
            glm = GlmSpec(model=Brownian(), r=0.02, lam=lam, sig=0.25, s0=1.0)
            rows.append({"params": {"lambda": lam}, "price": brownian_exact_call(glm, opt)})
    elif family == "Poisson":
        tol = 1e-10 if tol is None else tol
        for m, lam in param_pairs:
            glm = GlmSpec(model=Poisson(m=m), r=0.02, lam=lam, sig=0.3, s0=1.0)
            rows.append({"params": {"m": m, "lambda": lam},
                         "price": poisson_exact_call(glm, opt)})
    elif family == "Gamma":
        tol = 1e-8 if tol is None else tol
        for m, lam, sig in param_pairs:
            glm = GlmSpec(model=Gamma(m=m), r=0.02, lam=lam, sig=sig, s0=1.0)
            rows.append({"params": {"m": m, "lambda": lam, "sigma": sig},
                         "price": gamma_exact_call(glm, opt)})
    else:
        raise WrongFamily(f"no dependence experiment for family {family}")
    prices = [row["price"] for row in rows]
    spread = max(prices) - min(prices)
    return {"family": family, "strike": opt.strike, "expiry": opt.expiry,
            "rows": rows, "spread": spread, "tolerance": tol,
            "equal_within_tolerance": spread <= tol * max(1.0, max(prices))}
