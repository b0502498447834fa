"""Call option valuation: Monte Carlo via the pricing kernel, one exact
pricer over the family's terminal law (`exact_call`; for now the Brownian,
Poisson and gamma families, whose old pricer names `brownian_exact_call`,
`poisson_exact_call` and `gamma_exact_call` remain as aliases of it), and the
parameter-dependence experiments (which parameter combinations option prices
actually identify).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.stats import norm

from .errors import ParamOutOfRange, QuadratureFailure, WrongFamily
from .exponents import Brownian, Gamma, Poisson
from .pricing import GlmSpec, asset_value, kernel_value
from .sampling import McResult, Rng, sample_increments

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

_MAX_TERMS = 1_000_000  # hard cap on the terms of a lattice-law series


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


def exact_call(glm: GlmSpec, opt: OptionSpec) -> float:
    """E[pi_T (S_T - K)^+] against the family's terminal law of X_T.

    A lattice law is summed from the first in-the-money atom; a density is
    integrated by adaptive quadrature from the log-moneyness threshold. The
    risk-aversion parameter stays in the integrand, so which parameters the
    price depends on is an outcome rather than an assumption. Families with
    no terminal law raise Unsupported.
    """
    t, strike = opt.expiry, opt.strike
    law = glm.model.terminal_law(t)
    log_k = math.log(strike) if strike > 0.0 else -math.inf
    log_pi_c = -glm.r * t - t * glm.model.psi(-glm.lam)
    log_s_c = (math.log(glm.s0) + (glm.r + glm.premium) * t
               - t * glm.model.psi(glm.sig))

    def integrand(x: float) -> float:
        # All factors assembled in log space: the quadrature probes x deep in
        # the tail where S alone would overflow.
        log_s = log_s_c + glm.sig * x
        if log_s <= log_k:
            return 0.0
        log_w = log_pi_c - glm.lam * x + law.log_density(x)
        if log_s < 600.0:
            return math.exp(log_w) * (math.exp(log_s) - strike)
        return math.exp(log_w + log_s) - strike * math.exp(log_w)

    # S_T(x) exceeds K only beyond the log-moneyness threshold.
    lo, hi = law.support
    lo = max(lo, (log_k - log_s_c) / glm.sig)
    tilt = glm.sig - glm.lam
    if law.lattice:
        start = math.ceil(lo)
        total, prev = 0.0, -math.inf
        for n in range(start, start + _MAX_TERMS):
            term = integrand(float(n))
            total += term
            # Past the peak of the tilted law (law times pi_T S_T, log-concave
            # for the lattice families) the terms fall at a shrinking ratio,
            # so the tail is of the order of the last term.
            tilted = law.log_density(float(n)) + tilt * n
            if tilted < prev and term <= 1e-12 * total:
                return total
            prev = tilted
        raise QuadratureFailure(f"call series not converged in {_MAX_TERMS} terms")
    # Breakpoints 8 standard deviations either side of the centre of the law
    # tilted by pi_T S_T put the bulk of the mass in a finite piece whatever
    # its width: a short expiry leaves it too narrow for quad's first nodes on
    # a long or infinite piece, which then return 0 with a tiny error.
    # They also keep an edge singularity (gamma shape below 1) out of the
    # infinite-range transform.
    centre = t * glm.model.psi_prime(tilt)
    width = 8.0 * math.sqrt(t * glm.model.psi_second(tilt))
    edges = sorted({lo, hi} | {p for p in (centre - width, centre + width) if lo < p < hi})
    value = err = 0.0
    for a, b in zip(edges, edges[1:]):
        v, e = integrate.quad(integrand, a, b, epsabs=1e-15, epsrel=1e-10, limit=500)
        value += v
        err += e
    if err > min(1e-9 * max(abs(value), 1e-3), 1e-8 * max(abs(value), 1e-6)):
        raise QuadratureFailure(f"call quadrature error {err:.2e}")
    return value


# Names kept for callers of the per-family pricers; each is exact_call.
brownian_exact_call = poisson_exact_call = gamma_exact_call = exact_call


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
            rows.append({"params": {"lambda": lam}, "price": exact_call(glm, opt)})
    elif family == "Poisson":
        tol = 1e-10 if tol is None else tol
        for m, lam in param_pairs:
            glm = GlmSpec(model=Poisson(m=m), r=0.02, lam=lam, sig=0.3, s0=1.0)
            rows.append({"params": {"m": m, "lambda": lam},
                         "price": exact_call(glm, opt)})
    elif family == "Gamma":
        tol = 1e-8 if tol is None else tol
        for m, lam, sig in param_pairs:
            glm = GlmSpec(model=Gamma(m=m), r=0.02, lam=lam, sig=sig, s0=1.0)
            rows.append({"params": {"m": m, "lambda": lam, "sigma": sig},
                         "price": exact_call(glm, opt)})
    else:
        raise WrongFamily(f"no dependence experiment for family {family}")
    prices = [row["price"] for row in rows]
    spread = max(prices) - min(prices)
    return {"family": family, "strike": opt.strike, "expiry": opt.expiry,
            "rows": rows, "spread": spread, "tolerance": tol,
            "equal_within_tolerance": spread <= tol * max(1.0, max(prices))}
