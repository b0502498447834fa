"""Excess-rate-of-return calculus for geometric Levy models.

The central object is R(lam, sig) = psi(sig) + psi(-lam) - psi(sig - lam),
the excess rate of return above the interest rate, together with its
foreign-exchange inverse, derivative/sign analysis, and an independent
evaluation route through the jump-measure representation
R = q*lam*sig + integral (e^{sig x} - 1)(1 - e^{-lam x}) nu(dx).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from scipy import integrate

from .errors import QuadratureFailure, Unsupported
from .exponents import (
    Brownian,
    CompoundPoissonNormal,
    Gamma,
    LevyModel,
    NegativeBinomial,
    Poisson,
    ScaledGamma,
    VarianceGamma,
)

__all__ = [
    "risk_premium",
    "inverse_fx_premium",
    "premium_identity_check",
    "LevyMeasureSpec",
    "levy_measure_of",
    "premium_via_levy_measure",
    "premium_gradient",
    "premium_hessian_signs",
    "curvature_from_premium",
    "is_bilinear",
    "premium_surface",
]

# Central finite differences: h balances truncation against roundoff for the
# ~1e-4 tolerances used by the curvature checks.
_FD_SCALE = 1e-5


def risk_premium(model: LevyModel, lam: float, sig: float) -> float:
    """Excess rate of return R(lam, sig).

    Positive and increasing in both arguments when lam, sig > 0. The bare
    function accepts any in-domain arguments (zero and negative values are
    needed for finite-difference probes and mirrored components).
    """
    return model.psi(sig) + model.psi(-lam) - model.psi(sig - lam)


def inverse_fx_premium(model: LevyModel, lam: float, sig: float) -> float:
    """Excess rate of return of the inverse exchange rate.

    R_tilde(lam, sig) = psi(-sig) + psi(sig - lam) - psi(-lam); positive
    exactly when sig > lam (Siegel sign rule).
    """
    return model.psi(-sig) + model.psi(sig - lam) - model.psi(-lam)


def premium_identity_check(model: LevyModel, lam: float, sig: float) -> float:
    """Residual of R + R_tilde = psi(sig) + psi(-sig); zero up to roundoff."""
    return (risk_premium(model, lam, sig) + inverse_fx_premium(model, lam, sig)
            - model.psi(sig) - model.psi(-sig))


@dataclass(frozen=True)
class LevyMeasureSpec:
    """Jump measure of a model, as point masses or a density on a half/full line.

    gaussian_q is the diffusion coefficient of the continuous part; drift_p is
    recorded for completeness but plays no role in the premium.
    """

    kind: str  # "PointMasses" | "Density"
    atoms: tuple = ()  # ((jump size, rate), ...) for PointMasses
    density: Callable[[float], float] | None = None
    log_density: Callable[[float], float] | None = None
    support: tuple[float, float] = (-math.inf, math.inf)
    gaussian_q: float = 0.0
    drift_p: float = 0.0


class _NBAtoms:
    """Lazy atom sequence for the negative binomial jump measure.

    Atoms sit at n = 1, 2, ... with rate m q^n / n; geometric decay lets the
    premium series be truncated with a certifiable tail bound.
    """

    def __init__(self, m: float, q: float):
        self.m, self.q = m, q

    def __iter__(self):
        n, qn = 1, self.q
        while True:
            yield (float(n), self.m * qn / n)
            n += 1
            qn *= self.q


def levy_measure_of(model: LevyModel) -> LevyMeasureSpec:
    """Jump-measure specification for the supported scalar families."""
    if isinstance(model, Brownian):
        return LevyMeasureSpec(kind="PointMasses", gaussian_q=1.0)
    if isinstance(model, Poisson):
        return LevyMeasureSpec(kind="PointMasses", atoms=((1.0, model.m),))
    if isinstance(model, NegativeBinomial):
        return LevyMeasureSpec(kind="PointMasses", atoms=_NBAtoms(model.m, model.q))
    if isinstance(model, Gamma):
        m = model.m
        return LevyMeasureSpec(kind="Density",
                               density=lambda x: m * math.exp(-x) / x,
                               log_density=lambda x: math.log(m) - x - math.log(x),
                               support=(0.0, math.inf))
    if isinstance(model, ScaledGamma):
        m, kappa = model.m, model.kappa
        return LevyMeasureSpec(kind="Density",
                               density=lambda x: m * math.exp(-x / kappa) / x,
                               log_density=lambda x: math.log(m) - x / kappa - math.log(x),
                               support=(0.0, math.inf))
    if isinstance(model, VarianceGamma):
        m = model.m
        b = math.sqrt(2.0 * m)
        return LevyMeasureSpec(kind="Density",
                               density=lambda x: m * math.exp(-b * abs(x)) / abs(x),
                               log_density=lambda x: math.log(m) - b * abs(x) - math.log(abs(x)),
                               support=(-math.inf, math.inf))
    if isinstance(model, CompoundPoissonNormal):
        m, s = model.m, model.s
        c = 1.0 / (s * math.sqrt(2.0 * math.pi))
        return LevyMeasureSpec(kind="Density",
                               density=lambda x: m * c * math.exp(-0.5 * (x / s) ** 2),
                               log_density=lambda x: math.log(m * c) - 0.5 * (x / s) ** 2,
                               support=(-math.inf, math.inf))
    raise Unsupported(model.family, "Levy measure")


def premium_via_levy_measure(model: LevyModel, lam: float, sig: float,
                             rtol: float = 1e-10, atol: float = 1e-14) -> float:
    """Numerical R(lam, sig) via the jump-measure representation.

    Independent of the closed-form route: atoms are summed (with truncation at
    relative tail weight 1e-14), densities integrated by adaptive quadrature.
    """
    spec = levy_measure_of(model)
    total = spec.gaussian_q * lam * sig

    def integrand_weight(x: float) -> float:
        return math.expm1(sig * x) * -math.expm1(-lam * x)

    if spec.kind == "PointMasses":
        partial = 0.0
        for x, rate in spec.atoms:
            term = integrand_weight(x) * rate
            partial += term
            if abs(term) < 1e-14 * max(abs(partial), atol):
                break
        return total + partial

    lo, hi = spec.support
    f = spec.density
    log_f = spec.log_density

    def integrand(x: float) -> float:
        a, b = sig * x, -lam * x
        if max(a, b) < 50.0:
            # Accurate near x = 0 where the factors nearly cancel.
            return integrand_weight(x) * f(x)
        # Deep tail: one factor is huge and the density tiny; expand the
        # product into four exponentials and fold the log-density in, so no
        # intermediate overflows. In-domain parameters make every exponent
        # tend to -inf here.
        lf = log_f(x)
        return (math.exp(a + lf) - math.exp(lf)
                - math.exp(a + b + lf) + math.exp(b + lf))

    pieces = []
    if lo < 0.0:
        pieces.append((lo, 0.0))
    if hi > 0.0:
        pieces.append((0.0, hi))
    value, err = 0.0, 0.0
    for a, b in pieces:
        v, e = integrate.quad(integrand, a, b, epsabs=atol, epsrel=rtol, limit=500)
        value += v
        err += e
    if err > 1e-8 * max(abs(value), 1.0):
        raise QuadratureFailure(
            f"premium quadrature error {err:.2e} exceeds tolerance for {model.family}")
    return total + value


def premium_gradient(model: LevyModel, lam: float, sig: float) -> tuple[float, float]:
    """(dR/dlam, dR/dsig), both strictly positive for lam, sig > 0."""
    d_lam = model.psi_prime(sig - lam) - model.psi_prime(-lam)
    d_sig = model.psi_prime(sig) - model.psi_prime(sig - lam)
    return d_lam, d_sig


def premium_hessian_signs(model: LevyModel, lam: float, sig: float) -> tuple[int, int]:
    """Signs of d2R/dsig2 and d2R/dlam2 from the analytic second derivative."""
    at_sig, at_diff = model.psi_second(sig), model.psi_second(sig - lam)
    d2_sig = at_sig - at_diff
    d2_lam = model.psi_second(-lam) - at_diff
    tol = 1e-12 * max(1.0, abs(at_sig))

    def sgn(x: float) -> int:
        return 0 if abs(x) < tol else (1 if x > 0 else -1)

    return sgn(d2_sig), sgn(d2_lam)


def curvature_from_premium(model: LevyModel, sig: float) -> float:
    """Recover psi''(sig) as the mixed partial d2R/dlam dsig at lam -> 0+.

    Uses R(0, .) = 0 identically, so the lam-difference is one-sided at
    lam = h (lam must stay nonnegative).
    """
    h = _FD_SCALE * max(1.0, abs(sig))
    k = _FD_SCALE * max(1.0, abs(sig))
    d_sig_at_h = (risk_premium(model, h, sig + k) - risk_premium(model, h, sig - k)) / (2.0 * k)
    return d_sig_at_h / h


def _mixed_partial(model: LevyModel, lam: float, sig: float, h: float) -> float:
    """4-point stencil for d2R/dlam dsig."""
    rp = risk_premium
    return (rp(model, lam + h, sig + h) - rp(model, lam + h, sig - h)
            - rp(model, lam - h, sig + h) + rp(model, lam - h, sig - h)) / (4.0 * h * h)


_DEFAULT_GRID = (0.1, 0.2, 0.3)


def is_bilinear(model: LevyModel, grid: Sequence[float] = _DEFAULT_GRID,
                tol: float = 1e-6) -> bool:
    """True iff the mixed partial of R is constant over the grid.

    Only geometric Brownian motion has a bilinear premium; every jump family
    fails on the default grid. Grid points are clipped to the feasible region
    of the model's domain.
    """
    h = 1e-3
    dom = model.domain
    values = []
    for lam in grid:
        for sig in grid:
            probes = (sig + h, sig - h, -lam - h, -lam + h,
                      sig - lam + 2 * h, sig - lam - 2 * h)
            if not all(dom.admissible(p) for p in probes):
                continue
            values.append(_mixed_partial(model, lam, sig, h))
    if len(values) < 2:
        raise Unsupported(model.family, "bilinearity scan (grid infeasible)")
    return max(values) - min(values) < tol


def premium_surface(model: LevyModel, lams: Sequence[float],
                    sigs: Sequence[float]) -> list[tuple[float, float, float, float]]:
    """Row-major (lam, sig, R, R_tilde) rows over the grid."""
    rows = []
    for lam in lams:
        for sig in sigs:
            rows.append((float(lam), float(sig),
                         risk_premium(model, lam, sig),
                         inverse_fx_premium(model, lam, sig)))
    return rows
