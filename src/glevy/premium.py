"""Excess-rate-of-return calculus for geometric Levy models.

The central object is R(lam, sig) = psi(sig) + psi(-lam) - psi(sig - lam),
the excess rate of return above the interest rate, together with its
foreign-exchange inverse, derivative/sign analysis, and an independent
evaluation route through the jump-measure representation
R = q*lam*sig + integral (e^{sig x} - 1)(1 - e^{-lam x}) nu(dx).

`premium_surface`, `premium_identity_check`, `premium_gradient` and
`premium_hessian_signs` evaluate each distinct psi (or psi', psi'') argument
once and combine the values in the order of the per-point formulas
(`risk_premium`, `inverse_fx_premium`), so their results equal theirs bit for bit.
"""
from __future__ import annotations

import math
from contextlib import suppress
from typing import Sequence

from .errors import DomainViolation, QuadratureFailure, Unsupported
from .exponents import LevyModel

__all__ = [
    "risk_premium",
    "inverse_fx_premium",
    "premium_identity_check",
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
    psi = model.psi
    a, b, c, d = psi(sig), psi(-lam), psi(sig - lam), psi(-sig)
    return (a + b - c) + (d + c - b) - a - d


def premium_via_levy_measure(model: LevyModel, lam: float, sig: float) -> float:
    """Numerical R(lam, sig) via the jump-measure representation.

    Independent of the closed-form route: atoms are summed (until the
    estimated tail falls below 1e-14 of the sum), densities integrated by
    adaptive quadrature. Where sig, -lam or sig - lam leaves the domain the
    integral diverges, and the checked psi raises DomainViolation.
    """
    nu = model.levy_measure()
    for a in (sig, -lam, sig - lam):
        model.psi(a)

    def integrand(x: float, log_w: float) -> float:
        a, b = sig * x, -lam * x
        if a < 50.0 and b < 50.0:
            # Accurate near x = 0 where the factors nearly cancel.
            return math.expm1(a) * -math.expm1(b) * math.exp(log_w)
        # Deep tail: one factor is huge and the weight tiny; expand the
        # product into four exponentials and fold the log-weight in, so no
        # intermediate overflows. In-domain parameters make every exponent
        # tend to -inf here.
        return (math.exp(a + log_w) - math.exp(log_w)
                - math.exp(a + b + log_w) + math.exp(b + log_w))

    # Tilt 0: a jump measure's atom weights fall from its first atom on, and
    # a term here underflows only when the whole sum is near underflow.
    value, err = nu.integrate(integrand, -math.inf, math.inf, 0.0, (0.0,))
    if err > 1e-8 * max(abs(value), 1.0):
        raise QuadratureFailure(
            f"premium quadrature error {err:.2e} exceeds tolerance for {model.family}")
    return nu.gaussian_q * lam * sig + value


def premium_gradient(model: LevyModel, lam: float, sig: float) -> tuple[float, float]:
    """(dR/dlam, dR/dsig), both strictly positive for lam, sig > 0."""
    at_diff = model.psi_prime(sig - lam)
    return at_diff - model.psi_prime(-lam), model.psi_prime(sig) - at_diff


def premium_hessian_signs(model: LevyModel, lam: float, sig: float) -> tuple[int, int]:
    """Signs of d2R/dsig2 and d2R/dlam2 from the analytic second derivative."""
    at_sig, at_diff = model.psi_second(sig), model.psi_second(sig - lam)
    d2_sig = at_sig - at_diff
    d2_lam = model.psi_second(-lam) - at_diff
    tol = 1e-12 * max(1.0, abs(at_sig))
    return _sign(d2_sig, tol), _sign(d2_lam, tol)


def _sign(x: float, tol: float) -> int:
    """0 when |x| < tol, else the sign of x."""
    return 0 if abs(x) < tol else (1 if x > 0 else -1)


def curvature_from_premium(model: LevyModel, sig: float) -> float:
    """Recover psi''(sig) as the mixed partial d2R/dlam dsig at lam -> 0+.

    Uses R(0, .) = 0 identically, so the lam-difference is one-sided at
    lam = h (lam must stay nonnegative).
    """
    h = _FD_SCALE * max(1.0, abs(sig))
    return (risk_premium(model, h, sig + h) - risk_premium(model, h, sig - h)) / (2.0 * h) / h


def _mixed_partial(model: LevyModel, lam: float, sig: float, h: float) -> float:
    """4-point stencil for d2R/dlam dsig."""
    return (risk_premium(model, lam + h, sig + h) - risk_premium(model, lam + h, sig - h)
            - risk_premium(model, lam - h, sig + h)
            + risk_premium(model, lam - h, sig - h)) / (4.0 * h * h)


_DEFAULT_GRID = (0.1, 0.2, 0.3)  # is_bilinear's lam and sig points
_BILINEAR_TOL = 1e-6  # is_bilinear's bound on the spread of the mixed partial


def is_bilinear(model: LevyModel) -> bool:
    """True iff the mixed partial of R is constant over the grid.

    Only geometric Brownian motion has a bilinear premium; every jump family
    fails on the grid. Grid points whose stencil leaves the model's domain
    are skipped.
    """
    values = []
    for lam in _DEFAULT_GRID:
        for sig in _DEFAULT_GRID:
            with suppress(DomainViolation):
                values.append(_mixed_partial(model, lam, sig, 1e-3))
    if len(values) < 2:
        raise Unsupported(model.family, "bilinearity scan (grid infeasible)")
    return max(values) - min(values) < _BILINEAR_TOL


def premium_surface(model: LevyModel, lams: Sequence[float],
                    sigs: Sequence[float]) -> list[tuple[float, float, float, float]]:
    """Row-major (lam, sig, R, R_tilde) rows over the grid."""
    lams, sigs, psi = list(lams), list(sigs), model.psi
    if not lams or not sigs:
        return []
    per_sig = [(sig, float(sig), psi(sig), psi(-sig)) for sig in sigs]
    rows = []
    for lam in lams:
        b, lam_f = psi(-lam), float(lam)
        for sig, sig_f, a, d in per_sig:
            c = psi(sig - lam)
            rows.append((lam_f, sig_f, a + b - c, d + c - b))
    return rows
