"""Excess-rate-of-return calculus for geometric Levy models.

The central object is R(lam, sig) = psi(sig) + psi(-lam) - psi(sig - lam),
the excess rate of return above the interest rate, together with its
foreign-exchange inverse, derivative/sign analysis, and an independent
evaluation route through the jump-measure representation
R = q*lam*sig + integral (e^{sig x} - 1)(1 - e^{-lam x}) nu(dx).

`premium_surface`, `premium_identity_check` and `premium_gradient` evaluate
each distinct psi (or psi') argument once and combine the values in the order
of the per-point formulas (`risk_premium`, `inverse_fx_premium`). The last two
equal them bit for bit; the surface evaluates psi on arrays, so it is within 8
ulps of their largest term. Across calls on one model this holds too, for
float arguments: the model's checked psi, psi' and psi'' keep their values
(see `exponents._checked`), so a grid of per-point calls runs each formula
once per distinct nonzero argument while the memo of 1024 values holds them.

The premium's shape is read from psi'' exactly: d2R/dlam dsig = psi''(sig - lam)
(`is_bilinear`), and d2R/dsig2 and d2R/dlam2 are psi''(sig) and psi''(-lam)
less it (`premium_hessian_signs`). `curvature_from_premium` is the one
finite-difference route, an independent check of psi''.
"""
from __future__ import annotations

import math
from contextlib import suppress
from typing import Sequence

from .errors import DomainViolation, QuadratureFailure, Unsupported
from .exponents import LevyModel, _reals

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
    """Exact signs of d2R/dsig2 = psi''(sig) - psi''(sig - lam) and
    d2R/dlam2 = psi''(-lam) - psi''(sig - lam), as ints."""
    at_sig, at_diff = model.psi_second(sig), model.psi_second(sig - lam)
    at_lam = model.psi_second(-lam)
    return (at_sig > at_diff) - (at_sig < at_diff), (at_lam > at_diff) - (at_lam < at_diff)


def curvature_from_premium(model: LevyModel, sig: float) -> float:
    """Recover psi''(sig) as the mixed partial d2R/dlam dsig at lam -> 0+.

    Uses R(0, .) = 0 identically, so the lam-difference is one-sided at
    lam = h (lam must stay nonnegative); its error is about h/d, d being sig's
    distance to the nearer inclusive domain limit. So h is at most d/1e4 and
    the lower limit's distance from 0, which keeps sig +- h, sig - 2h and -h
    inside; where none fits (sig at a limit), a point leaves the domain and
    psi raises DomainViolation.
    """
    dom = model.domain
    d = min(dom._hi - sig, sig - dom._lo)
    h = _FD_SCALE * max(1.0, abs(sig))
    if (fit := min(1e-4 * d, -dom._lo)) > 0.0:
        h = min(h, fit)
    return (risk_premium(model, h, sig + h) - risk_premium(model, h, sig - h)) / (2.0 * h) / h


_DEFAULT_GRID = (0.1, 0.2, 0.3)  # is_bilinear's lam and sig points


def is_bilinear(model: LevyModel) -> bool:
    """True iff the mixed partial d2R/dlam dsig = psi''(sig - lam) takes one
    value over the grid.

    Only geometric Brownian motion has a bilinear premium; every jump family
    fails on the grid. Grid points where R is undefined are skipped.
    """
    values = []
    for lam in _DEFAULT_GRID:
        for sig in _DEFAULT_GRID:
            with suppress(DomainViolation):
                risk_premium(model, lam, sig)
                values.append(model.psi_second(sig - lam))
    if len(values) < 2:
        raise Unsupported(model.family, "bilinearity scan (grid infeasible)")
    return min(values) == max(values)


def premium_surface(model: LevyModel, lams: Sequence[float],
                    sigs: Sequence[float]) -> list[tuple[float, float, float, float]]:
    """Row-major (lam, sig, R, R_tilde) float rows over the 1-d real grids, from psi on sig,
    -sig, -lam and the lam x sig matrix of sig - lam, formed in the inputs' dtype as
    the per-point formulas form it; it raises where they do, maybe naming another point."""
    lams, sigs, psi = _reals("lams", lams, 1), _reals("sigs", sigs, 1), model.psi
    if not lams.size or not sigs.size:
        return []
    a, d, b, c = psi(sigs), psi(-sigs), psi(-lams)[:, None], psi(sigs - lams[:, None])
    sig_fs = sigs.astype(float).tolist()
    return [(lam, sig, r, r_tilde) for lam, rs, r_tildes in
            zip(lams.astype(float).tolist(), (a + b - c).tolist(), (d + c - b).tolist())
            for sig, r, r_tilde in zip(sig_fs, rs, r_tildes)]
