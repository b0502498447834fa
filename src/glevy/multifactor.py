"""Vector models with independent Levy components and piecewise-constant
coefficient schedules.

The driver is a vector of independent scalar components; the exponent, the
premium and the kernel/asset exponentials all separate into per-component
sums. Coefficient schedules are deterministic, bounded and piecewise constant
(right-continuous), which keeps the compensated exponential an honest
martingale and makes the stochastic integral an exact finite sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainViolation, GridMismatch, ParamOutOfRange
from .exponents import Brownian, CompoundPoissonNormal, LevyModel
from .premium import risk_premium
from .sampling import Path, _fast_path

__all__ = [
    "Component",
    "VectorGlm",
    "Schedule",
    "jump_diffusion",
    "vector_premium",
    "vector_kernel_value",
    "vector_asset_value",
    "money_market",
    "schedule_asset_path",
    "schedule_kernel_path",
    "integrated_premium",
    "submartingale_check",
]


@dataclass(frozen=True)
class Component:
    """One independent driver with its own risk aversion and volatility."""

    model: LevyModel
    lam: float
    sig: float

    def __post_init__(self):
        dom = self.model.domain
        for a in (self.sig, -self.lam, self.sig - self.lam):
            if not dom.admissible(a):
                raise DomainViolation(a, dom)

    @cached_property
    def premium(self) -> float:
        return risk_premium(self.model, self.lam, self.sig)


@dataclass(frozen=True)
class VectorGlm:
    """Multi-component pricing model with a scalar short rate."""

    components: tuple
    r: float
    s0: float = 1.0

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ParamOutOfRange("components", comps, "must be nonempty")
        if not math.isfinite(self.r):
            raise ParamOutOfRange("r", self.r, "must be finite")
        if not 0.0 < self.s0 < math.inf:
            raise ParamOutOfRange("s0", self.s0, "must be finite and > 0")
        object.__setattr__(self, "components", comps)


def jump_diffusion(m: float, s: float = 1.0, lam: float = 0.0, sig: float = 0.0,
                   beta: float = 0.0, theta: float = 0.0, r: float = 0.0,
                   s0: float = 1.0) -> VectorGlm:
    """Merton-style jump diffusion: Brownian component (lam, sig) plus a
    compound Poisson component with normal jumps (risk aversion beta,
    volatility theta)."""
    return VectorGlm(
        components=(Component(Brownian(), lam, sig),
                    Component(CompoundPoissonNormal(m=m, s=s), beta, theta)),
        r=r, s0=s0)


def vector_premium(vglm: VectorGlm) -> float:
    """Total excess rate of return: sum of per-component scalar premiums."""
    return sum(c.premium for c in vglm.components)


def _as_matrix(x, ncomp: int) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1] != ncomp:
        raise ParamOutOfRange("x", x.shape, f"last axis must have {ncomp} components")
    return x


def vector_kernel_value(vglm: VectorGlm, x, t: float):
    """pi_t at component driver values x (last axis indexes components)."""
    x = _as_matrix(x, len(vglm.components))
    log_pi = -vglm.r * t
    for i, c in enumerate(vglm.components):
        log_pi = log_pi - c.lam * x[..., i] - t * c.model.psi(-c.lam)
    return np.exp(log_pi)[()]


def vector_asset_value(vglm: VectorGlm, x, t: float):
    """S_t at component driver values x; product of scalar factors."""
    x = _as_matrix(x, len(vglm.components))
    log_s = math.log(vglm.s0) + vglm.r * t
    for i, c in enumerate(vglm.components):
        log_s = log_s + c.premium * t + c.sig * x[..., i] - t * c.model.psi(c.sig)
    return np.exp(log_s)[()]


@dataclass(frozen=True)
class Schedule:
    """Piecewise-constant coefficients on [t_0=0, t_K]; right-continuous.

    breakpoints has K+1 entries for K intervals; r has K entries; lam and sig
    are K x ncomp. Evaluation beyond the last breakpoint extends the final
    interval's coefficients.
    """

    breakpoints: np.ndarray
    r: np.ndarray
    lam: np.ndarray
    sig: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        r = np.asarray(self.r, dtype=float)
        lam = np.atleast_2d(np.asarray(self.lam, dtype=float))
        sig = np.atleast_2d(np.asarray(self.sig, dtype=float))
        if not all(np.isfinite(a).all() for a in (bp, r, lam, sig)):
            raise ParamOutOfRange("schedule", (bp, r, lam, sig), "must be finite")
        if bp[0] != 0.0 or np.any(np.diff(bp) <= 0.0):
            raise ParamOutOfRange("breakpoints", bp, "must increase from 0")
        k = len(bp) - 1
        if len(r) != k or lam.shape[0] != k or sig.shape[0] != k:
            raise ParamOutOfRange("schedule", (len(r), lam.shape, sig.shape),
                                  f"{k} intervals require {k} coefficient rows")
        if lam.shape != sig.shape:
            raise ParamOutOfRange("schedule", (lam.shape, sig.shape),
                                  "lam and sig must have equal shapes")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "sig", sig)

    @property
    def n_intervals(self) -> int:
        return len(self.r)

    @property
    def n_components(self) -> int:
        return self.lam.shape[1]

    def interval_of(self, t: float) -> int:
        k = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        return min(max(k, 0), self.n_intervals - 1)

    def validate_against(self, models) -> None:
        for k in range(self.n_intervals):
            for i, model in enumerate(models):
                dom = model.domain
                for a in (self.sig[k, i], -self.lam[k, i],
                          self.sig[k, i] - self.lam[k, i]):
                    if not dom.admissible(a):
                        raise DomainViolation(a, dom)

    @classmethod
    def from_dict(cls, d: dict) -> "Schedule":
        return cls(breakpoints=d["breakpoints"], r=d["r"],
                   lam=d["lambda"], sig=d["sigma"])

    def to_dict(self) -> dict:
        return {"breakpoints": self.breakpoints.tolist(), "r": self.r.tolist(),
                "lambda": self.lam.tolist(), "sigma": self.sig.tolist()}


def _integrate_piecewise(schedule: Schedule, values: np.ndarray, t: float) -> float:
    """Exact integral over [0, t] of a piecewise-constant function given by
    per-interval values (extended beyond the last breakpoint)."""
    bp = schedule.breakpoints
    total = 0.0
    for k in range(schedule.n_intervals):
        left = bp[k]
        right = bp[k + 1] if k < schedule.n_intervals - 1 else math.inf
        if t <= left:
            break
        total += values[k] * (min(t, right) - left)
    return total


def money_market(schedule: Schedule, t: float) -> float:
    """B_t = exp(integral of r over [0, t]); B_0 = 1."""
    if t < 0.0:
        raise ParamOutOfRange("t", t, "must be >= 0")
    return math.exp(_integrate_piecewise(schedule, schedule.r, t))


def _require_refining_grid(times: np.ndarray, schedule: Schedule) -> np.ndarray:
    """Interval index for each grid step [times[j], times[j+1])."""
    bp = schedule.breakpoints
    inside = bp[bp < times[-1] + 1e-12]
    b = inside[:, None]  # np.isclose(times, b, atol=1e-12) per breakpoint, inline
    matched = (np.abs(times - b) <= 1e-12 + 1e-5 * np.abs(b)).any(axis=1)
    if not matched.all():
        raise GridMismatch(f"breakpoints {inside[~matched]} not on the grid")
    return np.clip(np.searchsorted(bp, times[:-1], side="right") - 1, 0, schedule.n_intervals - 1)


def _schedule_log_values(vglm: VectorGlm, schedule: Schedule, times: np.ndarray,
                         comp_values: list[np.ndarray], which: str) -> np.ndarray:
    """Log asset ("sigma") or log kernel ("lambda") values on the grid.

    comp_values is one (n_paths, len(times)) matrix per component with
    X_0 = 0. The stochastic integral of a piecewise-constant coefficient is
    the exact finite sum of coefficient times driver increment per grid step.
    """
    schedule.validate_against([c.model for c in vglm.components])
    idx = _require_refining_grid(times, schedule)
    dt = np.diff(times)
    n_paths = comp_values[0].shape[0]

    log_vals = np.zeros((n_paths, len(times)))
    for i, c in enumerate(vglm.components):
        dx = np.diff(comp_values[i], axis=1)
        if which == "sigma":
            coef = schedule.sig[idx, i]
            # Per-interval deterministic rates, looked up per grid step.
            drift_k = np.array([
                risk_premium(c.model, schedule.lam[k, i], schedule.sig[k, i])
                - c.model.psi(schedule.sig[k, i])
                for k in range(schedule.n_intervals)])
        else:
            coef = -schedule.lam[idx, i]
            drift_k = np.array([-c.model.psi(-schedule.lam[k, i])
                                for k in range(schedule.n_intervals)])
        log_vals[:, 1:] += np.cumsum(coef * dx + drift_k[idx] * dt, axis=1)

    r_step = schedule.r[idx] * dt
    if which == "sigma":
        log_vals += math.log(vglm.s0)
        log_vals[:, 1:] += np.cumsum(r_step)
    else:
        log_vals[:, 1:] -= np.cumsum(r_step)
    return log_vals


def _driver_matrix(vglm: VectorGlm, driver_paths) -> tuple[np.ndarray, list[np.ndarray]]:
    ncomp = len(vglm.components)
    if len(driver_paths) != ncomp:
        raise ParamOutOfRange("driver_paths", len(driver_paths),
                              f"need {ncomp} component paths")
    times = np.asarray(driver_paths[0].times, dtype=float)
    for p in driver_paths[1:]:
        if not np.array_equal(np.asarray(p.times), times):
            raise GridMismatch("driver paths must share one grid")
    return times, [np.asarray(p.values, dtype=float)[None, :] for p in driver_paths]


def schedule_asset_path(vglm: VectorGlm, schedule: Schedule, driver_paths) -> Path:
    """Price path S_t under the coefficient schedule, on the drivers' grid."""
    times, comp_values = _driver_matrix(vglm, driver_paths)
    log_vals = _schedule_log_values(vglm, schedule, times, comp_values, "sigma")
    return _fast_path(times, np.exp(log_vals[0]))


def schedule_kernel_path(vglm: VectorGlm, schedule: Schedule, driver_paths) -> Path:
    """Pricing kernel path pi_t under the coefficient schedule."""
    times, comp_values = _driver_matrix(vglm, driver_paths)
    log_vals = _schedule_log_values(vglm, schedule, times, comp_values, "lambda")
    return _fast_path(times, np.exp(log_vals[0]))


def integrated_premium(vglm: VectorGlm, schedule: Schedule, s: float, t: float) -> float:
    """Exact integral of the total excess rate of return over [s, t]."""
    per_interval = np.array([
        sum(risk_premium(c.model, schedule.lam[k, i], schedule.sig[k, i])
            for i, c in enumerate(vglm.components))
        for k in range(schedule.n_intervals)])
    return (_integrate_piecewise(schedule, per_interval, t)
            - _integrate_piecewise(schedule, per_interval, s))


def submartingale_check(vglm: VectorGlm, schedule: Schedule, s: float, t: float,
                        n: int, rng, steps_per_year: int = 32) -> dict:
    """Monte Carlo verification that S/B is a submartingale on [s, t].

    Simulates component paths on a grid refining the breakpoints, compares
    E[S_t/B_t] against E[S_s/B_s], and checks the predicted ratio
    exp(integral of R over [s, t]).
    """
    from .sampling import sample_increments

    if not 0.0 <= s < t:
        raise ParamOutOfRange("(s, t)", (s, t), "need 0 <= s < t")
    steps = max(int(round(t * steps_per_year)), 4)
    grid = np.unique(np.concatenate([
        np.linspace(0.0, t, steps + 1),
        schedule.breakpoints[schedule.breakpoints <= t + 1e-12], [s, t]]))

    j_s = int(np.argmin(np.abs(grid - s)))
    b_s, b_t = money_market(schedule, s), money_market(schedule, t)

    comp_values = []
    dts = np.diff(grid)
    for i, c in enumerate(vglm.components):
        sub = rng.spawn(i)
        # Increments sampled per step (one row each) of the irregular grid, exact in law.
        inc = np.empty((len(dts), n))
        for j, dtj in enumerate(dts):
            inc[j] = sample_increments(c.model, float(dtj), n, sub)
        vals = np.zeros((n, len(grid)))
        np.cumsum(inc.T, axis=1, out=vals[:, 1:])
        comp_values.append(vals)

    log_s_vals = _schedule_log_values(vglm, schedule, grid, comp_values, "sigma")
    ratios_s = np.exp(log_s_vals[:, j_s]) / b_s
    ratios_t = np.exp(log_s_vals[:, -1]) / b_t

    mean_s, mean_t = ratios_s.mean(), ratios_t.mean()
    se_s = ratios_s.std(ddof=1) / math.sqrt(n)
    se_t = ratios_t.std(ddof=1) / math.sqrt(n)
    predicted_ratio = math.exp(integrated_premium(vglm, schedule, s, t))
    combined_se = math.sqrt(se_s**2 + se_t**2)
    return {
        "mean_s": float(mean_s), "stderr_s": float(se_s),
        "mean_t": float(mean_t), "stderr_t": float(se_t),
        "predicted_ratio": predicted_ratio,
        "observed_ratio": float(mean_t / mean_s),
        "submartingale_ok": bool(mean_t >= mean_s - 4.0 * combined_se),
        "n": n,
    }
