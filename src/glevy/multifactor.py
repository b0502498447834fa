"""Vector models with independent Levy components and piecewise-constant
coefficient schedules.

The driver is a vector of independent scalar components; the exponent, the
premium and the kernel/asset exponentials all separate into per-component
sums; the kernel and asset values are `pricing._value` over them, so a model
of one `GlmSpec` gives its scalar values bit for bit. Coefficient schedules
are deterministic, bounded and piecewise constant (right-continuous), which
keeps the compensated exponential an honest martingale and makes the
stochastic integral an exact finite sum.

Each component, and each (interval, component) cell of a schedule, is a
`pricing.Component`. A `Schedule` holds read-only copies of its arrays, so it
cannot change after it has been checked. The domain check, the grid check and
the per-step coefficients and drifts are computed once per (model, schedule,
grid) and kept on the schedule for the next call with the same pair. The
money market, the integral of r up to each grid point and the integral of the
premium are one exact integral of a piecewise-constant function, `_integral`.
`submartingale_check` draws one increment per constant piece and streams its
draws: it keeps running sums, O(n) in memory for n paths.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, ParamOutOfRange
from .exponents import (Brownian, CompoundPoissonNormal, _check_fields, _finite, _nonnegative,
                         _param, _positive, _reals)
from .pricing import Component, _exp, _value
from .sampling import McResult, _check_count, sample_increments

__all__ = [
    "Component",
    "VectorGlm",
    "Schedule",
    "PricePath",
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

# A price or kernel path on the drivers' grid; it starts at s0 or 1, so it is
# not a driver Path.
PricePath = namedtuple("PricePath", "times values")


@dataclass(frozen=True)
class VectorGlm:
    """Multi-component pricing model with a scalar short rate."""

    components: tuple
    r: float = _param(_finite)
    s0: float = _param(_positive, 1.0)

    def __post_init__(self):
        try:
            comps = tuple(self.components)
        except TypeError:  # not iterable
            comps = ()
        if not comps or not all(isinstance(c, Component) for c in comps):
            raise ParamOutOfRange("components", self.components,
                                  "must be a nonempty sequence of Components")
        object.__setattr__(self, "components", comps)
        _check_fields(self)


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


def vector_kernel_value(vglm: VectorGlm, x, t: float):
    """pi_t at component driver values x (last axis indexes components)."""
    return _value(0.0, -vglm.r, [(c.model, -c.lam) for c in vglm.components], x, t, stacked=True)


def vector_asset_value(vglm: VectorGlm, x, t: float):
    """S_t at component driver values x, at the rate r + sum of R_i."""
    return _value(math.log(vglm.s0), vglm.r + vector_premium(vglm),
                  [(c.model, c.sig) for c in vglm.components], x, t, stacked=True)


@dataclass(frozen=True, eq=False)
class Schedule:
    """Piecewise-constant coefficients on [t_0=0, t_K]; right-continuous.

    breakpoints has K+1 entries for K intervals; r has K entries; lam and sig
    are K x ncomp. Evaluation beyond the last breakpoint extends the final
    interval's coefficients. The arrays are read-only copies of the inputs,
    and two schedules are equal when their arrays are.
    """

    breakpoints: np.ndarray
    r: np.ndarray
    lam: np.ndarray
    sig: np.ndarray
    # (vglm, grid, plan) of the last path built on this schedule; see _plan.
    _memo: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        bp, r = (np.array(_reals("schedule", a, 1), dtype=float)
                 for a in (self.breakpoints, self.r))
        lam, sig = (np.array(_reals("schedule", a), dtype=float, ndmin=2)
                    for a in (self.lam, self.sig))
        if not all(np.isfinite(a).all() for a in (bp, r, lam, sig)):
            raise ParamOutOfRange("schedule", (bp, r, lam, sig), "must be finite")
        if len(bp) < 2 or bp[0] != 0.0 or np.any(np.diff(bp) <= 0.0):
            raise ParamOutOfRange("breakpoints", bp, "must increase from 0")
        k = len(bp) - 1
        if len(r) != k or lam.shape[0] != k or sig.shape[0] != k:
            raise ParamOutOfRange("schedule", (len(r), lam.shape, sig.shape),
                                  f"{k} intervals require {k} coefficient rows")
        if lam.shape != sig.shape or lam.ndim > 2:
            raise ParamOutOfRange("schedule", (lam.shape, sig.shape),
                                  "lam and sig must have equal shapes, 1-d or 2-d")
        for name, a in (("breakpoints", bp), ("r", r), ("lam", lam), ("sig", sig)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __eq__(self, other):
        if not isinstance(other, Schedule):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in ("breakpoints", "r", "lam", "sig"))

    @property
    def n_intervals(self) -> int:
        return len(self.r)

    def interval_of(self, t):
        """Index of t's interval, or an index array for an array t; clipped to 0..K-1."""
        return np.clip(np.searchsorted(self.breakpoints, t, "right") - 1, 0, self.n_intervals - 1)


def _cells(vglm: VectorGlm, schedule: Schedule) -> list:
    """The Component of each (interval, component) cell of the schedule, one
    row per interval; building them checks each cell's domain."""
    if schedule.lam.shape[1] != len(vglm.components):
        raise ParamOutOfRange("schedule", schedule.lam.shape,
                              f"{len(vglm.components)} components need as many lam/sig columns")
    return [[Component(c.model, schedule.lam[k, i], schedule.sig[k, i])
             for i, c in enumerate(vglm.components)]
            for k in range(schedule.n_intervals)]


def _integral(schedule: Schedule, values: np.ndarray, t):
    """Exact integral over [0, t] of the piecewise-constant function with the
    given per-interval values (extended beyond the last breakpoint), for a
    time t >= 0 or an array of times: the integral up to the left end of t's
    interval plus that interval's value times the time since."""
    if np.ndim(t) == 0:
        t = _nonnegative("time", t)
    else:
        t = _reals("time", t)
        if not (ok := (0.0 <= t) & (t < math.inf)).all():  # False at NaN
            raise ParamOutOfRange("time", t[~ok][0].item(), "must be finite and >= 0")
    bp = schedule.breakpoints
    k = schedule.interval_of(t)
    at_left = np.concatenate(([0.0], np.cumsum(values[:-1] * np.diff(bp)[:-1])))
    return (at_left[k] + values[k] * (t - bp[k]))[()]


def money_market(schedule: Schedule, t):
    """B_t = exp(integral of r over [0, t]) at a time or an array of times; B_0 = 1."""
    growth = _integral(schedule, schedule.r, t)
    growth = growth if np.ndim(growth) else float(growth)  # a float keeps math.exp's bits
    return _exp(growth, "integral of r", growth, "B_t")


def _require_refining_grid(times: np.ndarray, schedule: Schedule) -> np.ndarray:
    """Interval index for each grid step [times[j], times[j+1])."""
    bp = schedule.breakpoints
    inside = bp[bp < times[-1] + 1e-12]
    b = inside[:, None]  # np.isclose(times, b, atol=1e-12) per breakpoint, inline
    matched = (np.abs(times - b) <= 1e-12 + 1e-5 * np.abs(b)).any(axis=1)
    if not matched.all():
        raise GridMismatch(f"breakpoints {inside[~matched]} not on the grid")
    return schedule.interval_of(times[:-1])


def _plan(vglm: VectorGlm, schedule: Schedule, times: np.ndarray) -> dict:
    """What the log asset ("sigma") and log kernel ("lambda") values need on
    a grid refining the schedule: per side, the coefficient and the drift*dt
    of each grid step (one row per component), the log value at 0 and the
    signed integral of r up to each grid point.

    The schedule keeps the plan of the last (vglm, grid) pair, matched by
    value, so repeated paths on one pair check and compute it once.
    """
    memo = schedule._memo
    if memo is not None and memo[0] == vglm and np.array_equal(memo[1], times):
        return memo[2]
    cells = _cells(vglm, schedule)
    idx = _require_refining_grid(times, schedule)
    dt = np.diff(times)
    cum_r = _integral(schedule, schedule.r, times)
    # Per-interval deterministic rates (interval x component), looked up per grid step.
    asset = np.array([[c.premium - c.model.psi(c.sig) for c in row] for row in cells])
    kernel = np.array([[-c.model.psi(-c.lam) for c in row] for row in cells])
    plan = {"sigma": (schedule.sig[idx].T, asset[idx].T * dt, math.log(vglm.s0), cum_r),
            "lambda": (-schedule.lam[idx].T, kernel[idx].T * dt, 0.0, -cum_r)}
    object.__setattr__(schedule, "_memo", (vglm, times.copy(), plan))
    return plan


def _schedule_path(vglm: VectorGlm, schedule: Schedule, driver_paths, which: str) -> PricePath:
    """Asset ("sigma") or kernel ("lambda") path on the drivers' grid. The
    stochastic integral of a piecewise-constant coefficient is the exact
    finite sum of coefficient times driver increment per grid step.
    """
    ncomp = len(vglm.components)
    if len(driver_paths) != ncomp:
        raise ParamOutOfRange("driver_paths", len(driver_paths),
                              f"need {ncomp} component paths")
    times = np.asarray(driver_paths[0].times, dtype=float)
    for p in driver_paths[1:]:
        if not np.array_equal(np.asarray(p.times), times):
            raise GridMismatch("driver paths must share one grid")
    coef, drift_dt, log0, cum_r = _plan(vglm, schedule, times)[which]
    log_vals = np.zeros(len(times))
    for i, p in enumerate(driver_paths):
        dx = np.diff(np.asarray(p.values, dtype=float))
        log_vals[1:] += np.cumsum(coef[i] * dx + drift_dt[i])
    return PricePath(times, _exp(log_vals + log0 + cum_r, "schedule", schedule, "the path"))


def schedule_asset_path(vglm: VectorGlm, schedule: Schedule, driver_paths) -> PricePath:
    """Price path S_t under the coefficient schedule, on the drivers' grid."""
    return _schedule_path(vglm, schedule, driver_paths, "sigma")


def schedule_kernel_path(vglm: VectorGlm, schedule: Schedule, driver_paths) -> PricePath:
    """Pricing kernel path pi_t under the coefficient schedule."""
    return _schedule_path(vglm, schedule, driver_paths, "lambda")


def integrated_premium(vglm: VectorGlm, schedule: Schedule, s: float, t: float) -> float:
    """Exact integral of the total excess rate of return over [s, t], 0 <= s <= t."""
    per_interval = np.array([sum(c.premium for c in row) for row in _cells(vglm, schedule)])
    if not _nonnegative("s", s) <= _nonnegative("t", t):
        raise ParamOutOfRange("(s, t)", (s, t), "must satisfy s <= t")
    return _integral(schedule, per_interval, t) - _integral(schedule, per_interval, s)


def submartingale_check(vglm: VectorGlm, schedule: Schedule, s: float, t: float,
                        n: int, rng) -> dict:
    """Monte Carlo verification that S/B is a submartingale on [s, t].

    Draws each component once per constant piece of [0, t] cut at s, the
    exact joint law of (S_s/B_s, S_t/B_t), compares E[S_t/B_t] against
    E[S_s/B_s], and checks the predicted ratio exp(integral of R over [s, t]).
    S carries B's factor e^{integral of r}, so S/B is formed from the
    coefficients and drifts alone and stays finite where B overflows.
    """
    if not _nonnegative("s", s) < _positive("t", t):
        raise ParamOutOfRange("(s, t)", (s, t), "need 0 <= s < t < inf")
    _check_count("n", n, 2)
    bp = schedule.breakpoints
    grid = np.unique(np.concatenate((bp[bp < t], [s, t])))

    j_s = int(np.argmin(np.abs(grid - s)))
    coef, drift_dt, log0, _ = _plan(vglm, schedule, grid)["sigma"]
    log_s, log_t = np.zeros(n), np.zeros(n)
    for i, c in enumerate(vglm.components):
        sub = rng.spawn(i)
        # One exact increment per constant piece; only the running log-value
        # sum and its value at s are kept.
        acc = np.zeros(n)
        for j, dtj in enumerate(np.diff(grid)):
            acc += coef[i, j] * sample_increments(c.model, float(dtj), n, sub) + drift_dt[i, j]
            if j + 1 == j_s:
                log_s += acc
        log_t += acc
    at_s, at_t = map(McResult.from_samples,
                     _exp(np.stack((log_s, log_t)) + log0, "(s, t)", (s, t), "S/B"))
    growth = float(integrated_premium(vglm, schedule, s, t))
    predicted_ratio = _exp(growth, "integral of R", growth, "the predicted ratio")
    combined_se = math.hypot(at_s.stderr, at_t.stderr)
    return {
        "mean_s": at_s.estimate, "stderr_s": at_s.stderr,
        "mean_t": at_t.estimate, "stderr_t": at_t.stderr,
        "predicted_ratio": predicted_ratio,
        "observed_ratio": at_t.estimate / at_s.estimate,
        "submartingale_ok": at_t.estimate >= at_s.estimate - 4.0 * combined_se,
        "n": n,
    }
