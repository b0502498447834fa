"""Seedable sampling of Levy increments, paths and Monte Carlo estimates.

Each family is sampled from its exact law at the requested step size, so the
functionals tested downstream carry no discretization bias. Randomness comes
from counter-based Philox streams: the same (seed, stream) pair always yields
the same sequence, and distinct streams are statistically independent.
`Rng.spawn(k)` derives substream k from the whole (seed, stream, k) path, so
the substreams of one stream never overlap those of another.

A `Path` is an immutable (times, values) pair. `mc_expectation` calls its
payoff once per simulated path, as payoff(Path) -> float.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

import numpy as np

from .errors import ParamOutOfRange, Unsupported
from .exponents import (
    AsymmetricVG,
    Brownian,
    CompoundPoissonNormal,
    Gamma,
    LevyModel,
    Mirrored,
    NegativeBinomial,
    Poisson,
    ScaledGamma,
    VarianceGamma,
)

__all__ = [
    "Rng",
    "Path",
    "McResult",
    "sample_increment",
    "sample_increments",
    "simulate_path",
    "simulate_paths",
    "vg_dual_sample",
    "nb_dual_sample",
    "mc_expectation",
]

_MASK64 = (1 << 64) - 1


class Rng:
    """Counter-based random stream identified by (seed, stream) and, for a
    substream, by the spawn_key of child indices below that stream.

    Not shareable between concurrent tasks; give each task its own stream.
    """

    def __init__(self, seed: int, stream: int = 0, spawn_key: tuple = ()):
        self.seed = int(seed)
        self.stream = int(stream)
        self.spawn_key = tuple(int(k) for k in spawn_key)
        if self.spawn_key:
            # A substream's key hashes its whole (seed, stream, k, ...) path,
            # so substreams of distinct streams never share draws.
            bits = np.random.Philox(np.random.SeedSequence(
                self.seed & _MASK64, spawn_key=(self.stream & _MASK64, *self.spawn_key)))
        else:
            bits = np.random.Philox(key=(self.seed & _MASK64) | ((self.stream & _MASK64) << 64))
        self.generator = np.random.Generator(bits)

    def spawn(self, k: int) -> "Rng":
        """Substream k >= 0 of this stream, fresh at every call."""
        return Rng(self.seed, self.stream, self.spawn_key + (k,))

    def __repr__(self):
        key = f", spawn_key={self.spawn_key}" if self.spawn_key else ""
        return f"Rng(seed={self.seed}, stream={self.stream}{key})"


class Path(namedtuple("Path", "times values")):
    """A simulated trajectory: an immutable (times, values) pair, the time grid
    starting at 0 and the values with X_0 = 0."""

    __slots__ = ()

    def __new__(cls, times, values):
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or not t.size:
            raise ParamOutOfRange("path", (t.shape, v.shape), "need equal nonempty 1-d shapes")
        if t[0] != 0.0 or v[0] != 0.0:
            raise ParamOutOfRange("path", (t[0], v[0]), "must start at (0, 0)")
        return tuple.__new__(cls, (t, v))

    def __reduce__(self):
        # Rebuilt without revalidation: price and kernel paths start at s0 or 1.
        return _fast_path, tuple(self)


@dataclass(frozen=True)
class McResult:
    """Monte Carlo estimate with its standard error and sample count."""

    estimate: float
    stderr: float
    n: int


def sample_increments(model: LevyModel, dt: float, size: int, rng: Rng) -> np.ndarray:
    """size iid draws of X_dt for the model's exact increment law."""
    if not dt > 0.0:
        raise ParamOutOfRange("dt", dt, "must be > 0")
    g = rng.generator
    if isinstance(model, Mirrored):
        return -sample_increments(model.base, dt, size, rng)
    if isinstance(model, Brownian):
        return g.normal(0.0, math.sqrt(dt), size)
    if isinstance(model, Poisson):
        return g.poisson(model.m * dt, size).astype(float)
    if isinstance(model, CompoundPoissonNormal):
        # Sum of N(0, s^2) jumps, count Poisson(m dt): conditionally normal
        # with variance s^2 * count.
        counts = g.poisson(model.m * dt, size)
        return g.normal(0.0, 1.0, size) * model.s * np.sqrt(counts)
    if isinstance(model, Gamma):
        # numpy's gamma sampler (Marsaglia-Tsang rejection with the shape<1
        # boost) is exact for every shape, including shape = m*dt < 1.
        return g.gamma(model.m * dt, 1.0, size)
    if isinstance(model, ScaledGamma):
        return model.kappa * g.gamma(model.m * dt, 1.0, size)
    if isinstance(model, VarianceGamma):
        shape = model.m * dt
        return (g.gamma(shape, 1.0, size) - g.gamma(shape, 1.0, size)) / math.sqrt(2.0 * model.m)
    if isinstance(model, AsymmetricVG):
        shape = model.m * dt
        return model.kappa1 * g.gamma(shape, 1.0, size) - model.kappa2 * g.gamma(shape, 1.0, size)
    if isinstance(model, NegativeBinomial):
        return g.negative_binomial(model.m * dt, 1.0 - model.q, size).astype(float)
    raise Unsupported(model.family, "sampling")


def sample_increment(model: LevyModel, dt: float, rng: Rng) -> float:
    """One draw distributed as X_dt."""
    return float(sample_increments(model, dt, 1, rng)[0])


def simulate_paths(model: LevyModel, horizon: float, steps: int, n: int,
                   rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """(times, values) with values of shape (n, steps+1), cumulative sums of
    exact increments of size horizon/steps."""
    if not horizon > 0.0:
        raise ParamOutOfRange("horizon", horizon, "must be > 0")
    if steps < 1:
        raise ParamOutOfRange("steps", steps, "must be >= 1")
    dt = horizon / steps
    inc = sample_increments(model, dt, n * steps, rng).reshape(n, steps)
    values = np.zeros((n, steps + 1))
    np.cumsum(inc, axis=1, out=values[:, 1:])
    times = np.linspace(0.0, horizon, steps + 1)
    return times, values


def simulate_path(model: LevyModel, horizon: float, steps: int, rng: Rng) -> Path:
    times, values = simulate_paths(model, horizon, steps, 1, rng)
    return Path(times=times, values=values[0])


def vg_dual_sample(m: float, dt: float, rng: Rng, method: str = "GammaDifference",
                   size: int = 1) -> np.ndarray:
    """Variance gamma increments by either of the two equivalent constructions.

    GammaDifference: (gamma1 - gamma2)/sqrt(2m); SubordinatedBM: W evaluated at
    an independent gamma clock with mean dt and variance dt/m.
    """
    g = rng.generator
    shape = m * dt
    if method == "GammaDifference":
        return (g.gamma(shape, 1.0, size) - g.gamma(shape, 1.0, size)) / math.sqrt(2.0 * m)
    if method == "SubordinatedBM":
        clock = g.gamma(shape, 1.0, size) / m
        return g.normal(0.0, 1.0, size) * np.sqrt(clock)
    raise Unsupported(method, "VG sampling method")


def nb_dual_sample(m: float, q: float, dt: float, rng: Rng,
                   method: str = "LogarithmicCompoundPoisson",
                   size: int = 1) -> np.ndarray:
    """Negative binomial increments by either of the two constructions.

    LogarithmicCompoundPoisson: Poisson(-m ln(1-q) dt) many logarithmic(q)
    jumps. GammaSubordinatedPoisson: Poisson with intensity m q/(1-q) run on a
    gamma clock with mean dt.
    """
    g = rng.generator
    if method == "LogarithmicCompoundPoisson":
        mu = -m * math.log1p(-q)
        counts = g.poisson(mu * dt, size)
        # logseries draws one variate at a time, so one draw of every jump
        # consumes the stream as a draw per increment would; sum per increment.
        jumps = np.concatenate(([0], np.cumsum(g.logseries(q, counts.sum()))))
        return np.diff(jumps[np.cumsum(counts)], prepend=0).astype(float)
    if method == "GammaSubordinatedPoisson":
        intensity = m * q / (1.0 - q)
        clock = g.gamma(m * dt, 1.0, size) / m
        return g.poisson(intensity * clock).astype(float)
    raise Unsupported(method, "NB sampling method")


def _fast_path(times: np.ndarray, values: np.ndarray) -> Path:
    # Bypasses Path validation. Driver paths from the samplers satisfy it by
    # construction; price and kernel paths reuse the container but start at
    # s0 or 1 rather than 0.
    return tuple.__new__(Path, (times, values))


def mc_expectation(payoff: Callable[[Path], float], model: LevyModel,
                   horizon: float, steps: int, n: int, rng: Rng,
                   streams: int = 1) -> McResult:
    """Monte Carlo estimate of E[payoff(Path)] with its standard error.

    Deterministic for a fixed (seed, stream, n, streams): with streams > 1 the
    n samples are partitioned in fixed order across substreams rng.spawn(k).
    """
    if n < 2:
        raise ParamOutOfRange("n", n, "must be >= 2")
    samples = np.empty(n)
    bounds = np.linspace(0, n, streams + 1).astype(int)
    for k in range(streams):
        chunk = bounds[k + 1] - bounds[k]
        if chunk == 0:
            continue
        sub = rng.spawn(k) if streams > 1 else rng
        times, values = simulate_paths(model, horizon, steps, chunk, sub)
        rows = map(tuple.__new__, repeat(Path), zip(repeat(times), values))  # as _fast_path, in C
        samples[bounds[k]:bounds[k + 1]] = np.fromiter(map(payoff, rows), float, chunk)
    est = float(samples.mean())
    stderr = float(samples.std(ddof=1) / math.sqrt(n))
    return McResult(estimate=est, stderr=stderr, n=n)
