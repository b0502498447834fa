"""Seedable sampling of Levy increments, paths and Monte Carlo estimates.

Each family is sampled from its exact law at the requested step size (its
`LevyModel.increments`), so the functionals tested downstream carry no
discretization bias. Randomness comes
from counter-based Philox streams: the same (seed, stream) pair always yields
the same sequence, and distinct streams are statistically independent.
`Rng.spawn(k)` derives substream k from the whole (seed, stream, k) path, so
the substreams of one stream never overlap those of another.

A `Path` is an immutable (times, values) pair. `mc_expectation` calls its
payoff once per simulated path, as payoff(Path) -> float.
"""
from __future__ import annotations

import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

import numpy as np

from .errors import ParamOutOfRange, Unsupported
from .exponents import LevyModel, NegativeBinomial, VarianceGamma, _positive

__all__ = [
    "Rng",
    "Path",
    "McResult",
    "sample_increments",
    "simulate_path",
    "simulate_paths",
    "vg_dual_sample",
    "nb_dual_sample",
    "mc_expectation",
]

_MASK64 = (1 << 64) - 1
# Most jumps one logarithmic compound Poisson draw may take: their 2**27 int64
# values fill a 1 GiB buffer, and larger totals would allocate gigabytes.
_MAX_LOGSERIES_JUMPS = 2**27


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


@dataclass(frozen=True)
class McResult:
    """Monte Carlo estimate with its standard error and sample count."""

    estimate: float
    stderr: float
    n: int

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "McResult":
        """The sample mean and its standard error."""
        n = len(samples)
        return cls(float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(n)), n)


def _check_count(name: str, value, least: int = 0) -> None:
    try:
        count = operator.index(value)
    except TypeError:
        raise ParamOutOfRange(name, value, "must be an integer") from None
    if count < least:
        raise ParamOutOfRange(name, value, f"must be >= {least}")


def sample_increments(model: LevyModel, dt: float, size: int, rng: Rng) -> np.ndarray:
    """size iid draws of X_dt for the model's exact increment law."""
    _positive("dt", dt)
    _check_count("size", size)
    try:
        return model.increments(dt, size, rng.generator)
    except ValueError as e:  # numpy's samplers reject rates beyond about 9.2e18
        raise ParamOutOfRange("dt", dt, f"{model.family} sampler: {e}") from None


def simulate_paths(model: LevyModel, horizon: float, steps: int, n: int,
                   rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """(times, values) with values of shape (n, steps+1), cumulative sums of
    exact increments of size horizon/steps."""
    _positive("horizon", horizon)
    _check_count("steps", steps, 1)
    _check_count("n", n)
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

    GammaDifference: the family's sampler, kappa*gamma1 - kappa*gamma2 with
    kappa = 1/sqrt(2m); SubordinatedBM: W evaluated at an independent gamma
    clock with mean dt and variance dt/m.
    """
    model = VarianceGamma(m)
    _positive("dt", dt)
    _check_count("size", size)
    g = rng.generator
    if method == "GammaDifference":
        return model.increments(dt, size, g)
    if method == "SubordinatedBM":
        clock = g.gamma(m * dt, 1.0, size) / m
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
    NegativeBinomial(m, q)  # rejects m and q outside the family's parameter space
    _positive("dt", dt)
    _check_count("size", size)
    g = rng.generator
    try:
        if method == "LogarithmicCompoundPoisson":
            mu = -m * math.log1p(-q)
            counts = g.poisson(mu * dt, size)
            if counts.sum(dtype=float) > _MAX_LOGSERIES_JUMPS:
                raise ParamOutOfRange("(m, dt)", (m, dt),
                                      f"{method} sampler: more than {_MAX_LOGSERIES_JUMPS} jumps")
            # logseries draws one variate at a time, so one draw of every jump
            # consumes the stream as a draw per increment would; sum per increment.
            jumps = np.concatenate(([0], np.cumsum(g.logseries(q, counts.sum()))))
            return np.diff(jumps[np.cumsum(counts)], prepend=0).astype(float)
        if method == "GammaSubordinatedPoisson":
            intensity = m * q / (1.0 - q)
            clock = g.gamma(m * dt, 1.0, size) / m
            return g.poisson(intensity * clock).astype(float)
    except ValueError as e:  # numpy's Poisson sampler rejects rates beyond about 9.2e18
        raise ParamOutOfRange("(m, dt)", (m, dt), f"{method} sampler: {e}") from None
    raise Unsupported(method, "NB sampling method")


def mc_expectation(payoff: Callable[[Path], float], model: LevyModel,
                   horizon: float, steps: int, n: int, rng: Rng,
                   streams: int = 1) -> McResult:
    """Monte Carlo estimate of E[payoff(Path)] with its standard error.

    Deterministic for a fixed (seed, stream, n, streams): with streams > 1 the
    n samples are partitioned in fixed order across substreams rng.spawn(k).
    """
    _check_count("n", n, 2)
    _check_count("streams", streams, 1)
    samples = np.empty(n)
    bounds = np.linspace(0, n, streams + 1).astype(int)
    for k in range(streams):
        chunk = bounds[k + 1] - bounds[k]
        if chunk == 0:
            continue
        sub = rng.spawn(k) if streams > 1 else rng
        times, values = simulate_paths(model, horizon, steps, chunk, sub)
        # Each row a Path built in C without revalidation: the sampler's rows
        # start at (0, 0) by construction.
        rows = map(tuple.__new__, repeat(Path), zip(repeat(times), values))
        samples[bounds[k]:bounds[k + 1]] = np.fromiter(map(payoff, rows), float, chunk)
    return McResult.from_samples(samples)
