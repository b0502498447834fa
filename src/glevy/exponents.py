"""Levy model families: everything the library knows about one process X.

Each family knows its cumulant function psi (with E[exp(a*X_t)] = exp(t*psi(a))),
its first two analytic derivatives, the open interval of admissible
arguments, the exact law of its increments (`increments`), its jump
measure (`levy_measure`) and, where it has a closed form, the law of X_t
(`terminal_law`). All model objects are immutable and safe to share
between threads. A model's admissible interval is fixed at construction
(built once, on first use, then reused by every evaluation); NaN and +-inf
are never admissible.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DomainViolation, ParamOutOfRange, Unsupported

__all__ = [
    "Interval",
    "LevyModel",
    "Brownian",
    "Poisson",
    "CompoundPoissonNormal",
    "Gamma",
    "ScaledGamma",
    "VarianceGamma",
    "AsymmetricVG",
    "NegativeBinomial",
    "Mirrored",
    "FAMILIES",
    "LevyMeasureSpec",
    "TerminalLaw",
    "make_model",
    "mirror",
]

# Relative margin kept between an evaluation point and a finite endpoint of
# the admissible interval; endpoints themselves are excluded.
DOMAIN_MARGIN = 1e-9


@dataclass(frozen=True)
class Interval:
    """Open interval of admissible exponent arguments; always contains 0."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (self.lower < 0.0 < self.upper):
            raise ParamOutOfRange("interval", (self.lower, self.upper),
                                  "must satisfy lower < 0 < upper")
        # Inclusive limits of the admissible set: a relative margin inside a
        # finite endpoint, every finite float beyond an infinite one.
        lo, hi = self.lower, self.upper
        object.__setattr__(self, "_lo", -sys.float_info.max if math.isinf(lo)
                           else lo + DOMAIN_MARGIN * max(1.0, abs(lo)))
        object.__setattr__(self, "_hi", sys.float_info.max if math.isinf(hi)
                           else hi - DOMAIN_MARGIN * max(1.0, abs(hi)))

    def admissible(self, alpha: float) -> bool:
        """Strict interior test with a safety margin at finite endpoints."""
        return self._lo <= alpha <= self._hi

    def mirrored(self) -> "Interval":
        return Interval(-self.upper, -self.lower)

    def __str__(self):
        return f"({self.lower}, {self.upper})"


_REAL_LINE = Interval(-math.inf, math.inf)


def _positive(name: str, value) -> float:
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ParamOutOfRange(name, value, "must be finite and > 0")
    return value


def _finite(name: str, value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ParamOutOfRange(name, value, "must be finite")
    return value


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


@dataclass(frozen=True)
class TerminalLaw:
    """Law of X_t: the log pdf, or the log pmf on the integers when lattice
    is set, with its support (lo, hi)."""

    log_density: Callable[[float], float]
    support: tuple[float, float] = (-math.inf, math.inf)
    lattice: bool = False


class _NBAtoms:
    """Lazy atom sequence for the negative binomial jump measure.

    Atoms sit at n = 1, 2, ... with rate m q^n / n and never end; a consumer
    stops on its own test (premium_via_levy_measure stops once a term falls
    below 1e-14 of the running sum).
    """

    def __init__(self, m: float, q: float):
        self.m, self.q = m, q

    def __iter__(self):
        n, qn = 1, self.q
        while True:
            yield (float(n), self.m * qn / n)
            n += 1
            qn *= self.q


class _NegatedAtoms:
    """The atoms of a reflected measure, negated lazily (NB atoms never end)."""

    def __init__(self, atoms):
        self.atoms = atoms

    def __iter__(self):
        return ((-x, rate) for x, rate in self.atoms)


@dataclass(frozen=True)
class LevyModel:
    """Base class; concrete families implement the closed-form exponent, the
    exact increment law and, where known, the jump measure."""

    @property
    def family(self) -> str:
        return type(self).__name__

    @property
    def domain(self) -> Interval:
        raise NotImplementedError

    def _check(self, alpha: float) -> float:
        alpha = float(alpha)
        dom = self.domain
        if not dom.admissible(alpha):
            raise DomainViolation(alpha, dom)
        return alpha

    def psi(self, alpha):
        raise NotImplementedError

    def psi_prime(self, alpha):
        raise NotImplementedError

    def psi_second(self, alpha):
        raise NotImplementedError

    def increments(self, dt: float, size: int, g: np.random.Generator) -> np.ndarray:
        """size iid draws of X_dt from the exact increment law, drawn from g."""
        raise Unsupported(self.family, "sampling")

    def levy_measure(self) -> LevyMeasureSpec:
        """The jump measure nu and Gaussian coefficient of X."""
        raise Unsupported(self.family, "Levy measure")

    def terminal_law(self, t: float) -> TerminalLaw:
        """The law of X_t, for t > 0."""
        raise Unsupported(self.family, "terminal law")

    def params(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass(frozen=True)
class Brownian(LevyModel):
    """Standard Brownian motion: psi(a) = a^2/2."""

    domain = _REAL_LINE

    def psi(self, alpha):
        alpha = self._check(alpha)
        return 0.5 * alpha * alpha

    def psi_prime(self, alpha):
        return self._check(alpha)

    def psi_second(self, alpha):
        self._check(alpha)
        return 1.0

    def increments(self, dt, size, g):
        return g.normal(0.0, math.sqrt(dt), size)

    def levy_measure(self):
        return LevyMeasureSpec(kind="PointMasses", gaussian_q=1.0)

    def terminal_law(self, t):
        t = _positive("t", t)
        c = -0.5 * math.log(2.0 * math.pi * t)
        return TerminalLaw(lambda x: c - 0.5 * x * x / t)


@dataclass(frozen=True)
class Poisson(LevyModel):
    """Poisson counting process with jump rate m: psi(a) = m(e^a - 1)."""

    m: float

    def __post_init__(self):
        object.__setattr__(self, "m", _positive("m", self.m))

    domain = _REAL_LINE

    def psi(self, alpha):
        alpha = self._check(alpha)
        return self.m * math.expm1(alpha)

    def psi_prime(self, alpha):
        alpha = self._check(alpha)
        return self.m * math.exp(alpha)

    def psi_second(self, alpha):
        alpha = self._check(alpha)
        return self.m * math.exp(alpha)

    def increments(self, dt, size, g):
        return g.poisson(self.m * dt, size).astype(float)

    def levy_measure(self):
        return LevyMeasureSpec(kind="PointMasses", atoms=((1.0, self.m),))

    def terminal_law(self, t):
        mt = self.m * _positive("t", t)
        log_mt = math.log(mt)
        return TerminalLaw(lambda n: n * log_mt - mt - math.lgamma(n + 1.0),
                           support=(0.0, math.inf), lattice=True)


@dataclass(frozen=True)
class CompoundPoissonNormal(LevyModel):
    """Compound Poisson, rate m, mean-zero normal jumps with std s.

    psi(a) = m(e^{s^2 a^2 / 2} - 1).
    """

    m: float
    s: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "m", _positive("m", self.m))
        object.__setattr__(self, "s", _positive("s", self.s))

    domain = _REAL_LINE

    def psi(self, alpha):
        alpha = self._check(alpha)
        return self.m * math.expm1(0.5 * self.s**2 * alpha * alpha)

    def psi_prime(self, alpha):
        alpha = self._check(alpha)
        s2 = self.s**2
        return self.m * s2 * alpha * math.exp(0.5 * s2 * alpha * alpha)

    def psi_second(self, alpha):
        alpha = self._check(alpha)
        s2 = self.s**2
        return self.m * s2 * (1.0 + s2 * alpha * alpha) * math.exp(0.5 * s2 * alpha * alpha)

    def increments(self, dt, size, g):
        # Sum of N(0, s^2) jumps, count Poisson(m dt): conditionally normal
        # with variance s^2 * count.
        counts = g.poisson(self.m * dt, size)
        return g.normal(0.0, 1.0, size) * self.s * np.sqrt(counts)

    def levy_measure(self):
        m, s = self.m, self.s
        c = 1.0 / (s * math.sqrt(2.0 * math.pi))
        return LevyMeasureSpec(kind="Density",
                               density=lambda x: m * c * math.exp(-0.5 * (x / s) ** 2),
                               log_density=lambda x: math.log(m * c) - 0.5 * (x / s) ** 2,
                               support=(-math.inf, math.inf))


@dataclass(frozen=True)
class Gamma(LevyModel):
    """Standard gamma process with growth rate m: psi(a) = -m ln(1 - a), a < 1."""

    m: float

    def __post_init__(self):
        object.__setattr__(self, "m", _positive("m", self.m))

    @cached_property
    def domain(self) -> Interval:
        return Interval(-math.inf, 1.0)

    def psi(self, alpha):
        alpha = self._check(alpha)
        return -self.m * math.log1p(-alpha)

    def psi_prime(self, alpha):
        alpha = self._check(alpha)
        return self.m / (1.0 - alpha)

    def psi_second(self, alpha):
        alpha = self._check(alpha)
        return self.m / (1.0 - alpha) ** 2

    def increments(self, dt, size, g):
        # numpy's gamma sampler (Marsaglia-Tsang rejection with the shape<1
        # boost) is exact for every shape, including shape = m*dt < 1.
        return g.gamma(self.m * dt, 1.0, size)

    def levy_measure(self):
        m = self.m
        return LevyMeasureSpec(kind="Density",
                               density=lambda x: m * math.exp(-x) / x,
                               log_density=lambda x: math.log(m) - x - math.log(x),
                               support=(0.0, math.inf))

    def terminal_law(self, t):
        shape = self.m * _positive("t", t)
        c = -math.lgamma(shape)
        return TerminalLaw(lambda x: c + (shape - 1.0) * math.log(x) - x,
                           support=(0.0, math.inf))


@dataclass(frozen=True)
class ScaledGamma(LevyModel):
    """Gamma process scaled by kappa: psi(a) = -m ln(1 - a*kappa), a < 1/kappa."""

    m: float
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "m", _positive("m", self.m))
        object.__setattr__(self, "kappa", _positive("kappa", self.kappa))

    @cached_property
    def domain(self) -> Interval:
        return Interval(-math.inf, 1.0 / self.kappa)

    def psi(self, alpha):
        alpha = self._check(alpha)
        return -self.m * math.log1p(-alpha * self.kappa)

    def psi_prime(self, alpha):
        alpha = self._check(alpha)
        return self.m * self.kappa / (1.0 - alpha * self.kappa)

    def psi_second(self, alpha):
        alpha = self._check(alpha)
        return self.m * self.kappa**2 / (1.0 - alpha * self.kappa) ** 2

    def increments(self, dt, size, g):
        return self.kappa * g.gamma(self.m * dt, 1.0, size)

    def levy_measure(self):
        m, kappa = self.m, self.kappa
        return LevyMeasureSpec(kind="Density",
                               density=lambda x: m * math.exp(-x / kappa) / x,
                               log_density=lambda x: math.log(m) - x / kappa - math.log(x),
                               support=(0.0, math.inf))


@dataclass(frozen=True)
class VarianceGamma(LevyModel):
    """Symmetric variance gamma with rate m: psi(a) = -m ln(1 - a^2/(2m))."""

    m: float

    def __post_init__(self):
        object.__setattr__(self, "m", _positive("m", self.m))

    @cached_property
    def domain(self) -> Interval:
        b = math.sqrt(2.0 * self.m)
        return Interval(-b, b)

    def psi(self, alpha):
        alpha = self._check(alpha)
        return -self.m * math.log1p(-alpha * alpha / (2.0 * self.m))

    def psi_prime(self, alpha):
        alpha = self._check(alpha)
        return alpha / (1.0 - alpha * alpha / (2.0 * self.m))

    def psi_second(self, alpha):
        alpha = self._check(alpha)
        u = 1.0 - alpha * alpha / (2.0 * self.m)
        return (1.0 + alpha * alpha / (2.0 * self.m)) / (u * u)

    def increments(self, dt, size, g):
        shape = self.m * dt
        return (g.gamma(shape, 1.0, size) - g.gamma(shape, 1.0, size)) / math.sqrt(2.0 * self.m)

    def levy_measure(self):
        m = self.m
        b = math.sqrt(2.0 * m)
        return LevyMeasureSpec(kind="Density",
                               density=lambda x: m * math.exp(-b * abs(x)) / abs(x),
                               log_density=lambda x: math.log(m) - b * abs(x) - math.log(abs(x)),
                               support=(-math.inf, math.inf))


@dataclass(frozen=True)
class AsymmetricVG(LevyModel):
    """Drifted variance gamma: psi(a) = -m ln(1 - (mu/m) a - (s^2/2m) a^2).

    Equivalently kappa1*gamma1_t - kappa2*gamma2_t with
    kappa_{1,2} = (+-mu + sqrt(mu^2 + 2 m s^2)) / (2m).
    """

    m: float
    mu: float
    s: float

    def __post_init__(self):
        object.__setattr__(self, "m", _positive("m", self.m))
        object.__setattr__(self, "mu", _finite("mu", self.mu))
        object.__setattr__(self, "s", _positive("s", self.s))

    @property
    def kappa1(self) -> float:
        return (self.mu + math.sqrt(self.mu**2 + 2.0 * self.m * self.s**2)) / (2.0 * self.m)

    @property
    def kappa2(self) -> float:
        return (-self.mu + math.sqrt(self.mu**2 + 2.0 * self.m * self.s**2)) / (2.0 * self.m)

    @cached_property
    def domain(self) -> Interval:
        return Interval(-1.0 / self.kappa2, 1.0 / self.kappa1)

    def _u(self, alpha: float) -> float:
        return 1.0 - (self.mu / self.m) * alpha - (self.s**2 / (2.0 * self.m)) * alpha * alpha

    def psi(self, alpha):
        alpha = self._check(alpha)
        return -self.m * math.log(self._u(alpha))

    def psi_prime(self, alpha):
        alpha = self._check(alpha)
        return (self.mu + self.s**2 * alpha) / self._u(alpha)

    def psi_second(self, alpha):
        alpha = self._check(alpha)
        u = self._u(alpha)
        v = self.mu + self.s**2 * alpha
        return (self.s**2 * u + v * v / self.m) / (u * u)

    def increments(self, dt, size, g):
        shape = self.m * dt
        return self.kappa1 * g.gamma(shape, 1.0, size) - self.kappa2 * g.gamma(shape, 1.0, size)


@dataclass(frozen=True)
class NegativeBinomial(LevyModel):
    """Negative binomial process: psi(a) = m ln((1-q)/(1 - q e^a)), a < ln(1/q)."""

    m: float
    q: float

    def __post_init__(self):
        object.__setattr__(self, "m", _positive("m", self.m))
        q = float(self.q)
        if not 0.0 < q < 1.0:
            raise ParamOutOfRange("q", q, "must lie in (0, 1)")
        object.__setattr__(self, "q", q)

    @cached_property
    def domain(self) -> Interval:
        return Interval(-math.inf, math.log(1.0 / self.q))

    def psi(self, alpha):
        alpha = self._check(alpha)
        return self.m * (math.log1p(-self.q) - math.log1p(-self.q * math.exp(alpha)))

    def psi_prime(self, alpha):
        alpha = self._check(alpha)
        qe = self.q * math.exp(alpha)
        return self.m * qe / (1.0 - qe)

    def psi_second(self, alpha):
        alpha = self._check(alpha)
        qe = self.q * math.exp(alpha)
        return self.m * qe / (1.0 - qe) ** 2

    def increments(self, dt, size, g):
        return g.negative_binomial(self.m * dt, 1.0 - self.q, size).astype(float)

    def levy_measure(self):
        return LevyMeasureSpec(kind="PointMasses", atoms=_NBAtoms(self.m, self.q))


@dataclass(frozen=True)
class Mirrored(LevyModel):
    """The process -X_t of a base model; psi_mirror(a) = psi_base(-a)."""

    base: LevyModel

    @property
    def family(self) -> str:
        return f"Mirrored[{self.base.family}]"

    @cached_property
    def domain(self) -> Interval:
        return self.base.domain.mirrored()

    def psi(self, alpha):
        return self.base.psi(-float(alpha))

    def psi_prime(self, alpha):
        return -self.base.psi_prime(-float(alpha))

    def psi_second(self, alpha):
        return self.base.psi_second(-float(alpha))

    def increments(self, dt, size, g):
        return -self.base.increments(dt, size, g)

    def levy_measure(self):
        spec = self.base.levy_measure()
        f, log_f = spec.density, spec.log_density
        lo, hi = spec.support
        return replace(
            spec, atoms=_NegatedAtoms(spec.atoms),
            density=None if f is None else lambda x: f(-x),
            log_density=None if log_f is None else lambda x: log_f(-x),
            support=(-hi, -lo), drift_p=-spec.drift_p)

    def params(self) -> dict:
        return self.base.params()


FAMILIES = {
    "Brownian": Brownian,
    "Poisson": Poisson,
    "CompoundPoissonNormal": CompoundPoissonNormal,
    "Gamma": Gamma,
    "ScaledGamma": ScaledGamma,
    "VarianceGamma": VarianceGamma,
    "AsymmetricVG": AsymmetricVG,
    "NegativeBinomial": NegativeBinomial,
}

# Families whose exponent is even in alpha; their mirror is themselves.
_SYMMETRIC = (Brownian, CompoundPoissonNormal, VarianceGamma)


def make_model(family: str, params: dict | None = None, **kw) -> LevyModel:
    """Build a validated model from a family name and parameter mapping."""
    if family == "JumpDiffusion":
        raise Unsupported(family, "scalar construction (use multifactor.jump_diffusion)")
    try:
        cls = FAMILIES[family]
    except KeyError:
        raise Unsupported(str(family), "family") from None
    merged = dict(params or {})
    merged.update(kw)
    return cls(**merged)


def mirror(model: LevyModel) -> LevyModel:
    """Model of the reflected process -X_t."""
    if isinstance(model, _SYMMETRIC):
        return model
    if isinstance(model, Mirrored):
        return model.base
    return Mirrored(model)
