"""Levy model families: everything the library knows about one process X.

Each family knows its cumulant function psi (with E[exp(a*X_t)] = exp(t*psi(a))),
its first two analytic derivatives, the open interval of admissible
arguments, the exact law of its increments (`increments`), its jump
measure (`levy_measure`) and, where it has a closed form, the law of X_t
(`terminal_law`). The jump measure and the law are one type, `Measure`:
atoms on the integers plus an optional density. Its `integrate` serves both
the jump-measure premium and the exact call pricer, and a mirror reflects
both. All model objects are immutable and safe to share between threads. A
model's admissible interval is fixed at construction (built once, on first
use, then reused by every evaluation); NaN and +-inf are never admissible.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np
from scipy import integrate

from .errors import DomainViolation, ParamOutOfRange, QuadratureFailure, Unsupported

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
    "Measure",
    "make_model",
    "mirror",
]

# Relative margin kept between an evaluation point and a finite endpoint of
# the admissible interval; endpoints themselves are excluded.
DOMAIN_MARGIN = 1e-9
_MAX_TERMS = 1_000_000  # hard cap on the terms of an atom series
_SERIES_RTOL = 1e-14  # relative tail left behind by an atom series


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
        """Strict interior test with a margin at finite endpoints; `_check` inlines it."""
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


def _poisson_log_pmf(n: int, mu: float) -> float:
    """log P(N = n) for N ~ Poisson(mu).

    n log(mu) - mu - lgamma(n + 1) is a difference of terms of size mu log(mu),
    each rounded, so near the mode of a large mu it loses relative precision
    to cancellation. From n = 16 on it is formed in Loader's saddle-point form
    -bd0(n, mu) - stirlerr(n) - log(2 pi n)/2 instead (C. Loader, "Fast and
    accurate computation of binomial probabilities", 2000), with
    bd0 = n log1p(d/mu) - d for d = n - mu, whose rounding is of the order of
    d rather than mu log(mu). Below 16 the direct form loses at most about
    1e-14 and Stirling's series for stirlerr(n) is not yet exact to rounding.
    """
    if n < 16:
        return n * math.log(mu) - mu - math.lgamma(n + 1.0)
    nn = n ** -2.0  # not 1/(n*n): the integer n*n overflows a float beyond n = 1e154
    stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - nn / 1188) * nn) * nn) * nn) / n
    d = n - mu
    return d - n * math.log1p(d / mu) - stirlerr - 0.5 * math.log(2.0 * math.pi * n)


@dataclass(frozen=True)
class Measure:
    """A measure on the real line: atoms on the integers plus an optional density.

    Both a model's jump measure (`levy_measure`, with the Gaussian coefficient
    gaussian_q of its continuous part) and the law of X_t (`terminal_law`,
    gaussian_q = 0) are Measures. The atom of index n, for the integers n in
    atoms = (first, last) (last may be inf), sits at sign*n with weight
    exp(log_weight(n)); there are none when log_weight is None. The density
    exp(log_density(x)) lives on support.
    """

    log_weight: Callable[[int], float] | None = None
    atoms: tuple[int, float] = (0, math.inf)
    sign: int = 1
    log_density: Callable[[float], float] | None = None
    support: tuple[float, float] = (-math.inf, math.inf)
    gaussian_q: float = 0.0

    def reflected(self) -> "Measure":
        """The image of this measure under x -> -x."""
        log_f, (lo, hi) = self.log_density, self.support
        return replace(self, sign=-self.sign, support=(-hi, -lo),
                       log_density=None if log_f is None else lambda x: log_f(-x))

    def integrate(self, g: Callable[[float, float], float], lo: float, hi: float,
                  tilt: float, breaks: tuple[float, ...]) -> tuple[float, float]:
        """(value, error estimate) of the integral of g(x, log w(x)) over [lo, hi],
        where w is the weight of the atom at x or the density at x.

        The atoms in range are summed from the first one. The caller picks tilt
        so that w(x) e^{tilt x} grows and falls with the size of its terms.
        Past the peak of that tilted weight the sum stops once the tail,
        estimated as the geometric series of the last ratio of terms (a bound
        when the terms are log-concave), is within 1e-14 of the sum; the
        estimate is the error. The density is integrated by adaptive
        quadrature over the pieces into which breaks cut [lo, hi].
        """
        value = err = 0.0
        if self.log_weight is not None:
            log_weight, sign = self.log_weight, float(self.sign)
            first, last = self.atoms
            a, b = (lo, hi) if sign > 0.0 else (-hi, -lo)
            start, last = math.ceil(a) if a > first else first, min(last, b)
            prev_w, prev = -math.inf, 0.0
            for n in range(start, start + _MAX_TERMS):
                if n > last:
                    break
                x = sign * n
                log_w = log_weight(n)
                term = g(x, log_w)
                value += term
                # size^2 / (prev - size) is the geometric tail of the last
                # ratio of terms; it is negative while the terms rise. Before
                # the peak of the tilted weight a run of underflowed terms
                # must not stop the sum: the terms may still rise.
                size, tilted = abs(term), log_w + tilt * x
                if tilted < prev_w and size * size <= _SERIES_RTOL * abs(value) * (prev - size):
                    err = size * size / (prev - size) if size else 0.0
                    break
                prev_w, prev = tilted, size
            else:
                raise QuadratureFailure(f"atom series not converged in {_MAX_TERMS} terms")
        log_f = self.log_density
        lo, hi = max(lo, self.support[0]), min(hi, self.support[1])
        if log_f is not None and lo < hi:
            edges = sorted({lo, hi, *(p for p in breaks if lo < p < hi)})
            for a, b in zip(edges, edges[1:]):
                v, e = integrate.quad(lambda x: g(x, log_f(x)), a, b,
                                      epsabs=1e-15, epsrel=1e-10, limit=500)
                value += v
                err += e
        return value, err


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
        if not dom._lo <= alpha <= dom._hi:  # dom.admissible(alpha), inline
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

    def levy_measure(self) -> Measure:
        """The jump measure nu and Gaussian coefficient of X."""
        raise Unsupported(self.family, "Levy measure")

    def terminal_law(self, t: float) -> Measure:
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
        return Measure(gaussian_q=1.0)

    def terminal_law(self, t):
        t = _positive("t", t)
        c = -0.5 * math.log(2.0 * math.pi * t)
        return Measure(log_density=lambda x: c - 0.5 * x * x / t)


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
        log_m = math.log(self.m)
        return Measure(log_weight=lambda n: log_m, atoms=(1, 1))

    def terminal_law(self, t):
        mt = self.m * _positive("t", t)
        return Measure(log_weight=lambda n: _poisson_log_pmf(n, mt))


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
        s = self.s
        log_c = math.log(self.m / (s * math.sqrt(2.0 * math.pi)))
        return Measure(log_density=lambda x: log_c - 0.5 * (x / s) ** 2)


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
        log_m = math.log(self.m)
        return Measure(log_density=lambda x: log_m - x - math.log(x),
                       support=(0.0, math.inf))

    def terminal_law(self, t):
        shape = self.m * _positive("t", t)
        c = -math.lgamma(shape)
        return Measure(log_density=lambda x: c + (shape - 1.0) * math.log(x) - x,
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
        log_m, kappa = math.log(self.m), self.kappa
        return Measure(log_density=lambda x: log_m - x / kappa - math.log(x),
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
        log_m, b = math.log(self.m), math.sqrt(2.0 * self.m)
        return Measure(log_density=lambda x: log_m - b * abs(x) - math.log(abs(x)))


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

    @cached_property
    def _coefs(self) -> tuple[float, float, float]:
        """(mu/m, s^2/2m, s^2), with psi(a) = -m ln(1 - (mu/m) a - (s^2/2m) a^2)."""
        return self.mu / self.m, self.s**2 / (2.0 * self.m), self.s**2

    def psi(self, alpha):
        alpha = self._check(alpha)
        b, c, _ = self._coefs
        return -self.m * math.log(1.0 - b * alpha - c * alpha * alpha)

    def psi_prime(self, alpha):
        alpha = self._check(alpha)
        b, c, s2 = self._coefs
        return (self.mu + s2 * alpha) / (1.0 - b * alpha - c * alpha * alpha)

    def psi_second(self, alpha):
        alpha = self._check(alpha)
        b, c, s2 = self._coefs
        u = 1.0 - b * alpha - c * alpha * alpha
        v = self.mu + s2 * alpha
        return (s2 * u + v * v / self.m) / (u * u)

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
        log_m, log_q = math.log(self.m), math.log(self.q)
        return Measure(log_weight=lambda n: log_m + n * log_q - math.log(n),
                       atoms=(1, math.inf))


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
        try:
            return self.base.psi(-float(alpha))
        except DomainViolation:
            raise DomainViolation(float(alpha), self.domain) from None

    def psi_prime(self, alpha):
        try:
            return -self.base.psi_prime(-float(alpha))
        except DomainViolation:
            raise DomainViolation(float(alpha), self.domain) from None

    def psi_second(self, alpha):
        try:
            return self.base.psi_second(-float(alpha))
        except DomainViolation:
            raise DomainViolation(float(alpha), self.domain) from None

    def increments(self, dt, size, g):
        return -self.base.increments(dt, size, g)

    def levy_measure(self):
        return self.base.levy_measure().reflected()

    def terminal_law(self, t):
        return self.base.terminal_law(t).reflected()

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
    """Build a validated model from a family name and parameter mapping.

    "Mirrored[<family>]", the name a mirrored model reports, builds the
    mirror of that family's model from the same parameters.
    """
    if not isinstance(family, str):
        raise ParamOutOfRange("family", family, "must be a family name")
    if family.startswith("Mirrored[") and family.endswith("]"):
        return mirror(make_model(family[len("Mirrored["):-1], params, **kw))
    if family == "JumpDiffusion":
        raise Unsupported(family, "scalar construction (use multifactor.jump_diffusion)")
    try:
        cls = FAMILIES[family]
    except KeyError:
        raise Unsupported(family, "family") from None
    try:
        return cls(**dict(params or {}, **kw))
    except (TypeError, ValueError, OverflowError) as e:  # unknown, non-numeric or huge
        raise ParamOutOfRange("params", params, str(e)) from None


def mirror(model: LevyModel) -> LevyModel:
    """Model of the reflected process -X_t."""
    if isinstance(model, _SYMMETRIC):
        return model
    if isinstance(model, Mirrored):
        return model.base
    return Mirrored(model)
