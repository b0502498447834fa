"""Levy model families: everything the library knows about one process X.

Each family knows its cumulant function psi (with E[exp(a*X_t)] = exp(t*psi(a)))
and its first two analytic derivatives as check-free formulas of a float or
array, the open interval of admissible arguments, the exact law of its
increments (`increments`), its jump measure (`levy_measure`) and, where it has
a closed form, the law of X_t (`terminal_law`). The jump measure and the law
are one type, `Measure`: atoms on the integers plus an optional density, whose
`integrate` serves the jump-measure premium and the exact call pricer alike.
`ScaledGamma` and `Mirrored` are c times a root model: their formulas are the
root's at c*alpha, and their domain, draws and measures the root's scaled by c.
`_BilateralGamma` holds the bilateral gamma formulas once: `VarianceGamma` is
`AsymmetricVG(m, 0, 1)`, declaring only m.
Models are immutable and thread-safe. Parameters are checked and the interval
built at construction; NaN and +-inf are never admissible, and one gate,
`_checked`, alone checks a float or array argument against the interval.
The gate keeps each model's float values of psi, psi' and psi'' in three
memos of at most `_MEMO_SIZE` (1024) values each, emptied when full, so a
grid that meets an argument again, in one call or across calls, runs the
formula once. A memo is not part of the model's value (eq, hash and repr
ignore it) and only ever holds the formula's own value at its key; a lost
race between threads costs one more formula call, never a different value.
"""
from __future__ import annotations

import heapq
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cached_property
from operator import mul
from typing import Callable

import numpy as np

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
_MAX_VG_SHAPE = 1e16  # most m*dt: k1*G1 - k2*G2 lies on a grid sqrt(m*dt/2)*eps sd apart
_MEMO_SIZE = 1024  # most values one memo of a checked entry keeps (see `_checked`)


def _inside(e: float) -> float:
    """The inclusive limit a relative margin inside the finite endpoint e; e/2
    where the margin reaches |e|/2, so it never crosses 0 (at e = +-5e-324,
    e/2 rounds to 0 and e stays excluded)."""
    margin = DOMAIN_MARGIN * max(1.0, abs(e))
    return e / 2.0 if margin >= abs(e) / 2.0 else e - math.copysign(margin, e)


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
        object.__setattr__(self, "_lo", -sys.float_info.max if math.isinf(lo) else _inside(lo))
        object.__setattr__(self, "_hi", sys.float_info.max if math.isinf(hi) else _inside(hi))

    def admissible(self, alpha: float) -> bool:
        """Strict interior test with a margin at finite endpoints; the gate
        `_checked` inlines it."""
        return self._lo <= alpha <= self._hi

    def scaled(self, c: float) -> "Interval":
        """The a with c*a in this interval (c != 0): c*X's domain when this is X's."""
        lo, hi = self.lower / c, self.upper / c
        return Interval(lo, hi) if c > 0.0 else Interval(hi, lo)

    def __str__(self):
        return f"({self.lower}, {self.upper})"


_REAL_LINE = Interval(-math.inf, math.inf)


def _number(name: str, value) -> float:
    """float(value) for a real number; ParamOutOfRange for text and complex too."""
    if type(value) is not float and isinstance(value, (str, bytes, bytearray, np.complexfloating)):
        raise ParamOutOfRange(name, value, "must be a number")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):  # not a number, or an int past float
        raise ParamOutOfRange(name, value, "must be a number") from None


def _reals(name: str, value, ndim: int | None = None) -> np.ndarray:
    """np.asarray(value), of ndim dimensions if given, for an array of integers or
    floats; ParamOutOfRange for text, complex, bool, ragged or other objects, as
    `_number` for a scalar."""
    try:
        values = np.asarray(value)
    except ValueError:  # ragged
        values = None
    if values is None or values.dtype.kind not in "iuf":
        raise ParamOutOfRange(name, value, "must be real numbers")
    if ndim is not None and values.ndim != ndim:
        raise ParamOutOfRange(name, values.shape, f"must be {ndim}-d")
    return values


def _rule(ok: Callable[[float], bool], constraint: str) -> Callable[[str, object], float]:
    """A range check: check(name, value) converts value with `_number`, returns
    it where ok holds and raises ParamOutOfRange(name, value, constraint) where not."""
    def check(name: str, value) -> float:
        value = _number(name, value)
        if not ok(value):
            raise ParamOutOfRange(name, value, constraint)
        return value
    return check


_positive = _rule(lambda v: 0.0 < v < math.inf, "must be finite and > 0")
_nonnegative = _rule(lambda v: 0.0 <= v < math.inf, "must be finite and >= 0")
_finite = _rule(math.isfinite, "must be finite")
_unit = _rule(lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")


def _param(check: Callable[[str, object], float], default=MISSING, kw_only=MISSING):
    """A parameter field of a frozen dataclass that `_check_fields` coerces
    with check(name, value); one declared with default None may stay None."""
    return field(default=default, kw_only=kw_only, metadata={"check": check})


def _check_fields(obj) -> None:
    """Apply each declared check to its field of obj, in field order."""
    for f in fields(obj):
        check, value = f.metadata.get("check"), getattr(obj, f.name)
        if check is not None and (value is not None or f.default is not None):
            object.__setattr__(obj, f.name, check(f.name, value))


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


# QUADPACK's qk21 rule on [-1, 1] (Piessens et al., QUADPACK, 1983): the
# Kronrod nodes x >= 0 from the outermost in, their weights, and the 10-point
# Gauss weights at every second node. _NODES and _WK hold all 21 nodes, _WG
# the weights at _NODES[1::2].
_XK = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
       0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
       0.2943928627014602, 0.14887433898163122, 0.0)
_WK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
       0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
       0.14277593857706009, 0.14773910490133849, 0.1494455540029169)
_WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
       0.29552422471475287)
_NODES = tuple(-x for x in _XK) + _XK[-2::-1]
_WK, _WG = _WK + _WK[-2::-1], _WG + _WG[::-1]
_EPS, _TINY = sys.float_info.epsilon, sys.float_info.min


def _kronrod(f: Callable[[float, float], list], a: float, b: float) -> tuple[float, ...]:
    """(value, error estimate, resabs) of the qk21 rule on the finite [a, b],
    where f(c, h) is the list of the integrand's values at c + h x for x in
    _NODES; resabs is the rule on |f|. The error is QUADPACK's: |K21 - G10|
    raised towards resasc as resasc (200 |K21 - G10| / resasc)^1.5, and at
    least 50 eps resabs."""
    c, h = 0.5 * a + 0.5 * b, 0.5 * b - 0.5 * a
    fv = f(c, h)
    resk = sum(map(mul, _WK, fv))
    resabs = sum(map(mul, _WK, map(abs, fv)))
    mean = 0.5 * resk
    resasc = sum([w * abs(v - mean) for w, v in zip(_WK, fv)])
    err = abs(resk - sum(map(mul, _WG, fv[1::2])))
    if resasc and err:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk * h, max(err, 50.0 * _EPS * resabs) * h, resabs * h


def _quad(g: Callable[[float, float], float], log_f: Callable[[float], float],
          *edges: float) -> tuple[float, float]:
    """(value, error estimate) of the integral of g(x, log_f(x)) over the pieces
    between the sorted edges, with one error budget across them as QUADPACK's
    qagp runs it, but without extrapolation. Each piece starts as one qk21 rule;
    a half-line is mapped onto (0, 1] as qagi maps it, x = a + (1 - t)/t above
    a or b - (1 - t)/t below b, times dx/dt = 1/t^2, and the whole line is cut
    at 0. The part of largest error, on any piece, is bisected next until the
    summed error is within 1e-10 of the summed resabs, the integral of |g|; no
    absolute floor, so g's unit does not matter. The estimate is inf where that
    takes more than 500 parts, a part is too short to bisect or a value is not
    finite. (`for x in (v,)` binds x = v.)"""
    edges = (-math.inf, 0.0, math.inf) if edges == (-math.inf, math.inf) else edges
    heap, value, err, size = [], 0.0, 0.0, 0.0
    for k, (a, b) in enumerate(zip(edges, edges[1:])):
        if -math.inf < a and b < math.inf:
            def f(c, h):
                return [g(x, log_f(x)) for n in _NODES for x in (c + h * n,)]
        else:
            def f(c, h, start=a if b == math.inf else b, sign=1.0 if b == math.inf else -1.0):
                return [g(x, log_f(x)) / (t * t) for n in _NODES for t in (c + h * n,)
                        for x in (start + sign * ((1.0 - t) / t),)]
            a, b = 0.0, 1.0
        v, e, s = _kronrod(f, a, b)
        heap.append((-e, k, a, b, v, s, f))  # (k, a, b) is unique: f is never compared
        value, err, size = value + v, err + e, size + s
    heapq.heapify(heap)
    while not err <= 1e-10 * size:  # a nan error never passes
        e, k, a, b, v, s, f = heapq.heappop(heap)
        mid = 0.5 * a + 0.5 * b  # qagse's test for a part too short to bisect:
        short = max(abs(a), abs(b)) <= (1.0 + 100.0 * _EPS) * (abs(mid) + 1000.0 * _TINY)
        if len(heap) == 499 or not math.isfinite(value) or short:
            return value, math.inf
        (v1, e1, s1), (v2, e2, s2) = _kronrod(f, a, mid), _kronrod(f, mid, b)
        heapq.heappush(heap, (-e1, k, a, mid, v1, s1, f))
        heapq.heappush(heap, (-e2, k, mid, b, v2, s2, f))
        value, err, size = value + (v1 + v2 - v), err + (e1 + e2 + e), size + (s1 + s2 - s)
    return sum(part[4] for part in heap), err


@dataclass(frozen=True)
class Measure:
    """A measure on the real line: atoms on the integers plus an optional density.

    Both a model's jump measure (`levy_measure`, with the Gaussian coefficient
    gaussian_q of its continuous part) and the law of X_t (`terminal_law`,
    gaussian_q = 0) are Measures. The atom of index n, for the integers n in
    atoms = (first, last) (last may be inf), sits at scale*n with weight
    exp(log_weight(n)); there are none when log_weight is None. The density
    exp(log_density(x)) lives on support.
    """

    log_weight: Callable[[int], float] | None = None
    atoms: tuple[int, float] = (0, math.inf)
    scale: float = 1.0
    log_density: Callable[[float], float] | None = None
    support: tuple[float, float] = (-math.inf, math.inf)
    gaussian_q: float = 0.0

    def scaled(self, c: float) -> "Measure":
        """The image of this measure under x -> c*x, for c != 0: atoms at
        c*scale*n, density log f(x/c) - log|c| and Gaussian coefficient c^2 q."""
        log_f, (lo, hi), log_c = self.log_density, self.support, math.log(abs(c))
        return replace(self, scale=self.scale * c, gaussian_q=c * c * self.gaussian_q,
                       support=(lo * c, hi * c) if c > 0.0 else (hi * c, lo * c),
                       log_density=None if log_f is None else lambda x: log_f(x / c) - log_c)

    @property
    def lowest(self) -> float:
        """The lowest point of the atoms' and density's mass; -inf if unbounded below."""
        first, last = self.atoms
        atom = self.scale * (first if self.scale > 0.0 else last)
        return min(math.inf if self.log_weight is None else atom,
                   math.inf if self.log_density is None else self.support[0])

    def integrate(self, g: Callable[[float, float], float], lo: float, hi: float,
                  tilt: float, breaks: tuple[float, ...]) -> tuple[float, float]:
        """(value, error estimate) of the integral of g(x, log w(x)) over [lo, hi],
        where w is the weight of the atom at x or the density at x.

        The atoms in range are summed from the first one. The caller picks tilt
        so that w(x) e^{tilt x} grows and falls with the size of its terms.
        Past the peak of that tilted weight the sum stops once the tail,
        estimated as the geometric series of the last ratio of terms (a bound
        when the terms are log-concave), is within 1e-14 of the sum; the
        estimate is the error. The density is integrated over the pieces into
        which breaks cut [lo, hi] in one error budget relative to the integral
        of |g| (`_quad`); a failure makes the error estimate inf.
        """
        value = err = 0.0
        if self.log_weight is not None:
            log_weight, scale = self.log_weight, self.scale
            first, last = self.atoms
            a, b = (lo / scale, hi / scale) if scale > 0.0 else (hi / scale, lo / scale)
            start, last = math.ceil(a) if a > first else first, min(last, b)
            prev_w, prev = -math.inf, 0.0
            for n in range(start, start + _MAX_TERMS):
                if n > last:
                    break
                x = scale * n
                log_w = log_weight(n)
                term = g(x, log_w)
                value += term
                # The geometric tail of the last ratio of falling terms,
                # size^2 / (prev - size) unsquared so no scale under- or
                # overflows it; 0 at a zero term. Before the peak of the tilted
                # weight underflowed terms must not stop the sum: they may rise.
                size, tilted = abs(term), log_w + tilt * x
                tail = size * (size / (prev - size)) if size < prev else math.inf if size else 0.0
                if tilted < prev_w and tail <= _SERIES_RTOL * abs(value):
                    err = tail
                    break
                prev_w, prev = tilted, size
            else:
                raise QuadratureFailure(f"atom series not converged in {_MAX_TERMS} terms")
        log_f = self.log_density
        lo, hi = max(lo, self.support[0]), min(hi, self.support[1])
        if log_f is not None and lo < hi:
            v, e = _quad(g, log_f, *sorted({lo, hi, *(p for p in breaks if lo < p < hi)}))
            value, err = value + v, err + e
        return value, err


def _checked(formula: Callable, name: str) -> Callable:
    """The public entry `name` of the check-free formula(self, a, xp=math):
    float(alpha) inside the domain's inclusive limits (checked inline, so a call
    is two frames) gives the formula's value, one outside them DomainViolation
    and a value that overflows a float (raising, or rounding to inf or NaN)
    ParamOutOfRange; a numeric array likewise, by its real parts.

    A float's value is kept in the model's memo of `name`, keyed by a =
    float(alpha), and a later call at that a returns it unchanged: the
    formula is a pure function of (model, a), so a stored value is the one
    the formula would give, and only admissible, finite values are stored.
    Zero is never stored (the dict would take -0.0 and 0.0 for one key, and
    psi(-0.0) may be -0.0), nor is an array or anything that raises. A memo
    that holds _MEMO_SIZE values is emptied before it takes the next one.
    Models stay immutable and thread-safe: each dict operation is atomic, so
    a thread that races another at worst misses a value and computes it
    again (or adds one value past the bound), and every value a memo holds
    is the formula's at its key."""
    def entry(self, alpha):
        try:
            a = float(alpha)
            memo = self._memos[name]
            value = memo.get(a)
            if value is not None:
                return value
            dom = self.domain
            if not dom._lo <= a <= dom._hi:
                raise DomainViolation(a, dom)
            value = formula(self, a)
            if not math.isfinite(value):  # rounded to inf, or inf - inf
                raise OverflowError
            if a:
                if len(memo) >= _MEMO_SIZE:
                    memo.clear()
                memo[a] = value
            return value
        except OverflowError:
            raise ParamOutOfRange("alpha", alpha, f"{name} overflows a float") from None
        except (TypeError, ValueError):  # not a float: an array, or not a number
            if not (isinstance(alpha, np.ndarray) and alpha.dtype.kind in "iufc"):
                raise ParamOutOfRange("alpha", alpha,
                                      "must be a number or a numeric array") from None
        dom = self.domain
        a = alpha.astype(np.promote_types(alpha.dtype, np.float64), copy=False)
        inside = (dom._lo <= a.real) & (a.real <= dom._hi)  # False at NaN
        if not inside.all():
            raise DomainViolation(a[~inside][0].item(), dom)
        try:
            with np.errstate(over="raise"):
                return formula(self, a, np)
        except FloatingPointError:
            raise ParamOutOfRange("alpha", alpha, f"{name} overflows a float") from None
    entry.__name__ = entry.__qualname__ = name  # a bound method pickles by its name
    return entry


@dataclass(frozen=True)
class LevyModel:
    """Base class. A family declares each parameter with its check
    (`m: float = _param(_positive)`), which construction applies in field
    order before it builds the domain. It defines its exponent as the
    check-free formulas `_psi(a, xp=math)`, `_psi_prime` and `_psi_second`, its
    exact increment law and, where known, its jump measure and the law of X_t.
    Its `psi`, `psi_prime` and `psi_second` (of a float or a numeric array) are
    the `_checked` gates of the formulas it resolves, set at class creation."""

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        for name in ("psi", "psi_prime", "psi_second"):
            formula = getattr(cls, "_" + name, None)
            if formula is not None:
                setattr(cls, name, _checked(formula, name))

    def __post_init__(self):
        _check_fields(self)
        self.domain
        # Not fields, so outside eq, hash and repr; replace() builds fresh ones.
        object.__setattr__(self, "_memos", {"psi": {}, "psi_prime": {}, "psi_second": {}})

    @property
    def family(self) -> str:
        return type(self).__name__

    @property
    def domain(self) -> Interval:
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

    def _psi(self, a, xp=math):
        return 0.5 * a * a

    def _psi_prime(self, a, xp=math):
        return 1.0 * a  # a new array, not the argument, on the array path

    def _psi_second(self, a, xp=math):
        return 0.0 * a + 1.0  # ones of a's shape on the array path

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

    m: float = _param(_positive)

    domain = _REAL_LINE

    def _psi(self, a, xp=math):
        return self.m * xp.expm1(a)

    def _psi_prime(self, a, xp=math):
        return self.m * xp.exp(a)

    _psi_second = _psi_prime  # both m e^a

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

    m: float = _param(_positive)
    s: float = _param(_positive, 1.0)

    domain = _REAL_LINE

    def _psi(self, a, xp=math):
        return self.m * xp.expm1(0.5 * self.s**2 * a * a)

    def _psi_prime(self, a, xp=math):
        s2 = self.s**2
        return self.m * s2 * a * xp.exp(0.5 * s2 * a * a)

    def _psi_second(self, a, xp=math):
        s2 = self.s**2
        return self.m * s2 * (1.0 + s2 * a * a) * xp.exp(0.5 * s2 * a * a)

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

    m: float = _param(_positive)

    domain = Interval(-math.inf, 1.0)

    def _psi(self, a, xp=math):
        return -self.m * xp.log1p(-a)

    def _psi_prime(self, a, xp=math):
        return self.m / (1.0 - a)

    def _psi_second(self, a, xp=math):
        return self.m / (1.0 - a) ** 2

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
class _BilateralGamma(LevyModel):
    """Drifted variance gamma: psi(a) = -m ln(1 - (mu/m) a - (s^2/2m) a^2).

    Equivalently kappa1*gamma1_t - kappa2*gamma2_t with
    kappa_{1,2} = (+-mu + sqrt(mu^2 + 2 m s^2)) / (2m); m, mu and s are fields
    or class attributes of the family."""

    @cached_property
    def _coefs(self) -> tuple[float, float, float, float, float]:
        """(kappa1, kappa2, mu/m, s^2/2m, s^2). The larger kappa is formed with
        no cancellation and the smaller from kappa1 * kappa2 = s^2/2m."""
        m, mu, s = self.m, self.mu, self.s
        try:
            s2 = s**2
        except OverflowError:
            raise ParamOutOfRange("s", s, "s^2 overflows a float") from None
        c = s2 / (2.0 * m)
        big = (abs(mu) + math.hypot(mu, s * math.sqrt(2.0 * m))) / (2.0 * m)
        if not (0.0 < big < math.inf and 0.0 < c / big < math.inf):
            self._out_of_range("must give finite kappa1, kappa2 > 0")
        k1, k2 = (big, c / big) if mu >= 0.0 else (c / big, big)
        return k1, k2, mu / m, c, s2

    def _out_of_range(self, constraint: str):
        params = self.params()
        raise ParamOutOfRange("(" + ", ".join(params) + ")", tuple(params.values()), constraint)

    @cached_property
    def domain(self) -> Interval:
        k1, k2 = self._coefs[:2]
        dom = Interval(-1.0 / k2, 1.0 / k1)
        # Past |mu| ~ 1e154 s sqrt(m), b a and c a^2 overflow to inf - inf at the far limit.
        if any(math.isnan(f(a)) for f in (self._psi, self._psi_prime, self._psi_second)
               for a in (dom._lo, dom._hi)):
            self._out_of_range("must give psi and its derivatives at the domain's limits")
        return dom

    def _psi(self, a, xp=math):
        _, _, b, c, _ = self._coefs
        return -self.m * xp.log1p(-b * a - c * a * a)

    def _psi_prime(self, a, xp=math):
        _, _, b, c, s2 = self._coefs
        return (self.mu + s2 * a) / (1.0 - b * a - c * a * a)

    def _psi_second(self, a, xp=math):
        _, _, b, c, s2 = self._coefs
        u = 1.0 - b * a - c * a * a
        v = self.mu + s2 * a
        return (s2 * u + v * v / self.m) / (u * u)

    def increments(self, dt, size, g):
        k1, k2 = self._coefs[:2]
        shape = self.m * dt
        if not shape <= _MAX_VG_SHAPE:
            raise ParamOutOfRange("(m, dt)", (self.m, dt), f"m*dt must be <= {_MAX_VG_SHAPE}")
        return k1 * g.gamma(shape, 1.0, size) - k2 * g.gamma(shape, 1.0, size)

    def levy_measure(self):
        # m e^{-x/kappa1}/x on x > 0 and m e^{-|x|/kappa2}/|x| on x < 0.
        k1, k2 = self._coefs[:2]
        log_m = math.log(self.m)
        return Measure(log_density=lambda x: log_m - x / (k1 if x > 0.0 else -k2)
                       - math.log(abs(x)))


@dataclass(frozen=True)
class VarianceGamma(_BilateralGamma):
    """Symmetric variance gamma with rate m, AsymmetricVG(m, 0, 1): -m ln(1 - a^2/2m)."""

    m: float = _param(_positive)
    mu = 0.0
    s = 1.0


@dataclass(frozen=True)
class AsymmetricVG(_BilateralGamma):
    """Drifted variance gamma with rate m, drift mu and volatility s."""

    m: float = _param(_positive)
    mu: float = _param(_finite)
    s: float = _param(_positive)


@dataclass(frozen=True)
class NegativeBinomial(LevyModel):
    """Negative binomial process: psi(a) = m ln((1-q)/(1 - q e^a)), a < ln(1/q)."""

    m: float = _param(_positive)
    q: float = _param(_unit)

    @cached_property
    def domain(self) -> Interval:
        return Interval(-math.inf, math.log(1.0 / self.q))

    def _psi(self, a, xp=math):
        return -self.m * xp.log1p(-self.q * xp.expm1(a) / (1.0 - self.q))

    def _psi_prime(self, a, xp=math):
        qe = self.q * xp.exp(a)
        return self.m * qe / (1.0 - qe)

    def _psi_second(self, a, xp=math):
        qe = self.q * xp.exp(a)
        return self.m * qe / (1.0 - qe) ** 2

    def increments(self, dt, size, g):
        return g.negative_binomial(self.m * dt, 1.0 - self.q, size).astype(float)

    def levy_measure(self):
        log_m, log_q = math.log(self.m), math.log(self.q)
        return Measure(log_weight=lambda n: log_m + n * log_q - math.log(n),
                       atoms=(1, math.inf))


@dataclass(frozen=True)
class _Scaled(LevyModel):
    """c times the root of `_scaling` = (root, c): psi(a) = psi_root(c a), psi' and
    psi'' gain c and c^2, and the domain, draws, jump measure and law scale by c."""

    @cached_property
    def domain(self) -> Interval:
        root, c = self._scaling
        return root.domain.scaled(c)

    def _at(self, a, xp):
        """(root, c, c a). A float c a that rounds to +-inf raises OverflowError, as an
        array's does under the gate's errstate, so floats and arrays agree."""
        root, c = self._scaling
        ca = c * a
        if xp is math and abs(ca) == math.inf:
            raise OverflowError
        return root, c, ca

    def _psi(self, a, xp=math):
        root, _, ca = self._at(a, xp)
        return root._psi(ca, xp)

    def _psi_prime(self, a, xp=math):
        root, c, ca = self._at(a, xp)
        return c * root._psi_prime(ca, xp)

    def _psi_second(self, a, xp=math):
        root, c, ca = self._at(a, xp)
        return c * (c * root._psi_second(ca, xp))

    def increments(self, dt, size, g):
        root, c = self._scaling
        return c * root.increments(dt, size, g)

    def levy_measure(self):
        root, c = self._scaling
        return root.levy_measure().scaled(c)

    def terminal_law(self, t):
        root, c = self._scaling
        return root.terminal_law(t).scaled(c)


@dataclass(frozen=True)
class ScaledGamma(_Scaled):
    """Gamma process scaled by kappa: psi(a) = -m ln(1 - a*kappa), a < 1/kappa."""

    m: float = _param(_positive)
    kappa: float = _param(_positive)

    @cached_property
    def _scaling(self) -> tuple[LevyModel, float]:
        return Gamma(self.m), self.kappa


@dataclass(frozen=True)
class Mirrored(_Scaled):
    """The process -X_t of a base model: its root scaled by minus its factor."""

    base: LevyModel

    @property
    def family(self) -> str:
        return f"Mirrored[{self.base.family}]"

    @cached_property
    def _scaling(self) -> tuple[LevyModel, float]:
        root, c = getattr(self.base, "_scaling", (self.base, 1.0))
        return root, -c

    def params(self) -> dict:
        return self.base.params()


# Each family by the name its models report.
FAMILIES = {cls.__name__: cls for cls in (Brownian, Poisson, CompoundPoissonNormal, Gamma,
                                          ScaledGamma, VarianceGamma, AsymmetricVG,
                                          NegativeBinomial)}

# Families whose exponent is even in alpha; their mirror is themselves.
_SYMMETRIC = (Brownian, CompoundPoissonNormal, VarianceGamma)


def make_model(family: str, params: dict | None = None) -> LevyModel:
    """Build a validated model from a family name and parameter mapping.

    "Mirrored[<family>]", the name a mirrored model reports, builds the
    mirror of that family's model from the same parameters.
    """
    if not isinstance(family, str):
        raise ParamOutOfRange("family", family, "must be a family name")
    if family.startswith("Mirrored[") and family.endswith("]"):
        return mirror(make_model(family[len("Mirrored["):-1], params))
    if family == "JumpDiffusion":
        raise Unsupported(family, "scalar construction (use multifactor.jump_diffusion)")
    try:
        cls = FAMILIES[family]
    except KeyError:
        raise Unsupported(family, "family") from None
    try:
        return cls(**dict(params or {}))
    except (TypeError, ValueError, OverflowError) as e:  # params not a mapping of known names
        raise ParamOutOfRange("params", params, str(e)) from None


def mirror(model: LevyModel) -> LevyModel:
    """Model of the reflected process -X_t."""
    if isinstance(model, _SYMMETRIC):
        return model
    if isinstance(model, Mirrored):
        return model.base
    return Mirrored(model)
