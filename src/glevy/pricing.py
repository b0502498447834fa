"""Pointwise pricing-kernel and asset-price evaluation.

A `GlmSpec` is a `Component` (model, lam, sig) plus a market, and every kernel
and price is one compensated exponential, e^{log_value}. Evaluators take the
realized driver value x as an argument rather than owning any simulation, so
exact oracles and Monte Carlo share one code path. Time is measured in years
and all rates are continuously compounded. Every function accepts scalar or
numpy-array x.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DomainViolation,
    MissingForeignRate,
    NonpositiveDividendYield,
    ParamOutOfRange,
)
from .exponents import LevyModel, make_model
from .premium import inverse_fx_premium, risk_premium

__all__ = [
    "GlmSpec",
    "kernel_value",
    "asset_value",
    "expected_asset_price",
    "fx_value",
    "inverse_fx_value",
    "gordon_valuation",
    "dividend_asset_value",
    "spec_from_dict",
    "spec_to_dict",
    "load_spec",
]


@dataclass(frozen=True)
class Component:
    """One Levy driver with risk aversion lam and volatility sig; its premium
    exists only when sig, -lam and sig - lam lie in the exponent's domain."""

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


@dataclass(frozen=True, kw_only=True)
class GlmSpec(Component):
    """A complete scalar pricing model: a Component with lam >= 0 and sig > 0,
    the interest rate r and initial price s0 > 0; optionally a foreign rate f
    (FX models) and a dividend stream (growth rate gamma_growth, initial rate d0)."""

    r: float
    s0: float = 1.0
    f: float | None = None
    gamma_growth: float | None = None
    d0: float | None = None

    def __post_init__(self):
        for name in ("r", "lam", "sig", "s0", "f", "gamma_growth", "d0"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ParamOutOfRange(name, value, "must be finite")
        # lam = 0 is admitted so the option identifiability experiments can
        # probe the zero-risk-aversion boundary; positivity of the premium
        # requires lam > 0.
        if not self.lam >= 0.0:
            raise ParamOutOfRange("lam", self.lam, "must be >= 0")
        if not self.sig > 0.0:
            raise ParamOutOfRange("sig", self.sig, "must be > 0")
        if not self.s0 > 0.0:
            raise ParamOutOfRange("s0", self.s0, "must be > 0")
        if self.d0 is not None and not self.d0 > 0.0:
            raise ParamOutOfRange("d0", self.d0, "must be > 0")
        super().__post_init__()


def log_value(log0, rate, model: LevyModel, a: float, x, t: float):
    """log v0 + rate t + a x - t psi(a), the log of v0 e^{rate t} e^{a x - t psi(a)}."""
    if not 0.0 <= t < math.inf:
        raise ParamOutOfRange("t", t, "must be finite and >= 0")
    return log0 + rate * t + a * x - t * model.psi(a)


def kernel_value(spec: GlmSpec, x, t: float):
    """Pricing kernel pi_t = e^{-rt} e^{-lam x - t psi(-lam)} at X_t = x."""
    return np.exp(log_value(0.0, -spec.r, spec.model, -spec.lam,
                            np.asarray(x, dtype=float), t))[()]


def asset_value(spec: GlmSpec, x, t: float):
    """Asset price S_t = s0 e^{(r+R)t} e^{sig x - t psi(sig)} at X_t = x."""
    return np.exp(log_value(math.log(spec.s0), spec.r + spec.premium, spec.model,
                            spec.sig, np.asarray(x, dtype=float), t))[()]


def expected_asset_price(spec: GlmSpec, t: float) -> float:
    """E[S_t] = s0 e^{(r + R) t} in closed form."""
    growth = (spec.r + spec.premium) * t
    try:
        return spec.s0 * math.exp(growth)
    except OverflowError:
        raise ParamOutOfRange("(r + R) t", growth, "E[S_t] overflows a float") from None


def _require_f(spec: GlmSpec) -> float:
    if spec.f is None:
        raise MissingForeignRate("spec has no foreign rate f")
    return spec.f


def fx_value(spec: GlmSpec, x, t: float):
    """Exchange rate S_t = s0 e^{(r-f)t} e^{Rt} e^{sig x - t psi(sig)}."""
    f = _require_f(spec)
    return np.exp(log_value(math.log(spec.s0), spec.r - f + spec.premium, spec.model,
                            spec.sig, np.asarray(x, dtype=float), t))[()]


def inverse_fx_value(spec: GlmSpec, x, t: float):
    """Inverse rate with s0_tilde = 1/s0; the product fx * inverse_fx is 1."""
    f = _require_f(spec)
    r_tilde = inverse_fx_premium(spec.model, spec.lam, spec.sig)
    return np.exp(log_value(-math.log(spec.s0), f - spec.r + r_tilde, spec.model,
                            -spec.sig, np.asarray(x, dtype=float), t))[()]


def gordon_valuation(spec: GlmSpec) -> tuple[float, float]:
    """(implied initial price D0/delta, dividend yield delta = r + R - gamma)."""
    if spec.d0 is None or spec.gamma_growth is None:
        raise ParamOutOfRange("d0/gamma_growth", None, "dividend spec requires both")
    delta = spec.r + spec.premium - spec.gamma_growth
    if not delta > 0.0:
        raise NonpositiveDividendYield(
            f"r + R - gamma = {delta} <= 0: valuation integral diverges")
    return spec.d0 / delta, delta


def dividend_asset_value(spec: GlmSpec, x, t: float):
    """Price path of the dividend-paying asset; D_t = delta * S_t throughout."""
    s0_implied, delta = gordon_valuation(spec)
    return np.exp(log_value(math.log(s0_implied), spec.r - delta + spec.premium,
                            spec.model, spec.sig, np.asarray(x, dtype=float), t))[()]


def _number(key: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ParamOutOfRange(key, value, "must be a number") from None


def spec_from_dict(d: dict) -> GlmSpec:
    """Build a GlmSpec from the JSON schema used by config files and the CLI."""
    if not isinstance(d, dict):
        raise ParamOutOfRange("spec", d, "must be a JSON object")
    for key in ("family", "r", "lambda", "sigma"):
        if key not in d:
            raise ParamOutOfRange(key, None, "must be given")
    model = make_model(d["family"], d.get("params", {}))
    return GlmSpec(
        model=model,
        r=_number("r", d["r"]),
        lam=_number("lambda", d["lambda"]),
        sig=_number("sigma", d["sigma"]),
        s0=_number("s0", d.get("s0", 1.0)),
        f=None if d.get("f") is None else _number("f", d["f"]),
        gamma_growth=None if d.get("gamma") is None else _number("gamma", d["gamma"]),
        d0=None if d.get("d0") is None else _number("d0", d["d0"]),
    )


def spec_to_dict(spec: GlmSpec) -> dict:
    d = {"family": spec.model.family, "params": spec.model.params(),
         "r": spec.r, "lambda": spec.lam, "sigma": spec.sig, "s0": spec.s0}
    if spec.f is not None:
        d["f"] = spec.f
    if spec.gamma_growth is not None:
        d["gamma"] = spec.gamma_growth
    if spec.d0 is not None:
        d["d0"] = spec.d0
    return d


def load_spec(path) -> GlmSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            return spec_from_dict(json.load(fh))
    except UnicodeDecodeError:
        raise ParamOutOfRange("spec", str(path), "must be UTF-8 text") from None
