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
import sys
from dataclasses import MISSING, dataclass, fields
from functools import cached_property

import numpy as np

from .errors import MissingForeignRate, NonpositiveDividendYield, ParamOutOfRange
from .exponents import (LevyModel, _check_fields, _finite, _nonnegative, _number, _param,
                         _positive, make_model)
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
    """One Levy driver with finite risk aversion lam and volatility sig; its
    premium exists only when sig, -lam and sig - lam lie in the exponent's
    domain, so construction evaluates it and the checked psi raises
    DomainViolation at the first of them that does not."""

    model: LevyModel
    lam: float = _param(_finite)
    sig: float = _param(_finite)

    def __post_init__(self):
        _check_fields(self)
        self.premium

    @cached_property
    def premium(self) -> float:
        return risk_premium(self.model, self.lam, self.sig)


@dataclass(frozen=True, kw_only=True)
class GlmSpec(Component):
    """A complete scalar pricing model: a Component with lam >= 0 and sig > 0,
    the interest rate r and initial price s0 > 0; optionally a foreign rate f
    (FX models) and a dividend stream (growth rate gamma_growth, initial rate
    d0 > 0). All are finite numbers, each checked by its field's declaration."""

    # lam = 0 is admitted so the option identifiability experiments can
    # probe the zero-risk-aversion boundary; positivity of the premium
    # requires lam > 0.
    lam: float = _param(_nonnegative, kw_only=False)
    sig: float = _param(_positive, kw_only=False)
    r: float = _param(_finite)
    s0: float = _param(_positive, 1.0)
    f: float | None = _param(_finite, None)
    gamma_growth: float | None = _param(_finite, None)
    d0: float | None = _param(_positive, None)


def log_value(log0, rate, model: LevyModel, a: float, x, t: float):
    """log v0 + rate t + a x - t psi(a), the log of v0 e^{rate t} e^{a x - t psi(a)}."""
    t = _nonnegative("t", t)
    return log0 + rate * t + a * x - t * model.psi(a)


def _value(spec: GlmSpec, log0, rate, a: float, x, t: float):
    """e^{log_value} for the spec's model at X_t = x: a float for scalar x."""
    return np.exp(log_value(log0, rate, spec.model, a, np.asarray(x, dtype=float), t))[()]


def kernel_value(spec: GlmSpec, x, t: float):
    """Pricing kernel pi_t = e^{-rt} e^{-lam x - t psi(-lam)} at X_t = x."""
    return _value(spec, 0.0, -spec.r, -spec.lam, x, t)


def asset_value(spec: GlmSpec, x, t: float):
    """Asset price S_t = s0 e^{(r+R)t} e^{sig x - t psi(sig)} at X_t = x."""
    return _value(spec, math.log(spec.s0), spec.r + spec.premium, spec.sig, x, t)


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
    return _value(spec, math.log(spec.s0), spec.r - f + spec.premium, spec.sig, x, t)


def inverse_fx_value(spec: GlmSpec, x, t: float):
    """Inverse rate with s0_tilde = 1/s0; the product fx * inverse_fx is 1."""
    f = _require_f(spec)
    r_tilde = inverse_fx_premium(spec.model, spec.lam, spec.sig)
    return _value(spec, -math.log(spec.s0), f - spec.r + r_tilde, -spec.sig, x, t)


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
    return _value(spec, math.log(s0_implied), spec.r - delta + spec.premium, spec.sig, x, t)


# Each JSON key of a spec file and the GlmSpec field it sets, in file order: a key
# must be given if its field has no default, and may be null if it defaults to None.
_KEYS = {"r": "r", "lambda": "lam", "sigma": "sig", "s0": "s0", "f": "f",
         "gamma": "gamma_growth", "d0": "d0"}
_DEFAULTS = {f.name: f.default for f in fields(GlmSpec)}


def spec_from_dict(d: dict) -> GlmSpec:
    """Build a GlmSpec from the JSON schema used by config files and the CLI."""
    if not isinstance(d, dict):
        raise ParamOutOfRange("spec", d, "must be a JSON object")
    for key in ("family", *(k for k, name in _KEYS.items() if _DEFAULTS[name] is MISSING)):
        if key not in d:
            raise ParamOutOfRange(key, None, "must be given")
    model = make_model(d["family"], d.get("params", {}))
    return GlmSpec(model=model, **{name: _number(key, d.get(key, _DEFAULTS[name]))
                                   for key, name in _KEYS.items()
                                   if d.get(key) is not None or _DEFAULTS[name] is not None})


def spec_to_dict(spec: GlmSpec) -> dict:
    values = {key: getattr(spec, name) for key, name in _KEYS.items()}
    return {"family": spec.model.family, "params": spec.model.params(),
            **{key: v for key, v in values.items() if v is not None}}


def _json_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParamOutOfRange("integer", f"<{len(digits)} characters>",
                              f"must have at most {sys.get_int_max_str_digits()} digits") from None


def load_spec(path) -> GlmSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            return spec_from_dict(json.load(fh, parse_int=_json_int))
    except UnicodeDecodeError:
        raise ParamOutOfRange("spec", str(path), "must be UTF-8 text") from None
