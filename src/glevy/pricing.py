"""Pointwise pricing-kernel and asset-price evaluation.

A `GlmSpec` is a `Component` (model, lam, sig) plus a market. Every kernel,
price, money market and ratio in glevy is e^{log} by `_exp`, whose one rule,
on the log of a float or an array, raises ParamOutOfRange where the log is NaN
or above log(max float); a log of -inf gives 0. Every value at a realized
driver value x, a GlmSpec's or a VectorGlm's, is one compensated exponential
over (model, a) terms, `_value`, so exact oracles and Monte Carlo share one
code path. Time is in years, rates are continuously compounded, and every
function accepts scalar or numpy-array x, which must be finite real numbers
(`_driver`).
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
                         _positive, _reals, make_model)
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
    """log v0 + rate t + a x - t psi(a), the log of v0 e^{rate t} e^{a x - t psi(a)}. A term
    that overflows is left as inf (or inf - inf as NaN) for `_exp` to judge."""
    t = _nonnegative("t", t)
    with np.errstate(over="ignore", invalid="ignore"):
        return log0 + rate * t + a * x - t * model.psi(a)


# The largest log whose e^log is a float, by math.exp and np.exp alike.
_LOG_MAX = math.log(sys.float_info.max)


def _exp(log, name: str, value, what: str, scale: float = 1.0):
    """scale e^log by math.exp for a float log, e^log by np.exp (0-d as a scalar) otherwise,
    so callers keep their bits. A log above _LOG_MAX or NaN, or a scaled value that is
    inf, raises ParamOutOfRange "{what} overflows a float"; a log of -inf gives 0."""
    if type(log) is float:
        if log <= _LOG_MAX and (result := scale * math.exp(log)) != math.inf:
            return result
    elif (np.asarray(log) <= _LOG_MAX).all():
        return np.exp(log)[()]
    raise ParamOutOfRange(name, value, f"{what} overflows a float")


def _driver(x):
    """x as a float array; x that is not real numbers, or is not finite in any
    element, raises ParamOutOfRange naming x."""
    xs = np.asarray(_reals("x", x), dtype=float)
    if not np.isfinite(xs).all():
        raise ParamOutOfRange("x", x, "must be finite")
    return xs


def _value(log0, rate, terms, x, t: float, stacked: bool = False):
    """e^{log0 + rate t + sum_i (a_i x_i - t psi_i(a_i))} over the (model, a_i) terms, each
    through log_value, so one term is the scalar order; x_i is x, or x[..., i] if
    stacked (a VectorGlm's x). x is checked once, and the log exponentiated once."""
    xs = np.atleast_1d(_driver(x)) if stacked else _driver(x)[..., None]
    if xs.shape[-1] != len(terms):
        raise ParamOutOfRange("x", xs.shape, f"last axis must have {len(terms)} components")
    log = log0
    for i, (model, a) in enumerate(terms):
        log, rate = log_value(log, rate, model, a, xs[..., i], t), 0.0
    return _exp(log, "(x, t)", (x, t), "the value")


def kernel_value(spec: GlmSpec, x, t: float):
    """Pricing kernel pi_t = e^{-rt} e^{-lam x - t psi(-lam)} at X_t = x."""
    return _value(0.0, -spec.r, [(spec.model, -spec.lam)], x, t)


def asset_value(spec: GlmSpec, x, t: float):
    """Asset price S_t = s0 e^{(r+R)t} e^{sig x - t psi(sig)} at X_t = x."""
    return _value(math.log(spec.s0), spec.r + spec.premium, [(spec.model, spec.sig)], x, t)


def expected_asset_price(spec: GlmSpec, t: float) -> float:
    """E[S_t] = s0 e^{(r + R) t} in closed form."""
    growth = (spec.r + spec.premium) * _nonnegative("t", t)
    return _exp(growth, "(r + R) t", growth, "E[S_t]", spec.s0)


def _require_f(spec: GlmSpec) -> float:
    if spec.f is None:
        raise MissingForeignRate("spec has no foreign rate f")
    return spec.f


def fx_value(spec: GlmSpec, x, t: float):
    """Exchange rate S_t = s0 e^{(r-f)t} e^{Rt} e^{sig x - t psi(sig)}."""
    f = _require_f(spec)
    return _value(math.log(spec.s0), spec.r - f + spec.premium, [(spec.model, spec.sig)], x, t)


def inverse_fx_value(spec: GlmSpec, x, t: float):
    """Inverse rate with s0_tilde = 1/s0; the product fx * inverse_fx is 1."""
    f = _require_f(spec)
    r_tilde = inverse_fx_premium(spec.model, spec.lam, spec.sig)
    return _value(-math.log(spec.s0), f - spec.r + r_tilde, [(spec.model, -spec.sig)], x, t)


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
    s0, delta = gordon_valuation(spec)
    return _value(math.log(s0), spec.r - delta + spec.premium, [(spec.model, spec.sig)], x, t)


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
