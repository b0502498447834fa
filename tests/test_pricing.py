"""Tests for pricing-kernel, asset, FX, and dividend valuation."""

import argparse
import ast
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

import glevy as g
from glevy import cli, exponents, multifactor, pricing
from conftest import ASYMMETRIC, DEFAULT_MODELS, random_risk_params


def make_spec(model, lam, sig, r=0.05, s0=1.0, **kw):
    return g.GlmSpec(model=model, r=r, lam=lam, sig=sig, s0=s0, **kw)


def test_kernel_closed_form_poisson():
    # pi_t = e^{-rt} e^{-lam x - t m (e^{-lam} - 1)}.
    spec = make_spec(g.Poisson(m=1.0), lam=math.log(2.0), sig=0.5, r=0.0)
    x, t = 3.0, 1.0
    got = g.kernel_value(spec, x, t)
    expect = math.exp(-math.log(2.0) * 3.0 - (0.5 - 1.0))
    assert got == pytest.approx(expect, rel=1e-14)
    assert got == pytest.approx(0.125 * math.exp(0.5), rel=1e-14)


def test_asset_closed_form_gamma():
    model = g.Gamma(m=1.0)
    lam, sig, r, t, x = 1.0, 0.5, 0.03, 2.0, 0.8
    spec = make_spec(model, lam, sig, r=r, s0=3.0)
    big_r = g.risk_premium(model, lam, sig)
    expect = 3.0 * math.exp((r + big_r) * t + sig * x - t * model.psi(sig))
    assert g.asset_value(spec, x, t) == pytest.approx(expect, rel=1e-14)


def test_kernel_asset_product_exponent(family_case, np_rng):
    # pi_t S_t = s0 e^{(sig-lam) x - t psi(sig-lam)} e^{R t - t psi(sig) - t psi(-lam)}
    # ... whose log is affine in x; verify against the direct product.
    model, lam, sig = family_case
    spec = make_spec(model, lam, sig, r=0.04, s0=2.0)
    for _ in range(20):
        x = np_rng.normal() * 0.8
        t = np_rng.uniform(0.1, 3.0)
        prod = g.kernel_value(spec, x, t) * g.asset_value(spec, x, t)
        log_expect = (
            math.log(2.0)
            + (sig - lam) * x
            - t * model.psi(sig - lam)
            + t * (spec.premium - model.psi(sig) + model.psi(sig - lam) - model.psi(-lam))
        )
        # The bracket vanishes by the definition of the premium.
        assert prod == pytest.approx(
            2.0 * math.exp((sig - lam) * x - t * model.psi(sig - lam)), rel=1e-12
        )
        assert prod == pytest.approx(math.exp(log_expect), rel=1e-12)


def test_expected_asset_price(family_case):
    model, lam, sig = family_case
    spec = make_spec(model, lam, sig, r=0.02, s0=1.5)
    t = 2.0
    assert g.expected_asset_price(spec, t) == pytest.approx(
        1.5 * math.exp((0.02 + spec.premium) * t), rel=1e-14
    )


def test_fx_pair_product_is_one(family_case, np_rng):
    model, lam, sig = family_case
    if not model.domain.admissible(-sig):
        sig = min(sig, -model.domain.lower * 0.4)
    spec = make_spec(model, lam, sig, r=0.03, f=0.01, s0=1.3)
    for _ in range(20):
        x = np_rng.normal() * 0.7
        t = np_rng.uniform(0.1, 4.0)
        s = g.fx_value(spec, x, t)
        s_inv = g.inverse_fx_value(spec, x, t)
        assert s * s_inv == pytest.approx(1.0, rel=1e-12)


def test_gamma_fx_deterministic_factor():
    # For the gamma family the mean inverse rate carries the drift factor
    # exp(t [f - r + R_tilde]); check R_tilde against its psi expression.
    model = g.Gamma(m=2.0)
    lam, sig = 0.6, 0.3
    rt = g.inverse_fx_premium(model, lam, sig)
    expect = model.psi(-sig) + model.psi(sig - lam) - model.psi(-lam)
    assert rt == pytest.approx(expect, rel=1e-14)
    assert rt == pytest.approx(
        2.0 * math.log((1.0 + lam) / ((1.0 + sig) * (1.0 - sig + lam))), rel=1e-13
    )
    assert rt < 0.0  # lam > sig here, so the inverse-rate premium is negative


def test_brownian_inverse_fx_premium():
    # Diffusive case: R_tilde = sig (sig - lam).
    lam, sig = 0.4, 0.7
    rt = g.inverse_fx_premium(g.Brownian(), lam, sig)
    assert rt == pytest.approx(sig * (sig - lam), rel=1e-13)


def test_gordon_valuation():
    # Diffusive dividend model: delta = r + R - gamma.
    spec = make_spec(
        g.Brownian(), lam=0.5, sig=0.4, r=0.02, gamma_growth=0.1, d0=1.0
    )
    price, delta = g.gordon_valuation(spec)
    assert delta == pytest.approx(0.02 + 0.2 - 0.1, rel=1e-13)
    assert price == pytest.approx(1.0 / 0.12, rel=1e-13)


def test_gordon_valuation_gamma():
    model = g.Gamma(m=1.0)
    lam, sig, r, gamma, d0 = 1.0, 0.5, 0.02, 0.07, 2.0
    spec = make_spec(model, lam, sig, r=r, gamma_growth=gamma, d0=d0)
    price, delta = g.gordon_valuation(spec)
    big_r = g.risk_premium(model, lam, sig)
    assert delta == pytest.approx(r + big_r - gamma, rel=1e-12)
    assert price == pytest.approx(d0 / delta, rel=1e-12)
    assert d0 / price == pytest.approx(delta, rel=1e-12)


def test_gordon_nonpositive_yield():
    spec = make_spec(
        g.Brownian(), lam=0.1, sig=0.1, r=0.01, gamma_growth=0.5, d0=1.0
    )
    with pytest.raises(g.NonpositiveDividendYield):
        g.gordon_valuation(spec)


def test_spec_without_the_optional_fields_a_value_needs():
    spec = make_spec(g.Gamma(m=1.0), 0.5, 0.4)
    for fn in (g.fx_value, g.inverse_fx_value):
        with pytest.raises(g.MissingForeignRate):
            fn(spec, 0.1, 1.0)
    for kw in ({}, {"d0": 1.0}, {"gamma_growth": 0.01}):
        with pytest.raises(g.ParamOutOfRange, match="d0/gamma_growth"):
            g.gordon_valuation(make_spec(g.Gamma(m=1.0), 0.5, 0.4, **kw))


def test_gordon_price_decreasing_in_lam():
    # Higher risk aversion -> higher yield -> lower initial price.
    model = g.Gamma(m=1.0)
    prices = []
    for lam in (0.2, 0.5, 1.0, 2.0):
        spec = make_spec(model, lam, 0.4, r=0.02, gamma_growth=0.01, d0=1.0)
        prices.append(g.gordon_valuation(spec)[0])
    assert all(a > b for a, b in zip(prices, prices[1:]))


def test_dividend_asset_value():
    model = g.Gamma(m=1.0)
    spec = make_spec(model, 1.0, 0.5, r=0.02, gamma_growth=0.07, d0=2.0)
    x, t = 0.5, 1.5
    _, delta = g.gordon_valuation(spec)
    dividend = 2.0 * math.exp(
        0.07 * t + 0.5 * x - t * model.psi(0.5)
    )
    assert g.dividend_asset_value(spec, x, t) == pytest.approx(
        dividend / delta, rel=1e-12
    )


def test_spec_json_round_trip(tmp_path):
    d = {
        "family": "NegativeBinomial",
        "params": {"m": 1.0, "q": 0.5},
        "r": 0.03,
        "lambda": 0.3,
        "sigma": 0.5,
        "s0": 2.0,
        "f": 0.01,
        "gamma": 0.02,
        "d0": 0.5,
    }
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(d))
    spec = g.load_spec(str(p))
    assert isinstance(spec.model, g.NegativeBinomial)
    assert spec.lam == 0.3 and spec.sig == 0.5 and spec.s0 == 2.0
    assert spec.f == 0.01 and spec.gamma_growth == 0.02 and spec.d0 == 0.5
    back = g.spec_to_dict(spec)
    assert g.spec_from_dict(back).premium == pytest.approx(spec.premium, rel=1e-15)


def test_spec_validation():
    with pytest.raises(g.ParamOutOfRange):
        g.GlmSpec(model=g.Brownian(), r=0.0, lam=-0.1, sig=0.5)
    with pytest.raises(g.ParamOutOfRange):
        g.GlmSpec(model=g.Brownian(), r=0.0, lam=0.1, sig=0.0)
    with pytest.raises(g.ParamOutOfRange):
        g.GlmSpec(model=g.Brownian(), r=0.0, lam=0.1, sig=0.5, s0=-1.0)
    with pytest.raises(g.DomainViolation):
        g.GlmSpec(model=g.Gamma(m=1.0), r=0.0, lam=0.1, sig=1.2)


_SPEC_FIELDS = ["r", "lam", "sig", "s0", "f", "gamma_growth", "d0"]
# Values no float field takes; None only where the field has no None default.
_NON_NUMBERS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "str": "x",
                "list": [1.0], "huge-int": 10**400}


@pytest.mark.parametrize("field, value", [
    *(pytest.param(field, value, id=f"{key}-{field}")
      for key, value in _NON_NUMBERS.items() for field in _SPEC_FIELDS),
    *(pytest.param(field, None, id=f"None-{field}") for field in ["r", "lam", "sig", "s0"]),
])
def test_spec_rejects_non_finite(field, value):
    kw = dict(model=g.Brownian(), r=0.02, lam=0.2, sig=0.5, s0=1.0,
              f=0.01, gamma_growth=0.01, d0=1.0)
    kw[field] = value
    with pytest.raises(g.ParamOutOfRange) as exc:
        g.GlmSpec(**kw)
    assert exc.value.name == field


def test_parameter_records_check_only_through_their_fields():
    # GlmSpec's checks are its field declarations, which Component applies.
    assert "__post_init__" not in vars(g.GlmSpec)
    assert g.OptionSpec.__post_init__ is exponents._check_fields


@pytest.mark.parametrize("key", ["family", "r", "lambda", "sigma"])
def test_spec_without_a_required_key_names_it(key):
    d = {"family": "Gamma", "params": {"m": 1.0}, "r": 0.02, "lambda": 0.5, "sigma": 0.4}
    del d[key]
    with pytest.raises(g.ParamOutOfRange) as exc:
        g.spec_from_dict(d)
    assert exc.value.name == key


def test_cached_premium_is_exact(family_case):
    model, lam, sig = family_case
    spec = g.GlmSpec(model=model, r=0.02, lam=lam, sig=sig)
    assert spec.premium == g.risk_premium(model, lam, sig)
    assert spec.premium == spec.premium
    assert spec == g.GlmSpec(model=model, r=0.02, lam=lam, sig=sig)


# Reference formulas: each value function spelled out in full, in the operand
# order of its log value. The library forms every one through log_value and
# must match them bit for bit.
def _ref_kernel(spec, x, t):
    c = spec.model.psi(-spec.lam)
    return np.exp(-spec.r * t - spec.lam * np.asarray(x, dtype=float) - t * c)[()]


def _ref_asset(spec, x, t):
    c = spec.model.psi(spec.sig)
    log_s = (math.log(spec.s0) + (spec.r + spec.premium) * t
             + spec.sig * np.asarray(x, dtype=float) - t * c)
    return np.exp(log_s)[()]


def _ref_fx(spec, x, t):
    c = spec.model.psi(spec.sig)
    log_s = (math.log(spec.s0) + (spec.r - spec.f + spec.premium) * t
             + spec.sig * np.asarray(x, dtype=float) - t * c)
    return np.exp(log_s)[()]


def _ref_inverse_fx(spec, x, t):
    r_tilde = g.inverse_fx_premium(spec.model, spec.lam, spec.sig)
    c = spec.model.psi(-spec.sig)
    log_s = (-math.log(spec.s0) + (spec.f - spec.r + r_tilde) * t
             - spec.sig * np.asarray(x, dtype=float) - t * c)
    return np.exp(log_s)[()]


def _ref_dividend(spec, x, t):
    s0_implied, delta = g.gordon_valuation(spec)
    c = spec.model.psi(spec.sig)
    log_s = (math.log(s0_implied) + (spec.r - delta + spec.premium) * t
             + spec.sig * np.asarray(x, dtype=float) - t * c)
    return np.exp(log_s)[()]


def _ref_vector_kernel(vglm, x, t):
    log_pi = -vglm.r * t
    for i, c in enumerate(vglm.components):
        log_pi = log_pi - c.lam * x[..., i] - t * c.model.psi(-c.lam)
    return np.exp(log_pi)[()]


def _ref_vector_asset(vglm, x, t):
    # The scalar order: one rate r + sum of R_i, then each component's terms.
    log_s = math.log(vglm.s0) + (vglm.r + sum(c.premium for c in vglm.components)) * t
    for i, c in enumerate(vglm.components):
        log_s = log_s + c.sig * x[..., i] - t * c.model.psi(c.sig)
    return np.exp(log_s)[()]


_ALL_MODELS = {**DEFAULT_MODELS,
               **{f"mirror-{n}": (g.mirror(DEFAULT_MODELS[n][0]), *DEFAULT_MODELS[n][1:])
                  for n in ASYMMETRIC}}
_X = {"scalar": -0.37, "1d": np.linspace(-1.5, 1.5, 7),
      "2d": np.linspace(-1.0, 1.0, 12).reshape(3, 4)}


def _assert_identical(got, want):
    assert repr(got) == repr(want)
    assert np.array_equal(got, want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("t", [0.25, 1.0, 3.7])
@pytest.mark.parametrize("xname", list(_X))
@pytest.mark.parametrize("name", list(_ALL_MODELS))
def test_value_functions_match_reference_formulas_bitwise(name, xname, t):
    model, lam, sig = _ALL_MODELS[name]
    x = _X[xname]
    spec = make_spec(model, lam, sig, r=0.03, s0=1.3, f=0.01, gamma_growth=0.005, d0=0.05)
    for fn, ref in [(g.kernel_value, _ref_kernel), (g.asset_value, _ref_asset),
                    (g.fx_value, _ref_fx), (g.inverse_fx_value, _ref_inverse_fx),
                    (g.dividend_asset_value, _ref_dividend)]:
        _assert_identical(fn(spec, x, t), ref(spec, x, t))
    one = g.VectorGlm(components=(g.Component(model, lam, sig),), r=0.03, s0=1.3)
    two = g.VectorGlm(components=(g.Component(model, lam, sig),
                                  g.Component(g.Brownian(), 0.2, 0.5)), r=0.03, s0=1.3)
    x1 = np.asarray(x, dtype=float)[..., None]
    x2 = np.stack([np.asarray(x, dtype=float), 0.5 * np.asarray(x, dtype=float)], -1)
    for vglm, xv in ((one, x1), (two, x2)):
        _assert_identical(g.vector_kernel_value(vglm, xv, t), _ref_vector_kernel(vglm, xv, t))
        _assert_identical(g.vector_asset_value(vglm, xv, t), _ref_vector_asset(vglm, xv, t))
    # A GlmSpec is the one-component case of the vector values, bit for bit.
    as_vector = g.VectorGlm((spec,), spec.r, spec.s0)
    _assert_identical(g.vector_kernel_value(as_vector, x1, t), g.kernel_value(spec, x, t))
    _assert_identical(g.vector_asset_value(as_vector, x1, t), g.asset_value(spec, x, t))


_VALUE_FUNCTIONS = [g.kernel_value, g.asset_value, g.fx_value, g.inverse_fx_value,
                    g.dividend_asset_value]
_VECTOR_VALUE_FUNCTIONS = [g.vector_kernel_value, g.vector_asset_value]


def _time_check_models():
    spec = make_spec(g.Gamma(m=1.0), 0.25, 0.5, r=0.03, s0=1.3, f=0.01,
                     gamma_growth=0.005, d0=0.05)
    vglm = g.VectorGlm(components=(g.Component(g.Gamma(m=1.0), 0.25, 0.5),
                                   g.Component(g.Brownian(), 0.2, 0.5)), r=0.03, s0=1.3)
    return spec, vglm


@pytest.mark.parametrize("t", [-1.0, math.inf, math.nan, "1", None])
def test_value_functions_reject_bad_time(t):
    # Once t = -1 gave a value and t = inf or nan gave nan with a RuntimeWarning;
    # t = "1" or None was an untyped TypeError from the vector values, and "1"
    # gave a value from the others.
    spec, vglm = _time_check_models()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in _VALUE_FUNCTIONS:
            with pytest.raises(g.ParamOutOfRange):
                fn(spec, 0.1, t)
        with pytest.raises(g.ParamOutOfRange):
            g.expected_asset_price(spec, t)
        for fn in _VECTOR_VALUE_FUNCTIONS:
            with pytest.raises(g.ParamOutOfRange):
                fn(vglm, [0.1, -0.2], t)


def test_value_functions_at_time_zero():
    spec, vglm = _time_check_models()
    s0_implied, _ = g.gordon_valuation(spec)
    want = [1.0, spec.s0, spec.s0, 1.0 / spec.s0, s0_implied]
    for fn, v in zip(_VALUE_FUNCTIONS, want):
        assert fn(spec, 0.0, 0.0) == pytest.approx(v, rel=1e-15)
    assert g.vector_kernel_value(vglm, [0.0, 0.0], 0.0) == 1.0
    assert g.vector_asset_value(vglm, [0.0, 0.0], 0.0) == pytest.approx(vglm.s0, rel=1e-15)


# Each value function and the sign of its coefficient a of x on a Brownian
# spec with lam = sig = 2, so a x overflows a float at x = sign 1e308. It is
# -1e308 at x = -sign 5e307 and -inf at x = -sign 1e308, where the value
# underflows to 0.
_BIG_A_SPEC = make_spec(g.Brownian(), 2.0, 2.0, r=0.03, s0=1.3, f=0.01,
                        gamma_growth=0.005, d0=0.05)
_BIG_A_VGLM = g.VectorGlm(components=(g.Component(g.Brownian(), 2.0, 2.0),
                                      g.Component(g.Brownian(), 2.0, 2.0)), r=0.03, s0=1.3)
_A_SIGN = {g.kernel_value: -1, g.asset_value: 1, g.fx_value: 1, g.inverse_fx_value: -1,
           g.dividend_asset_value: 1, g.vector_kernel_value: -1, g.vector_asset_value: 1}


@pytest.mark.parametrize("fn", list(_A_SIGN), ids=lambda fn: fn.__name__)
def test_value_functions_check_the_driver_value(fn):
    # Once a x overflowed with a RuntimeWarning, and x = inf or nan gave inf
    # or nan silently.
    def call(x):
        if fn in _VECTOR_VALUE_FUNCTIONS:
            x = np.stack([np.asarray(x, dtype=float), np.zeros(np.shape(x))], -1)
            return fn(_BIG_A_VGLM, x, 1.0)
        return fn(_BIG_A_SPEC, x, 1.0)

    sign = _A_SIGN[fn]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (math.inf, -math.inf, math.nan, [0.1, math.nan]):
            with pytest.raises(g.ParamOutOfRange, match="must be finite") as err:
                call(x)
            assert err.value.name == "x"
        with pytest.raises(g.ParamOutOfRange, match="overflows a float"):
            call(sign * 1e308)
        for x in (5e307, 1e308):
            assert call(-sign * x) == 0.0
            assert call(np.array([0.1, -sign * x])).tolist()[1] == 0.0


_NON_REAL_X = [pytest.param("a", id="str"), pytest.param("0.5", id="numeric-str"),
               pytest.param([0.1, "0.2"], id="str-element"), pytest.param(b"0.5", id="bytes"),
               pytest.param([[0.1, 0.2], [0.3]], id="ragged"), pytest.param(1 + 2j, id="complex"),
               pytest.param(np.array([0.1, 0.2 + 1j]), id="complex-array"),
               pytest.param(np.complex128(0.5), id="numpy-complex"),
               pytest.param(np.array([True, False]), id="bool-array"),
               pytest.param([0.1, None], id="None-element")]


@pytest.mark.parametrize("x", _NON_REAL_X)
@pytest.mark.parametrize("fn", list(_A_SIGN), ids=lambda fn: fn.__name__)
def test_value_functions_accept_only_real_driver_values(fn, x):
    # Once "0.5" gave a value, "a" and a ragged list raised an untyped
    # ValueError, 1+2j a TypeError, and a complex array lost its imaginary
    # part with a ComplexWarning.
    model = _BIG_A_VGLM if fn in _VECTOR_VALUE_FUNCTIONS else _BIG_A_SPEC
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(g.ParamOutOfRange, match="must be real numbers") as err:
            fn(model, x, 1.0)
    assert err.value.name == "x"


def test_glm_spec_is_a_component():
    assert issubclass(g.GlmSpec, g.Component)
    assert multifactor.Component is pricing.Component is g.Component


def test_glm_spec_serves_as_a_vector_component():
    model, lam, sig = DEFAULT_MODELS["Gamma"]
    spec = make_spec(model, lam, sig, r=0.03, s0=1.3)
    vglm = g.VectorGlm(components=(spec,), r=spec.r, s0=spec.s0)
    assert g.vector_premium(vglm) == spec.premium
    x, t = np.array([-0.4, 0.1, 0.9]), 1.7
    _assert_identical(g.vector_asset_value(vglm, x[:, None], t), g.asset_value(spec, x, t))
    _assert_identical(g.vector_kernel_value(vglm, x[:, None], t), g.kernel_value(spec, x, t))


def test_glm_spec_rejects_positional_market_fields():
    # Inheritance puts lam and sig before r; the old positional order
    # (model, r, lam, sig) must fail rather than swap r and lam.
    with pytest.raises(TypeError):
        g.GlmSpec(g.Brownian(), 0.02, 0.3, 0.5)
    with pytest.raises(TypeError):
        g.GlmSpec(g.Brownian(), 0.02, 0.3)
    # The Component fields stay positional.
    assert (g.GlmSpec(g.Brownian(), 0.3, 0.5, r=0.02)
            == g.GlmSpec(model=g.Brownian(), lam=0.3, sig=0.5, r=0.02))


class _Constructions(ast.NodeVisitor):
    """(file, class, function) of each call that builds a DomainViolation."""

    def __init__(self, filename):
        self.filename, self.scope, self.sites = filename, [], []

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_ClassDef

    def visit_Call(self, node):
        if getattr(node.func, "id", None) == "DomainViolation":
            self.sites.append((self.filename, *self.scope[-2:]))
        self.generic_visit(node)


def test_domain_violation_is_built_only_in_exponents_and_component():
    sites = []
    for path in sorted(Path(g.__file__).parent.glob("*.py")):
        visitor = _Constructions(path.name)
        visitor.visit(ast.parse(path.read_text()))
        sites += visitor.sites
    # The gate of every psi, psi_prime and psi_second, once for a float and
    # once for an array.
    assert sorted(sites) == [("exponents.py", "_checked", "entry")] * 2


# --- the one exponential: pricing._exp ------------------------------------

_GAMMA = make_spec(g.Gamma(m=1.0), 0.25, 0.5, r=0.02, s0=1.3, f=0.01)
# R is about 6.5e7 here, so E[S_1] = s0 e^{r + R} overflows a float.
_CPN = make_spec(g.CompoundPoissonNormal(m=1.0, s=3.0), 0.3, 2.0, r=0.02)
# R~ = 639760, so the inverse FX value at x = 0.7, t = 1.3 overflows a float.
_FX = make_spec(g.Brownian(), 0.3, 800.0, r=0.02, f=0.01)
_JD = g.jump_diffusion(m=0.5, s=0.2, lam=0.3, sig=0.4, beta=0.1, theta=0.2, r=0.03, s0=1.2)
_XS = np.array([[0.1, -0.2], [0.3, 0.05]])


def _one_interval(r, lam, sig):
    return g.Schedule(breakpoints=[0.0, 1.0], r=[r], lam=[[lam]], sig=[[sig]])


def _vector_value_reference(which, x, t):
    """vector_kernel_value ("lambda") or vector_asset_value ("sigma") by np.exp, in
    the scalar order: the one rate with the first component, then the others."""
    if which == "lambda":
        log, rate, terms = 0.0, -_JD.r, [(c.model, -c.lam) for c in _JD.components]
    else:
        log, rate = math.log(_JD.s0), _JD.r + g.vector_premium(_JD)
        terms = [(c.model, c.sig) for c in _JD.components]
    for i, (model, a) in enumerate(terms):
        log, rate = pricing.log_value(log, rate, model, a, x[..., i], t), 0.0
    return np.exp(log)[()]


_BROWNIAN = g.VectorGlm(components=(g.Component(g.Brownian(), 0.0, 1.0),), r=0.0)


def _driver(values):
    return [g.Path([0.0, 0.5, 1.0], values)]


def _schedule_path_reference(schedule, values):
    coef, drift_dt, log0, cum_r = multifactor._plan(_BROWNIAN, schedule,
                                                    np.array([0.0, 0.5, 1.0]))["sigma"]
    log = np.zeros(3)
    log[1:] += np.cumsum(coef[0] * np.diff(values) + drift_dt[0])
    return np.exp(log + log0 + cum_r)


_GAMMA_VGLM = g.VectorGlm(components=(g.Component(g.Gamma(m=1.0), 0.4, 0.3),), r=0.02)
_GAMMA_SCHEDULE = _one_interval(0.02, 0.4, 0.3)


def _submartingale(vglm, schedule, s=0.25, t=0.5):
    return g.submartingale_check(vglm, schedule, s, t, n=6, rng=g.Rng(3))


def _ratio_means_reference():
    """mean_s and mean_t of _submartingale on the Gamma schedule, by np.exp:
    its grid is two pieces of 0.25 and s is grid point 1."""
    coef, drift_dt, log0, _ = multifactor._plan(_GAMMA_VGLM, _GAMMA_SCHEDULE,
                                                np.array([0.0, 0.25, 0.5]))["sigma"]
    sub, acc = g.Rng(3).spawn(0), np.zeros(6)
    for j in range(2):
        acc += coef[0, j] * g.sample_increments(g.Gamma(m=1.0), 0.25, 6, sub) + drift_dt[0, j]
        if j == 0:
            log_s = acc.copy()
    return tuple(g.McResult.from_samples(np.exp(v + log0)).estimate for v in (log_s, acc))


def _simulate(spec, horizon):
    """cmd_simulate's summary estimate, from the file it writes."""
    with tempfile.TemporaryDirectory() as out:
        args = argparse.Namespace(out=out, seed=7, n=50, paths=1, horizon=horizon, steps=2)
        cli.cmd_simulate(spec, args)
        return json.loads((Path(out) / "mc_summary.json").read_text())["estimate"]


def _simulate_reference():
    x = g.sample_increments(_GAMMA.model, 1.0, 50, g.Rng(7, 10_000))
    samples = np.exp(pricing.log_value(0.0, 0.0, _GAMMA.model, _GAMMA.sig, x, 1.0))
    return g.McResult.from_samples(samples).estimate


# Each site that turns a log into a value: (a call whose value overflows a
# float, a call with a finite value, that value by the np.exp or math.exp the
# site called before it went through pricing._exp).
_EXP_SITES = {
    "pricing._value": (
        lambda: g.inverse_fx_value(_FX, 0.7, 1.3),
        lambda: (g.kernel_value(_GAMMA, _XS[:, 0], 1.5), g.asset_value(_GAMMA, 0.8, 2.0)),
        lambda: (np.exp(pricing.log_value(0.0, -_GAMMA.r, _GAMMA.model, -_GAMMA.lam,
                                          _XS[:, 0], 1.5))[()],
                 np.exp(pricing.log_value(math.log(1.3), _GAMMA.r + _GAMMA.premium,
                                          _GAMMA.model, 0.5, np.asarray(0.8), 2.0))[()])),
    "pricing.expected_asset_price": (
        lambda: g.expected_asset_price(_CPN, 1.0),
        lambda: g.expected_asset_price(_GAMMA, 2.0),
        lambda: 1.3 * math.exp((_GAMMA.r + _GAMMA.premium) * 2.0)),
    "multifactor.vector_kernel_value": (
        lambda: g.vector_kernel_value(_JD, [-3000.0, 0.0], 1.0),
        lambda: g.vector_kernel_value(_JD, _XS, 0.7),
        lambda: _vector_value_reference("lambda", _XS, 0.7)),
    "multifactor.vector_asset_value": (
        lambda: g.vector_asset_value(_JD, [3000.0, 0.0], 1.0),
        lambda: g.vector_asset_value(_JD, _XS, 0.7),
        lambda: _vector_value_reference("sigma", _XS, 0.7)),
    "multifactor.money_market": (
        lambda: g.money_market(_one_interval(800.0, 0.0, 1.0), 1.0),
        lambda: g.money_market(_GAMMA_SCHEDULE, 1.5),
        lambda: math.exp(float(multifactor._integral(_GAMMA_SCHEDULE, _GAMMA_SCHEDULE.r, 1.5)))),
    "multifactor._schedule_path": (
        lambda: g.schedule_asset_path(_BROWNIAN, _one_interval(0.0, 0.0, 1.0),
                                      _driver([0.0, 800.0, 800.0])),
        lambda: g.schedule_asset_path(_BROWNIAN, _one_interval(0.01, 0.0, 1.0),
                                      _driver([0.0, 0.2, -0.1])).values,
        lambda: _schedule_path_reference(_one_interval(0.01, 0.0, 1.0), [0.0, 0.2, -0.1])),
    "multifactor.submartingale_check S/B": (
        # R = lam sig = 3000 for a Brownian component, so S_s/B_s overflows.
        lambda: _submartingale(_BROWNIAN, _one_interval(0.0, 3000.0, 1.0)),
        lambda: (lambda res: (res["mean_s"], res["mean_t"]))(
            _submartingale(_GAMMA_VGLM, _GAMMA_SCHEDULE)),
        _ratio_means_reference),
    "multifactor.submartingale_check predicted_ratio": (
        # S/B underflows to 0 for every draw, and the integral of R is 3.3e7.
        lambda: _submartingale(g.VectorGlm(components=(g.Component(_CPN.model, 0.3, 2.0),), r=0.0),
                               _one_interval(0.0, 0.3, 2.0), 0.5, 1.0),
        lambda: _submartingale(_GAMMA_VGLM, _GAMMA_SCHEDULE)["predicted_ratio"],
        lambda: math.exp(g.integrated_premium(_GAMMA_VGLM, _GAMMA_SCHEDULE, 0.25, 0.5))),
    "cli.cmd_simulate": (
        # Gamma at m T = 3e40: sigma X - T psi(sigma) is 2**25 by rounding.
        lambda: _simulate(make_spec(g.Gamma(m=1e40), 0.0, 1e-17), 3.0),
        lambda: _simulate(_GAMMA, 1.0),
        _simulate_reference),
    "options.bs_call_price": (
        lambda: g.bs_call_price(1.0, -800.0, 0.2, 1.0, 1.0),
        lambda: g.bs_call_price(1.0, 0.05, 0.0, 0.9, 2.0),
        lambda: max(1.0 - 0.9 * math.exp(-0.05 * 2.0), 0.0)),
}


def _bits(value):
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    return type(value), np.shape(value), np.asarray(value).tobytes()


@pytest.mark.parametrize("site", list(_EXP_SITES))
def test_exp_site_raises_on_overflow_and_keeps_finite_bits(site):
    overflow, finite, reference = _EXP_SITES[site]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(g.ParamOutOfRange, match="overflows a float"):
            overflow()
        assert _bits(finite()) == _bits(reference())


def test_exp_keeps_math_exp_for_floats_and_np_exp_otherwise():
    assert _bits(pricing._exp(0.3, "x", 0.3, "e^x")) == _bits(math.exp(0.3))
    assert _bits(pricing._exp(0.3, "x", 0.3, "e^x", 1e300)) == _bits(1e300 * math.exp(0.3))
    for log in (np.float64(0.3), np.array(0.3), np.array([0.3, -700.0])):
        assert _bits(pricing._exp(log, "x", log, "e^x")) == _bits(np.exp(log)[()])
    for log, scale in ((710.0, 1.0), (math.inf, 1.0), (0.3, 1.5e308), (np.array([0.0, 710.0]), 1.0)):
        with pytest.raises(g.ParamOutOfRange, match=r"^parameter x=.* violates: e\^x overflows"):
            pricing._exp(log, "x", log, "e^x", scale)


def test_exp_judges_overflow_on_the_log_for_floats_and_arrays():
    # e^_LOG_MAX is the largest float math.exp and np.exp give; one ulp more
    # overflows both. A NaN or +inf log raises too, and a log of -inf gives 0.
    top = pricing._LOG_MAX
    past = float(np.nextafter(top, math.inf))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for wrap in (float, np.array, lambda log: np.array([0.3, log])):
            assert np.max(pricing._exp(wrap(top), "x", top, "e^x")) == math.exp(top)
            assert np.min(pricing._exp(wrap(-math.inf), "x", -math.inf, "e^x")) == 0.0
            for log in (past, math.nan, math.inf):
                with pytest.raises(g.ParamOutOfRange, match=r"e\^x overflows a float"):
                    pricing._exp(wrap(log), "x", log, "e^x")


def test_value_with_an_infinite_rate_term_raises():
    # r t = 1e310 rounds to inf as a Python float, and np.exp(inf) sets no
    # flag, so the value was once inf without a warning. In the kernel, -r t
    # = -inf meets a x = +inf at x = -1e308: their sum is NaN.
    spec = make_spec(g.Brownian(), 2.0, 0.5, r=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (0.0, np.array([0.0, 1.0])):
            with pytest.raises(g.ParamOutOfRange, match="the value overflows a float"):
                g.asset_value(spec, x, 1e10)
        assert g.kernel_value(spec, 0.0, 1e10) == 0.0
        with pytest.raises(g.ParamOutOfRange, match="the value overflows a float"):
            g.kernel_value(spec, -1e308, 1e10)


def test_expected_asset_price_overflowing_product_raises():
    # e^{(r + R) t} is about 3.3, but s0 e^{(r + R) t} overflows a float.
    spec = make_spec(g.Gamma(m=1.0), 0.25, 0.5, r=1.0, s0=1e308)
    with pytest.raises(g.ParamOutOfRange, match=r"\(r \+ R\) t=.* E\[S_t\] overflows"):
        g.expected_asset_price(spec, 1.0)
    below = make_spec(g.Gamma(m=1.0), 0.25, 0.5, r=1.0, s0=1e307)
    assert g.expected_asset_price(below, 1.0) == 1e307 * math.exp(1.0 + below.premium)


class _Exponentials(_Constructions):
    """(file, function) of each np.exp or math.exp call, of each np.errstate
    call and of each name or attribute `contextmanager`."""

    def __init__(self, filename):
        super().__init__(filename)
        self.errstates, self.managers = [], []

    def visit_Call(self, node):
        owner = getattr(getattr(node.func, "value", None), "id", None)
        name = getattr(node.func, "attr", None), owner
        if name in (("exp", "np"), ("exp", "math")):
            self.sites.append((self.filename, *self.scope[-1:]))
        elif name == ("errstate", "np"):
            self.errstates.append((self.filename, *self.scope[-1:]))
        self.generic_visit(node)

    def visit_Name(self, node):
        if node.id == "contextmanager":
            self.managers.append((self.filename, *self.scope[-1:]))

    def visit_Attribute(self, node):
        if node.attr == "contextmanager":
            self.managers.append((self.filename, *self.scope[-1:]))
        self.generic_visit(node)


def test_values_are_exponentiated_only_in_pricing_exp():
    sites, errstates, managers = [], [], []
    for module in (pricing, multifactor, cli):
        visitor = _Exponentials(Path(module.__file__).name)
        visitor.visit(ast.parse(Path(module.__file__).read_text()))
        sites += visitor.sites
        errstates += visitor.errstates
        managers += visitor.managers
    # Once by math.exp for a float log and once by np.exp for anything else.
    assert sites == [("pricing.py", "_exp")] * 2
    # _exp judges overflow on the log: no error context decides it, and only
    # log_value silences numpy while it forms the log.
    assert errstates == [("pricing.py", "log_value")]
    assert managers == []


class _LogValueCalls(_Constructions):
    """(file, function) of each call of log_value."""

    def visit_Call(self, node):
        if "log_value" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            self.sites.append((self.filename, *self.scope[-1:]))
        self.generic_visit(node)


def test_log_value_is_called_only_by_the_one_value_route():
    # Every kernel and price value is pricing._value's; exact_call's constant
    # log parts and the simulate summary's log draws are the other two.
    sites = []
    for path in sorted(Path(g.__file__).parent.glob("*.py")):
        visitor = _LogValueCalls(path.name)
        visitor.visit(ast.parse(path.read_text()))
        sites += visitor.sites
    assert sorted(sites) == [("cli.py", "cmd_simulate"), ("options.py", "exact_call"),
                             ("options.py", "exact_call"), ("pricing.py", "_value")]
