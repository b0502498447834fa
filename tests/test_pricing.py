"""Tests for pricing-kernel, asset, FX, and dividend valuation."""

import ast
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import glevy as g
from glevy import exponents, multifactor, pricing
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
    log_s = math.log(vglm.s0) + vglm.r * t
    for i, c in enumerate(vglm.components):
        log_s = log_s + c.premium * t + c.sig * x[..., i] - t * c.model.psi(c.sig)
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


_VALUE_FUNCTIONS = [g.kernel_value, g.asset_value, g.fx_value, g.inverse_fx_value,
                    g.dividend_asset_value]
_VECTOR_VALUE_FUNCTIONS = [g.vector_kernel_value, g.vector_asset_value]


def _time_check_models():
    spec = make_spec(g.Gamma(m=1.0), 0.25, 0.5, r=0.03, s0=1.3, f=0.01,
                     gamma_growth=0.005, d0=0.05)
    vglm = g.VectorGlm(components=(g.Component(g.Gamma(m=1.0), 0.25, 0.5),
                                   g.Component(g.Brownian(), 0.2, 0.5)), r=0.03, s0=1.3)
    return spec, vglm


@pytest.mark.parametrize("t", [-1.0, math.inf, math.nan])
def test_value_functions_reject_bad_time(t):
    # Once t = -1 gave a value and t = inf or nan gave nan with a RuntimeWarning.
    spec, vglm = _time_check_models()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in _VALUE_FUNCTIONS:
            with pytest.raises(g.ParamOutOfRange):
                fn(spec, 0.1, t)
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


def test_glm_spec_is_a_component():
    assert issubclass(g.GlmSpec, g.Component)
    assert multifactor.Component is pricing.Component is g.Component


def test_glm_spec_serves_as_a_vector_component():
    model, lam, sig = DEFAULT_MODELS["Gamma"]
    spec = make_spec(model, lam, sig, r=0.03, s0=1.3)
    vglm = g.VectorGlm(components=(spec,), r=spec.r, s0=spec.s0)
    assert g.vector_premium(vglm) == spec.premium
    x, t = np.array([-0.4, 0.1, 0.9]), 1.7
    assert np.allclose(g.vector_asset_value(vglm, x[:, None], t), g.asset_value(spec, x, t),
                       rtol=1e-14, atol=0.0)
    assert np.allclose(g.vector_kernel_value(vglm, x[:, None], t),
                       g.kernel_value(spec, x, t), rtol=1e-14, atol=0.0)


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
    assert sorted(sites) == [
        ("exponents.py", "LevyModel", "_on_array"),  # the gate's check of an array
        ("exponents.py", "_checked", "entry"),  # the gate: every psi, psi_prime and psi_second
    ]
