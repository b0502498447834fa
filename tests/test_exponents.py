"""Unit tests for the cumulant-generating-rate families."""

import dataclasses
import math
import pickle
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import glevy as g
from glevy.exponents import DOMAIN_MARGIN
from conftest import (
    ASYMMETRIC,
    DEFAULT_MODELS,
    FAMILY_NAMES,
    assert_close,
    central_diff,
    interior_points,
)


def test_psi_at_zero_is_zero(family_case):
    model, _, _ = family_case
    assert model.psi(0.0) == pytest.approx(0.0, abs=1e-15)


def test_closed_form_values():
    assert g.Brownian().psi(0.5) == pytest.approx(0.125, rel=1e-15)
    assert g.Poisson(m=2.0).psi(1.0) == pytest.approx(2.0 * (math.e - 1.0), rel=1e-15)
    assert g.Gamma(m=1.0).psi(0.5) == pytest.approx(-math.log(0.5), rel=1e-15)
    assert g.ScaledGamma(m=1.0, kappa=2.0).psi(0.25) == pytest.approx(
        -math.log(0.5), rel=1e-15
    )
    assert g.VarianceGamma(m=2.0).psi(1.0) == pytest.approx(
        -2.0 * math.log(0.75), rel=1e-15
    )
    assert g.NegativeBinomial(m=1.0, q=0.5).psi(math.log(1.5)) == pytest.approx(
        math.log(0.5 / 0.25), rel=1e-15
    )
    cpn = g.CompoundPoissonNormal(m=2.0, s=0.5)
    assert cpn.psi(1.0) == pytest.approx(2.0 * (math.exp(0.125) - 1.0), rel=1e-15)
    avg = g.AsymmetricVG(m=1.5, mu=0.2, s=0.8)
    a = 0.4
    inner = 1.0 - (0.2 / 1.5) * a - (0.64 / 3.0) * a * a
    assert avg.psi(a) == pytest.approx(-1.5 * math.log(inner), rel=1e-14)


def test_domain_endpoints():
    assert g.Gamma(m=1.0).domain.upper == 1.0
    assert g.Gamma(m=1.0).domain.lower == -math.inf
    assert g.ScaledGamma(m=1.0, kappa=0.5).domain.upper == pytest.approx(2.0)
    vg = g.VarianceGamma(m=2.0)
    assert vg.domain.upper == pytest.approx(2.0)
    assert vg.domain.lower == pytest.approx(-2.0)
    nb = g.NegativeBinomial(m=1.0, q=0.5)
    assert nb.domain.upper == pytest.approx(math.log(2.0))
    assert nb.domain.lower == -math.inf
    assert g.Brownian().domain.upper == math.inf

    avg = g.AsymmetricVG(m=1.5, mu=0.2, s=0.8)
    m, mu, s2 = 1.5, 0.2, 0.64
    root = math.sqrt(mu * mu + 2.0 * m * s2)
    k1 = (mu + root) / (2.0 * m)
    k2 = (-mu + root) / (2.0 * m)
    assert avg.domain.upper == pytest.approx(1.0 / k1, rel=1e-14)
    assert avg.domain.lower == pytest.approx(-1.0 / k2, rel=1e-14)
    # Interior values finite, endpoint rejected.
    assert math.isfinite(avg.psi(1.0 / k1 - 1e-6))
    with pytest.raises(g.DomainViolation):
        avg.psi(1.0 / k1)


def test_param_validation():
    with pytest.raises(g.ParamOutOfRange):
        g.Poisson(m=-1.0)
    with pytest.raises(g.ParamOutOfRange):
        g.Gamma(m=0.0)
    with pytest.raises(g.ParamOutOfRange):
        g.ScaledGamma(m=1.0, kappa=-0.5)
    with pytest.raises(g.ParamOutOfRange):
        g.NegativeBinomial(m=1.0, q=1.0)
    with pytest.raises(g.ParamOutOfRange):
        g.NegativeBinomial(m=1.0, q=0.0)
    with pytest.raises(g.ParamOutOfRange):
        g.CompoundPoissonNormal(m=1.0, s=0.0)
    with pytest.raises(g.ParamOutOfRange):
        g.AsymmetricVG(m=1.0, mu=0.2, s=-0.1)


@pytest.mark.parametrize("build", [
    lambda: g.Gamma(m=math.inf),
    lambda: g.Poisson(m=math.inf),
    lambda: g.ScaledGamma(m=1.0, kappa=math.inf),
    lambda: g.AsymmetricVG(m=1.0, mu=math.nan, s=0.5),
    lambda: g.AsymmetricVG(m=1.0, mu=-math.inf, s=0.5),
], ids=["Gamma-m-inf", "Poisson-m-inf", "ScaledGamma-kappa-inf", "AsymmetricVG-mu-nan",
        "AsymmetricVG-mu-inf"])
def test_non_finite_family_parameter_rejected(build):
    with pytest.raises(g.ParamOutOfRange):
        build()


_RANGE_RULES = {
    "_positive": ("must be finite and > 0", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0,
                                             -5e-324]),
    "_nonnegative": ("must be finite and >= 0", [math.nan, math.inf, -math.inf, -1.0, -5e-324]),
    "_finite": ("must be finite", [math.nan, math.inf, -math.inf]),
    "_unit": ("must lie in (0, 1)", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1, 1.0,
                                     -5e-324]),
}
_NOT_NUMBERS = ["x", None, [1.0], 10**400, -10**400]


@pytest.mark.parametrize("rule", list(_RANGE_RULES))
def test_range_rule_messages(rule):
    # Each range check converts with float, then names the parameter, the
    # converted value and the constraint; a non-number names the raw value.
    from glevy import exponents

    check, (constraint, rejected) = getattr(exponents, rule), _RANGE_RULES[rule]
    for value in rejected:
        with pytest.raises(g.ParamOutOfRange) as info:
            check("p", value)
        assert str(info.value) == f"parameter p={float(value)!r} violates: {constraint}"
    for value in _NOT_NUMBERS:
        with pytest.raises(g.ParamOutOfRange) as info:
            check("p", value)
        assert str(info.value) == f"parameter p={value!r} violates: must be a number"
    for value in (5e-324, 0.5, "0.25"):
        assert check("p", value) == float(value)


def test_domain_violation(family_case):
    model, _, _ = family_case
    up = model.domain.upper
    if math.isfinite(up):
        with pytest.raises(g.DomainViolation):
            model.psi(up + 0.1)
        with pytest.raises(g.DomainViolation):
            model.psi(up)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_non_finite_arguments_rejected(family_case, alpha):
    model, _, _ = family_case
    for m in (model, g.mirror(model)):
        for f in (m.psi, m.psi_prime, m.psi_second):
            with pytest.raises(g.DomainViolation):
                f(alpha)


def _four_branch_admissible(interval, alpha):
    """Reference: the endpoint-by-endpoint admissibility test."""
    lo, hi = interval.lower, interval.upper
    if math.isfinite(lo) and alpha < lo + DOMAIN_MARGIN * max(1.0, abs(lo)):
        return False
    if math.isinf(lo) and not alpha > lo:
        return False
    if math.isfinite(hi) and alpha > hi - DOMAIN_MARGIN * max(1.0, abs(hi)):
        return False
    if math.isinf(hi) and not alpha < hi:
        return False
    return True


_MODELS = [m for base, _, _ in DEFAULT_MODELS.values() for m in (base, g.mirror(base))]
_FINITE_ENDPOINTS = [(m.domain, e) for m in _MODELS
                     for e in (m.domain.lower, m.domain.upper) if math.isfinite(e)]


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_admissible_matches_four_branch_reference(data):
    interval, e = data.draw(st.sampled_from(_FINITE_ENDPOINTS))
    margin = DOMAIN_MARGIN * max(1.0, abs(e))
    limit = e + margin if e < 0.0 else e - margin
    alpha = data.draw(st.one_of(
        st.integers(-64, 64).map(lambda k: limit + k * math.ulp(limit)),
        st.floats(e - 2.0 * margin, e + 2.0 * margin),
        st.floats(allow_nan=False)))
    assert interval.admissible(alpha) == _four_branch_admissible(interval, alpha)


@pytest.mark.parametrize("model", [g.AsymmetricVG(m=1.0, mu=1e20, s=1.0),
                                   g.NegativeBinomial(m=1.0, q=1.0 - 1e-12)],
                         ids=["AsymmetricVG-mu-1e20", "NegativeBinomial-q-near-1"])
def test_endpoint_nearer_zero_than_the_margin_admits_zero(model):
    # The upper endpoint, about 1e-20 or 1e-12, lies within DOMAIN_MARGIN of 0.
    for m in (model, g.mirror(model)):
        assert m.psi(0.0) == 0.0


@pytest.mark.parametrize("e", [5e-324, 1e-300, 1e-12, 1.5e-9, 2e-9])
def test_inclusive_limits_of_a_tiny_interval_admit_only_its_interior(e):
    interval = g.Interval(-e, e)
    assert interval.admissible(0.0)
    assert not interval.admissible(e) and not interval.admissible(-e)


_DISTINCT_MODELS = list(dict.fromkeys(_MODELS))  # 8 families and 5 distinct mirrors


def _inclusive_limits(interval):
    """The limits of the admissible set: a margin inside each finite endpoint,
    the largest finite float beyond an infinite one."""
    limits = []
    for e in (interval.lower, interval.upper):
        if math.isinf(e):
            limits.append(math.copysign(sys.float_info.max, e))
        else:
            margin = DOMAIN_MARGIN * max(1.0, abs(e))
            limits.append(e + margin if e < 0.0 else e - margin)
    return limits


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_checked_call_raises_exactly_outside_the_admissible_set(data):
    model = data.draw(st.sampled_from(_DISTINCT_MODELS))
    method = data.draw(st.sampled_from(["psi", "psi_prime", "psi_second"]))
    dom = model.domain
    limit = data.draw(st.sampled_from(_inclusive_limits(dom)))
    alpha = data.draw(st.one_of(
        st.integers(-64, 64).map(lambda k: limit + k * math.ulp(limit)),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.integers(-2**53, 2**53),
        st.floats()))
    if isinstance(alpha, float) and data.draw(st.booleans()):
        alpha = np.float64(alpha)
    admissible = dom.admissible(alpha)
    try:
        getattr(model, method)(alpha)
    except g.DomainViolation as e:
        assert not admissible
        assert e.interval == dom
        assert str(e) == f"alpha={float(alpha)} outside admissible interval {dom}"
        return
    except g.ParamOutOfRange:  # the formula, not the check: e.g. expm1 of an admissible 1e300
        pass
    assert admissible


@pytest.mark.parametrize("call, method", [
    (lambda: g.Gamma(m=1.0).psi_second(-1e200), "psi_second"),
    (lambda: g.CompoundPoissonNormal(m=1.0, s=1.0).psi(40.0), "psi"),
    (lambda: g.Brownian().psi(10**400), "psi"),
    (lambda: g.mirror(g.Poisson(m=1.0)).psi(-800.0), "psi"),
], ids=["Gamma-psi_second", "CPN-psi", "Brownian-huge-int", "mirrored-Poisson-psi"])
def test_overflowing_psi_raises_param_out_of_range(call, method):
    # A formula (or float(alpha)) that raises OverflowError surfaces as a typed error.
    with pytest.raises(g.ParamOutOfRange, match=f"{method} overflows a float") as info:
        call()
    assert info.value.name == "alpha" and info.value.__cause__ is None


@pytest.mark.parametrize("call", [
    lambda: g.make_model("Poisson", {"m": 10**5000}),
    lambda: g.Brownian().psi(10**5000),
], ids=["make_model-param", "Brownian-psi"])
def test_int_beyond_the_str_digit_limit_raises_param_out_of_range(call):
    # The message describes such an int; repr of it would raise ValueError.
    with pytest.raises(g.ParamOutOfRange, match=r"=<(dict|int) too long to print> "):
        call()


def test_domain_is_built_at_construction(family_case):
    model, _, _ = family_case
    for m in (dataclasses.replace(model), g.mirror(dataclasses.replace(model))):
        assert "domain" in vars(m) or isinstance(vars(type(m)).get("domain"), g.Interval)


def test_unbuildable_domain_fails_at_construction():
    # kappa1 = (mu + hypot(mu, s sqrt(2m)))/2m overflows a float.
    with pytest.raises(g.ParamOutOfRange):
        g.AsymmetricVG(m=1.0, mu=1e308, s=1.0)


@pytest.mark.parametrize("mu", [1e154, -1e154, 1e200, -1e200])
def test_asymmetric_vg_with_nan_psi_at_a_limit_fails_at_construction(mu):
    # b a and c a^2 at the far inclusive limit overflow to inf - inf.
    with pytest.raises(g.ParamOutOfRange, match=r"\(m, mu, s\)"):
        g.AsymmetricVG(m=1.0, mu=mu, s=1.0)


@pytest.mark.parametrize("mu", [1e150, -1e150])
def test_asymmetric_vg_with_huge_drift_builds_with_finite_psi_at_its_limits(mu):
    model = g.AsymmetricVG(m=1.0, mu=mu, s=1.0)
    for a in (model.domain._lo, model.domain._hi):
        assert math.isfinite(model.psi(a))


def test_evaluation_builds_no_interval(family_case, monkeypatch):
    model, lam, sig = family_case
    models = (model, g.mirror(model))
    for m in models:
        m.domain
    built = []
    post_init = g.Interval.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(g.Interval, "__post_init__", counting)
    for m in models:
        for a in (0.0, 0.5 * sig, -0.5 * lam):
            m.psi(a), m.psi_prime(a), m.psi_second(a)
    g.risk_premium(model, lam, sig)
    assert built == []


def _values(model, alphas):
    return [(model.psi(a), model.psi_prime(a), model.psi_second(a)) for a in alphas]


def test_domain_cache_keeps_value_semantics(family_case):
    model, lam, sig = family_case
    alphas = (0.5 * sig, -0.5 * lam)
    for m in (model, g.mirror(model)):
        fresh = dataclasses.replace(m)
        text, digest = repr(fresh), hash(fresh)
        m.domain
        values = _values(m, alphas)  # fills every cached property of the model
        assert m == fresh and hash(m) == digest and repr(m) == text
        back = pickle.loads(pickle.dumps(m))
        assert back == m and hash(back) == digest and repr(back) == text
        assert back.domain == m.domain and _values(back, alphas) == values
        bound = pickle.loads(pickle.dumps((m.psi, m.psi_prime, m.psi_second)))
        assert [tuple(f(a) for f in bound) for a in alphas] == values


_LOG_UNIFORM = st.floats(-2.0, 2.0).map(lambda u: 10.0**u)


def _asymmetric_vg_reference(m, mu, s, a):
    """(psi', psi'') of AsymmetricVG(m, mu, s) at a, with u(a) formed from
    the parameters at every call: the reference the cached coefficients keep."""
    u = 1.0 - (mu / m) * a - (s**2 / (2.0 * m)) * a * a
    v = mu + s**2 * a
    return (mu + s**2 * a) / u, (s**2 * u + v * v / m) / (u * u)


def _bits(values):
    return [float(v).hex() for v in values]


def _psi_mpmath(model, a):
    """(psi(a), error bound) for an AsymmetricVG or NegativeBinomial model.

    psi = -m log1p(u) is evaluated to 60 digits from the model's float
    parameters, with u = -(mu/m) a - (s^2/2m) a^2 (AVG) or -q expm1(a)/(1-q)
    (NB). A float evaluation rounds each term of u, an error the log1p
    magnifies by 1/(1 + u). The bound is 4 ulps of |psi| plus m (sum of
    |terms|)/(1 + u), a relative 4 ulps wherever the terms do not cancel,
    plus 4 times the smallest normal float: a subnormal psi or term of u is
    rounded to an absolute, not a relative, precision.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        a, m = mpmath.mpf(a), mpmath.mpf(model.m)
        if isinstance(model, g.AsymmetricVG):
            mu, s = mpmath.mpf(model.mu), mpmath.mpf(model.s)
            terms = (-mu / m * a, -s * s / (2 * m) * a * a)
        else:
            q = mpmath.mpf(model.q)
            terms = (-q * mpmath.expm1(a) / (1 - q),)
        u = sum(terms)
        psi = -m * mpmath.log1p(u)
        scale = abs(psi) + m * sum(abs(t) for t in terms) / (1 + u)
        return float(psi), float(4 * (sys.float_info.epsilon * scale + sys.float_info.min))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(family=st.sampled_from(["AsymmetricVG", "NegativeBinomial"]),
       m=_LOG_UNIFORM, mu=st.floats(-2.0, 2.0), s=st.floats(0.05, 3.0),
       q=st.floats(1e-3, 0.999), sign=st.sampled_from([1.0, -1.0]),
       e=st.floats(-14.0, 0.0))
def test_log1p_exponents_match_mpmath_near_zero(family, m, mu, s, q, sign, e):
    # Log-uniform |alpha| in [1e-14, 1]: psi is about psi'(0) alpha there, and
    # the forms log(1 - b a - c a^2) and log1p(-q) - log1p(-q e^a) lost up to
    # 5e-2 of it to cancellation.
    model = (g.AsymmetricVG(m=m, mu=mu, s=s) if family == "AsymmetricVG"
             else g.NegativeBinomial(m=m, q=q))
    a = sign * 10.0**e
    assume(model.domain.admissible(a))
    want, bound = _psi_mpmath(model, a)
    assert abs(model.psi(a) - want) <= bound
    assert g.mirror(model).psi(-a) == model.psi(a)


@settings(max_examples=300, deadline=None)
@given(m=st.floats(0.05, 20.0), mu=st.floats(-2.0, 2.0), s=st.floats(0.05, 3.0),
       frac=st.floats(-1.0, 1.0))
def test_asymmetric_vg_values_are_the_reference_bit_for_bit(m, mu, s, frac):
    # psi' and psi'' are the reference's bits; psi, a log1p since the reference
    # form lost relative accuracy near 0, is within _psi_mpmath's bound.
    model = g.AsymmetricVG(m=m, mu=mu, s=s)
    dom = model.domain
    a = frac * (dom.upper if frac > 0.0 else -dom.lower)
    assume(dom.admissible(a))
    d1, d2 = _asymmetric_vg_reference(m, mu, s, a)
    psi, got_d1, got_d2 = _values(model, [a])[0]
    assert _bits((got_d1, got_d2)) == _bits((d1, d2))
    want, bound = _psi_mpmath(model, a)
    assert abs(psi - want) <= bound
    assert _bits(_values(g.mirror(model), [-a])[0]) == _bits((psi, -d1, d2))


@settings(max_examples=300, deadline=None)
@given(m=_LOG_UNIFORM, s=_LOG_UNIFORM, sign=st.sampled_from([1.0, -1.0]),
       u=st.floats(-3.0, 308.0))
def test_asymmetric_vg_builds_a_domain_with_finite_ends(m, s, sign, u):
    mu = sign * 10.0**u
    try:
        model = g.AsymmetricVG(m=m, mu=mu, s=s)
    except g.ParamOutOfRange:
        assert abs(mu) > 1e15 * s * math.sqrt(m)
        return
    if abs(mu) <= 1e15 * s * math.sqrt(m):
        for a in (model.domain._lo, model.domain._hi):
            for v in _values(model, [a])[0]:
                assert math.isfinite(v), (a, v)


def test_replace_rebuilds_domain():
    vg = g.VarianceGamma(m=2.0)
    assert vg.domain.upper == pytest.approx(2.0)
    assert dataclasses.replace(vg, m=8.0).domain.upper == pytest.approx(4.0)
    nb = g.mirror(g.NegativeBinomial(m=1.0, q=0.5))
    assert nb.domain.lower == pytest.approx(-math.log(2.0))
    other = dataclasses.replace(nb, base=g.NegativeBinomial(m=1.0, q=0.25))
    assert other.domain.lower == pytest.approx(-math.log(4.0))


def test_replace_rebuilds_asymmetric_vg_coefficients():
    avg = g.AsymmetricVG(m=1.5, mu=0.2, s=0.8)
    alphas = (-0.5, 0.3)
    _values(avg, alphas)  # fills the cached coefficients of the original
    fresh = g.AsymmetricVG(m=1.5, mu=-0.2, s=0.8)
    replaced = dataclasses.replace(avg, mu=-0.2)
    _values(replaced, alphas)
    for other in (replaced, pickle.loads(pickle.dumps(replaced))):
        assert other == fresh and other != avg
        assert hash(other) == hash(fresh) and repr(other) == repr(fresh)
        assert other.domain == fresh.domain
        for a, (psi, d1, d2) in zip(alphas, _values(other, alphas)):
            assert _bits((d1, d2)) == _bits(_asymmetric_vg_reference(1.5, -0.2, 0.8, a))
            want, bound = _psi_mpmath(other, a)
            assert abs(psi - want) <= bound


def test_make_model_and_unsupported():
    m = g.make_model("Gamma", {"m": 2.0})
    assert isinstance(m, g.Gamma) and m.m == 2.0
    with pytest.raises(g.Unsupported):
        g.make_model("JumpDiffusion", {})
    with pytest.raises(g.Unsupported):
        g.make_model("NoSuchFamily", {})


def test_derivatives_match_finite_differences(family_case, np_rng):
    model, _, _ = family_case
    pts = interior_points(model, 20, np_rng)
    for a in pts:
        h = 1e-6 * max(1.0, abs(a))
        fd1 = central_diff(model.psi, a, h)
        fd2 = (model.psi(a + h) - 2.0 * model.psi(a) + model.psi(a - h)) / (h * h)
        assert_close(model.psi_prime(a), fd1, 1e-6, f"psi' at {a}")
        assert abs(model.psi_second(a) - fd2) < 1e-3 * max(1.0, abs(fd2)), (
            f"psi'' at {a}: {model.psi_second(a)} vs {fd2}"
        )


def test_convexity(family_case, np_rng):
    model, _, _ = family_case
    for a in interior_points(model, 50, np_rng):
        assert model.psi_second(a) > 0.0


def test_four_point_exponent_inequality(family_case, np_rng):
    # For a < b <= c < d with a + d = b + c:
    # psi(a) + psi(d) >= psi(b) + psi(c), by convexity of psi.
    model, _, _ = family_case
    for _ in range(200):
        pts = np.sort(interior_points(model, 3, np_rng))
        a, b, c = pts
        d = b + c - a
        if not model.domain.admissible(d) or d <= c:
            continue
        lhs = model.psi(a) + model.psi(d)
        rhs = model.psi(b) + model.psi(c)
        assert lhs >= rhs - 1e-12 * max(1.0, abs(lhs))


def test_variance_gamma_gaussian_limit():
    # As the activity rate grows, the VG exponent approaches alpha^2 / 2.
    a = 0.5
    target = g.Brownian().psi(a)
    err_1e3 = abs(g.VarianceGamma(m=1e3).psi(a) - target)
    err_1e6 = abs(g.VarianceGamma(m=1e6).psi(a) - target)
    assert err_1e6 < err_1e3
    assert err_1e6 < 1e-2


def test_mirror_reflection(family_case, np_rng):
    model, _, _ = family_case
    mm = g.mirror(model)
    for a in interior_points(model, 20, np_rng):
        if not mm.domain.admissible(a):
            continue
        assert mm.psi(a) == pytest.approx(model.psi(-a), rel=1e-14, abs=1e-14)
        assert mm.psi_prime(a) == pytest.approx(
            -model.psi_prime(-a), rel=1e-14, abs=1e-14
        )
        assert mm.psi_second(a) == pytest.approx(
            model.psi_second(-a), rel=1e-14, abs=1e-14
        )


def test_mirror_symmetric_families_fixed():
    for name in ("Brownian", "CompoundPoissonNormal", "VarianceGamma"):
        model, _, _ = DEFAULT_MODELS[name]
        assert g.mirror(model) is model


def test_mirror_involution():
    base = g.Gamma(m=1.0)
    mm = g.mirror(g.mirror(base))
    for a in (-0.5, 0.3, 0.9):
        assert mm.psi(a) == pytest.approx(base.psi(a), rel=1e-15)
    assert mm.domain.lower == base.domain.lower
    assert mm.domain.upper == base.domain.upper


@pytest.mark.parametrize("name", ASYMMETRIC)
@pytest.mark.parametrize("method", ["psi", "psi_prime", "psi_second"])
def test_mirror_domain_violation_names_the_callers_argument(name, method):
    mm = g.mirror(DEFAULT_MODELS[name][0])
    dom = mm.domain
    outside = [math.nan, math.inf, -math.inf]
    outside += [a for a in (dom.lower - 0.5, dom.upper + 0.5) if math.isfinite(a)]
    for alpha in outside:
        with pytest.raises(g.DomainViolation) as info:
            getattr(mm, method)(alpha)
        e = info.value
        assert e.interval == dom
        assert e.alpha == alpha or (math.isnan(alpha) and math.isnan(e.alpha))
        assert str(e) == f"alpha={alpha} outside admissible interval {dom}"


_VG_RATES = [10.0**k for k in range(-3, 7)]


@pytest.mark.parametrize("m", _VG_RATES)
def test_variance_gamma_is_asymmetric_vg_with_zero_drift_bit_for_bit(m):
    vg, avg = g.VarianceGamma(m=m), g.AsymmetricVG(m=m, mu=0.0, s=1.0)
    dom = vg.domain
    assert dom == avg.domain and (dom._lo, dom._hi) == (avg.domain._lo, avg.domain._hi)
    alphas = [dom._lo, dom._hi, 0.0, 1e-3, -1e-300,
              *np.linspace(dom._lo, dom._hi, 41).tolist()]
    assert _bits(np.ravel(_values(vg, alphas))) == _bits(np.ravel(_values(avg, alphas)))
    draws = [model.increments(0.25, 64, g.Rng(7, 3).generator) for model in (vg, avg)]
    assert _bits(draws[0]) == _bits(draws[1])
    log_nu = [model.levy_measure().log_density for model in (vg, avg)]
    for x in (-10.0, -1e-3, 1e-300, 0.5, 40.0):
        assert log_nu[0](x) == log_nu[1](x)
    assert vg.params() == {"m": m} and g.mirror(vg) is vg


def test_variance_gamma_defines_no_formula_of_its_own():
    moved = {"_coefs", "domain", "_psi", "_psi_prime", "_psi_second", "increments",
             "levy_measure"}
    assert not moved & set(vars(g.VarianceGamma))
    assert [f.name for f in dataclasses.fields(g.VarianceGamma)] == ["m"]


@pytest.mark.parametrize("m", [1e308, 1e-309])
def test_variance_gamma_without_finite_kappas_fails_at_construction(m):
    # 2m overflows (so psi(1) was 0.0 on a whole-line domain) or 1/2m does.
    with pytest.raises(g.ParamOutOfRange, match=r"^parameter \(m\)="):
        g.VarianceGamma(m=m)
    with pytest.raises(g.ParamOutOfRange, match=r"\(m, mu, s\)"):
        g.AsymmetricVG(m=m, mu=0.0, s=1.0)


def _vg_closed_forms(m, a):
    """The symmetric VG's own closed forms, -m log1p(-a^2/2m), a/u and
    (1 + a^2/2m)/u^2 with u = 1 - a^2/2m, in floats and to 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    x = a * a / (2.0 * m)
    u = 1.0 - x
    floats = (-m * math.log1p(-x), a / u, (1.0 + x) / (u * u))
    with mpmath.workdps(50):
        a, m = mpmath.mpf(a), mpmath.mpf(m)
        x = a * a / (2 * m)
        u = 1 - x
        exact = (-m * mpmath.log1p(-x), a / u, (1 + x) / (u * u))
    return floats, [float(v) for v in exact]


@pytest.mark.parametrize("band", ["near-zero", "interior", "near-end"])
def test_variance_gamma_is_as_accurate_as_its_closed_forms(band):
    # Against 50 digits at the same alpha, the worst relative error of psi,
    # psi' and psi'' over a band is within one bit of the closed forms'
    # (c a^2 rounds c = 1/2m once more than a^2/2m does). The near-end band
    # holds the inclusive limits, where the error is largest.
    rng = np.random.default_rng(20)
    worst = np.zeros((2, 3))
    for m in _VG_RATES:
        vg = g.VarianceGamma(m=m)
        end = math.sqrt(2.0 * m)
        if band == "near-zero":
            alphas = rng.uniform(-1e-3, 1e-3, 50)
        elif band == "interior":
            alphas = rng.uniform(-0.9, 0.9, 50) * end
        else:
            alphas = np.append(rng.choice([-1.0, 1.0], 50) * rng.uniform(0.9, 1.0, 50) * end,
                               [vg.domain._lo, vg.domain._hi])
        for a in alphas.tolist():
            if not vg.domain.admissible(a):
                continue
            floats, exact = _vg_closed_forms(m, a)
            for row, got in enumerate((_values(vg, [a])[0], floats)):
                err = [abs(v - w) / abs(w) for v, w in zip(got, exact)]
                worst[row] = np.maximum(worst[row], err)
    assert np.all(worst[0] <= 2.0 * worst[1]), worst


def test_failed_quadrature_piece_is_an_infinite_error_estimate():
    # sin(1/x)/x stops the quadrature at its subdivision limit; the piece reports an
    # infinite error instead of an IntegrationWarning.
    nu = g.Measure(log_density=lambda x: 0.0, support=(0.0, 1.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, err = nu.integrate(lambda x, log_w: math.sin(1.0 / x) / x, 0.0, 1.0, 0.0, ())
    assert err == math.inf and not caught
    assert nu.integrate(lambda x, log_w: x, 0.0, 1.0, 0.0, ()) == pytest.approx((0.5, 0.0),
                                                                                abs=1e-13)


# --------------------------------------------------------------------------
# psi, psi' and psi'' on arrays: the same formulas with xp = numpy.
# --------------------------------------------------------------------------

_METHODS = ["psi", "psi_prime", "psi_second"]
# numpy's exp, expm1, log1p and squaring round differently from math's: the
# array values of the 13 models were at most 2 ulps from the scalar ones on
# [max(lo, -3), min(hi, 3)] (psi: 0 for Brownian, 1 for the other families but
# AsymmetricVG and NegativeBinomial, 2 for AsymmetricVG), except NB's.
_ARRAY_ULPS = 4
# NB's formulas take q e^a from 1, which magnifies e^a's rounding by 1/(1 - q e^a)
# near the upper limit (to 5e7 ulps there), so its bound adds how much the scalar
# value moves within 2 ulps(max(1, |a|)) of a, e^a's own rounding (measured: at
# most 1 ulp beyond that).
_CANCELLING = ("NegativeBinomial", "Mirrored[NegativeBinomial]")


@pytest.mark.parametrize("model", _DISTINCT_MODELS, ids=lambda model: model.family)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_array_values_are_the_scalar_values_within_a_few_ulps(model, data):
    lo, hi = max(model.domain._lo, -3.0), min(model.domain._hi, 3.0)
    alphas = data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=16))
    for method in _METHODS:
        f = getattr(model, method)
        got = f(np.array(alphas))
        assert got.shape == (len(alphas),) and got.dtype == np.float64
        for a, value in zip(alphas, got.tolist()):
            want, slack = f(a), 0.0
            if model.family in _CANCELLING:
                u = math.ulp(max(1.0, abs(a)))
                slack = max(abs(f(min(max(a + j * u, lo), hi)) - want) for j in (-2, -1, 1, 2))
            assert abs(value - want) <= _ARRAY_ULPS * math.ulp(want) + slack, (a, method)


@pytest.mark.parametrize("method", _METHODS)
def test_array_values_keep_the_shape_and_take_ints_and_float32(method):
    model = g.mirror(g.Gamma(m=1.5))
    f = getattr(model, method)
    ints, singles = np.array([[0, 1], [3, 7]]), np.array([-0.3, 0.1, 2.5], dtype=np.float32)
    assert f(ints).shape == (2, 2)
    for alphas in (ints, singles):  # each as its float64 value, as float(alpha) is
        for a, value in zip(alphas.ravel().tolist(), f(alphas).ravel().tolist()):
            assert abs(value - f(a)) <= _ARRAY_ULPS * math.ulp(f(a))
    assert f(np.array([])).shape == (0,) and f(np.zeros((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("method", _METHODS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("model", [g.Brownian(), g.Gamma(m=1.0),
                                   g.mirror(g.NegativeBinomial(m=1.0, q=0.5))],
                         ids=lambda model: model.family)
def test_array_outside_the_domain_names_its_first_bad_element(model, method, bad):
    dom = model.domain
    for alpha in (np.array([[0.1, -0.2], [bad, 5.0]]), np.array([0.1j, complex(bad, 1.0)])):
        with pytest.raises(g.DomainViolation) as info:
            getattr(model, method)(alpha)
        want = alpha.ravel()[2 if alpha.ndim == 2 else 1]
        assert str(info.value) == f"alpha={want.item()} outside admissible interval {dom}"
        assert info.value.interval == dom


def test_complex_array_is_checked_on_its_real_parts():
    model = g.Gamma(m=1.0)
    assert np.isfinite(model.psi(np.array([0.9 + 100j, -5.0 - 1e3j]))).all()
    with pytest.raises(g.DomainViolation, match=r"alpha=\(1\.5\+0j\)"):
        model.psi(np.array([0.5j, 1.5 + 0j]))


@pytest.mark.parametrize("call, method", [
    (lambda: g.Poisson(m=1.0).psi(np.array([1.0, 800.0])), "psi"),
    (lambda: g.Poisson(m=1.0).psi_prime(np.array([800.0])), "psi_prime"),
    (lambda: g.mirror(g.Poisson(m=1.0)).psi_second(np.array([0.0, -800.0])), "psi_second"),
    (lambda: g.CompoundPoissonNormal(m=1.0, s=1.0).psi(np.array([40.0])), "psi"),
], ids=["Poisson-psi", "Poisson-psi_prime", "mirrored-Poisson-psi_second", "CPN-psi"])
def test_overflowing_array_raises_param_out_of_range(call, method):
    with pytest.raises(g.ParamOutOfRange, match=f"{method} overflows a float") as info:
        call()
    assert info.value.name == "alpha"


_NON_NUMERIC = ["x", "", None, {}, [0.1], (0.1,), 0.1 + 0j, complex(math.nan, 0.0),
                np.array(["0.1"]), np.array([0.1], dtype=object), np.array([True])]


@pytest.mark.parametrize("method", _METHODS)
def test_non_numeric_argument_raises_param_out_of_range(method):
    # A complex scalar is not a number here; only arrays take the complex path.
    for model in (g.Brownian(), g.Gamma(m=1.0), g.mirror(g.Gamma(m=1.0))):
        for alpha in _NON_NUMERIC:
            with pytest.raises(g.ParamOutOfRange, match="must be a number or a numeric array"):
                getattr(model, method)(alpha)


def _characteristic_function(law, u):
    """E[e^{iuX}] as the cos and sin integrals against law."""
    def part(trig):
        value, err = law.integrate(lambda x, log_w: trig(u * x) * math.exp(log_w),
                                   -math.inf, math.inf, 0.0, (0.0, 1.0, 5.0))
        assert err < 1e-10
        return value
    return complex(part(math.cos), part(math.sin))


@pytest.mark.parametrize("model", [g.Brownian(), g.Poisson(m=1.5), g.Gamma(m=1.2)],
                         ids=lambda model: model.family)
@pytest.mark.parametrize("t", [0.5, 2.0])
def test_exponent_at_iu_gives_the_characteristic_function_of_the_law(model, t):
    u = np.array([0.0, 0.3, 1.0, 2.5, -1.7])
    phi = np.exp(t * model.psi(1j * u))
    law = model.terminal_law(t)
    for ui, want in zip(u.tolist(), phi.tolist()):
        assert abs(_characteristic_function(law, ui) - want) < 1e-9, ui
