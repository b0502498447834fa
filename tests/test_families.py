"""The family contract: adding a family means one class in `exponents` plus
one entry in `conftest.DEFAULT_MODELS`."""

import ast
import dataclasses
import importlib
import inspect
import math
import textwrap
from pathlib import Path

import numpy as np
import pytest

import glevy as g
from glevy.exponents import FAMILIES, Gamma, LevyModel, Mirrored, ScaledGamma, _checked, _Scaled
from glevy.multifactor import VectorGlm
from glevy.options import OptionSpec
from glevy.pricing import Component, GlmSpec
from conftest import ASYMMETRIC, DEFAULT_MODELS, assert_close


def test_every_family_has_a_default_model():
    assert set(DEFAULT_MODELS) == set(FAMILIES)


def test_package_exports_each_modules_public_names():
    # Each module's __all__ (every class, for errors) is the one declaration.
    modules = [importlib.import_module(f"glevy.{name}") for name in
               ("errors", "exponents", "premium", "pricing", "sampling", "options", "multifactor")]
    declared = {}
    for module in modules:
        names = getattr(module, "__all__", None) or [
            name for name, obj in vars(module).items()
            if isinstance(obj, type) and obj.__module__ == module.__name__]
        declared.update((name, getattr(module, name)) for name in names)
    public = {name for name, obj in vars(g).items()
              if not name.startswith("_") and not isinstance(obj, type(g))}
    assert public == set(declared)
    assert all(getattr(g, name) is obj for name, obj in declared.items())
    assert "simulate_path" not in public  # paths are drawn one way, by simulate_paths


def _owner(cls, name):
    """The class on cls's MRO that defines name, or None."""
    return next((k for k in cls.__mro__ if name in vars(k)), None)


@pytest.mark.parametrize("cls", [*FAMILIES.values(), Mirrored])
def test_family_owns_its_sampler(cls):
    assert _owner(cls, "increments") not in (None, LevyModel)


@pytest.mark.parametrize("cls", [*FAMILIES.values(), Mirrored])
def test_family_defines_only_check_free_formulas(cls):
    # The gate alone checks psi's argument; a family only writes the formulas,
    # itself or through the scaling rule, and its class statement defines no
    # psi, psi_prime or psi_second. Each of those is a `_checked` entry bound
    # to the formula cls resolves, under its own name (Poisson's psi_second
    # is its psi_prime formula).
    body = ast.parse(textwrap.dedent(inspect.getsource(cls))).body[0].body
    defined = {getattr(node, "name", None) for node in body}  # def and class statements
    defined |= {target.id for node in body
                for target in [*getattr(node, "targets", ()), getattr(node, "target", None)]
                if isinstance(target, ast.Name)}  # =, annotated and for-loop bindings
    assert not {"psi", "psi_prime", "psi_second"} & defined
    gate = _checked(None, "psi").__code__
    for name in ("psi", "psi_prime", "psi_second"):
        assert _owner(cls, "_" + name) not in (None, LevyModel)
        entry = getattr(cls, name)
        assert entry.__code__ is gate
        assert inspect.getclosurevars(entry).nonlocals == {
            "formula": getattr(cls, "_" + name), "name": name}


@dataclasses.dataclass(frozen=True)
class _GammaMinusPoisson(Gamma):
    """A family defined outside the library: a gamma process minus an
    independent unit-rate Poisson process, psi(a) = -m ln(1 - a) + e^{-a} - 1.
    It overrides only psi's formula and keeps Gamma's domain and derivatives."""

    def _psi(self, a, xp=math):
        return -self.m * xp.log1p(-a) + xp.expm1(-a)


def test_family_subclass_gets_its_own_gate():
    model = _GammaMinusPoisson(m=1.5)
    assert vars(_GammaMinusPoisson)["psi"] is not Gamma.psi
    assert model.psi(0.5) == -1.5 * math.log1p(-0.5) + math.expm1(-0.5) != Gamma(1.5).psi(0.5)
    assert model.psi_prime(0.5) == Gamma(1.5).psi_prime(0.5)
    with pytest.raises(g.DomainViolation):
        model.psi(1.0)
    with pytest.raises(g.ParamOutOfRange, match="psi overflows a float"):
        model.psi(-1000.0)
    with pytest.raises(g.ParamOutOfRange, match="must be a number or a numeric array"):
        model.psi("half")
    alpha = np.array([-1.0, 0.0, 0.5])
    assert model.psi(alpha).tolist() == _GammaMinusPoisson._psi(model, alpha, np).tolist()
    with pytest.raises(g.ParamOutOfRange, match="psi overflows a float"):
        model.psi(np.array([-1000.0]))


class _ExponentOnly(LevyModel):
    """A family that declares its domain and exponent formula and nothing else."""

    domain = g.Interval(-1.0, 1.0)

    def _psi(self, a, xp=math):
        return 0.5 * a * a


def test_family_without_a_sampler_or_jump_measure_is_unsupported():
    model = _ExponentOnly()
    assert model.psi(0.5) == 0.125
    with pytest.raises(g.Unsupported, match="sampling not supported for family _ExponentOnly"):
        g.sample_increments(model, 1.0, 3, g.Rng(1))
    with pytest.raises(g.Unsupported, match="Levy measure not supported"):
        g.premium_via_levy_measure(model, 0.1, 0.2)


@pytest.mark.parametrize("cls", [*FAMILIES.values(), Mirrored])
def test_family_formulas_serve_floats_and_arrays(cls):
    # One formula per family: it takes xp (math for a float, numpy for an array)
    # and calls its functions through xp, none through math.
    for name in ("_psi", "_psi_prime", "_psi_second"):
        tree = ast.parse(textwrap.dedent(inspect.getsource(getattr(cls, name))))
        func = tree.body[0]
        assert [arg.arg for arg in func.args.args] == ["self", "a", "xp"], (cls, name)
        calls = [node.func for node in ast.walk(func) if isinstance(node, ast.Call)]
        assert not [f for f in calls if getattr(getattr(f, "value", None), "id", None) == "math"]


SCALING_RULE = ("domain", "_psi", "_psi_prime", "_psi_second", "increments", "levy_measure",
                "terminal_law")


@pytest.mark.parametrize("cls", [ScaledGamma, Mirrored])
def test_scaled_family_takes_every_member_from_the_scaling_rule(cls):
    assert not set(SCALING_RULE) & set(vars(cls))
    assert all(_owner(cls, name) is _Scaled for name in SCALING_RULE)


@pytest.mark.parametrize("cls", [*FAMILIES.values(), Mirrored])
def test_family_leaves_construction_to_levy_model(cls):
    # LevyModel alone checks the parameters and builds the domain.
    assert "__post_init__" not in vars(cls)


@pytest.mark.parametrize("cls", [*FAMILIES.values(), Component, GlmSpec, VectorGlm, OptionSpec])
def test_every_float_parameter_declares_its_check(cls):
    floats = [f for f in dataclasses.fields(cls) if f.type in ("float", "float | None")]
    assert all(callable(f.metadata.get("check")) for f in floats)


@pytest.mark.parametrize("name", ASYMMETRIC)
@pytest.mark.parametrize("dt", [1e-4, 0.25, 3.0])
def test_mirror_samples_the_negated_draws(name, dt):
    model, _, _ = DEFAULT_MODELS[name]
    mirrored = g.sample_increments(g.mirror(model), dt, 1000, g.Rng(13, 2))
    direct = g.sample_increments(model, dt, 1000, g.Rng(13, 2))
    assert np.array_equal(mirrored, -direct)


@pytest.mark.parametrize("m,dt", [(2.0, 0.1), (0.7, 1.5)])
def test_vg_gamma_difference_is_the_family_sampler(m, dt):
    dual = g.vg_dual_sample(m, dt, g.Rng(3), method="GammaDifference", size=1000)
    family = g.sample_increments(g.VarianceGamma(m=m), dt, 1000, g.Rng(3))
    assert np.array_equal(dual, family)


# ScaledGamma(m, kappa) at (lam, sig) is Gamma(m) at (kappa lam, kappa sig), and
# so are their mirrors: c X at (lam, sig) is X at (c lam, c sig).
SCALING_CASES = [(m, kappa, mirrored) for m in (0.7, 2.0) for kappa in (0.25, 0.5, 3.0)
                 for mirrored in (False, True)]
SCALING_IDS = [f"m={m}-kappa={k}" + ("-mirror" if mir else "") for m, k, mir in SCALING_CASES]


def _scaled_and_root(m, kappa, mirrored):
    scaled, root = g.ScaledGamma(m=m, kappa=kappa), g.Gamma(m=m)
    return (g.mirror(scaled), g.mirror(root)) if mirrored else (scaled, root)


@pytest.mark.parametrize("m,kappa,mirrored", SCALING_CASES, ids=SCALING_IDS)
@pytest.mark.parametrize("lam,sig", [(0.1, 0.2), (0.25, 0.3)])
def test_scaled_gamma_premium_is_gammas_at_scaled_parameters(m, kappa, mirrored, lam, sig):
    scaled, root = _scaled_and_root(m, kappa, mirrored)
    want = g.risk_premium(root, kappa * lam, kappa * sig)
    assert g.risk_premium(scaled, lam, sig) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("m,kappa,mirrored", SCALING_CASES, ids=SCALING_IDS)
def test_scaled_gamma_exact_call_is_gammas_at_scaled_parameters(m, kappa, mirrored):
    scaled, root = _scaled_and_root(m, kappa, mirrored)
    lam, sig = 0.25, 0.3
    spec = g.GlmSpec(model=scaled, r=0.02, lam=lam, sig=sig)
    twin = g.GlmSpec(model=root, r=0.02, lam=kappa * lam, sig=kappa * sig)
    for strike in (0.8, 1.05, 1.5):
        for expiry in (0.25, 2.0):
            opt = g.OptionSpec(strike=strike, expiry=expiry)
            assert g.exact_call(spec, opt) == pytest.approx(g.exact_call(twin, opt), rel=1e-9)


@pytest.mark.parametrize("m,kappa,mirrored", SCALING_CASES, ids=SCALING_IDS)
@pytest.mark.parametrize("dt", [1e-4, 0.25, 3.0])
def test_scaled_gamma_draws_are_kappa_times_gammas(m, kappa, mirrored, dt):
    scaled, _ = _scaled_and_root(m, kappa, mirrored)
    c = -kappa if mirrored else kappa
    draws = g.sample_increments(scaled, dt, 1000, g.Rng(17))
    assert np.array_equal(draws, c * g.sample_increments(g.Gamma(m=m), dt, 1000, g.Rng(17)))


def test_mirrored_asymmetric_vg_levy_measure_is_the_reflected_root():
    avg = g.AsymmetricVG(m=1.5, mu=0.2, s=0.8)
    mirrored = g.mirror(avg)
    log_f, log_root = mirrored.levy_measure().log_density, avg.levy_measure().log_density
    for x in (0.7, -0.7, 3.0, -3.0):
        assert log_f(-x) == log_root(x)
    for lam, sig in [(0.4, 0.6), (0.1, 0.2), (0.3, 0.05)]:
        assert_close(g.premium_via_levy_measure(mirrored, lam, sig),
                     g.risk_premium(mirrored, lam, sig), 1e-8, "mirrored AVG LK oracle")


LAW_CASES = {**{name: DEFAULT_MODELS[name] for name in FAMILIES},
             **{f"mirror-{name}": (g.mirror(DEFAULT_MODELS[name][0]), *DEFAULT_MODELS[name][1:])
                for name in ASYMMETRIC}}


@pytest.mark.parametrize("name", list(LAW_CASES))
def test_family_terminal_law_prices_or_is_unsupported(name):
    model, lam, sig = LAW_CASES[name]
    spec = g.GlmSpec(model=model, r=0.02, lam=lam, sig=sig)
    opt = g.OptionSpec(strike=1.05, expiry=1.0)
    # A scaled model (ScaledGamma, a mirror) has a law exactly when its root does.
    root, _ = getattr(model, "_scaling", (model, 1.0))
    if "terminal_law" not in vars(type(root)):
        with pytest.raises(g.Unsupported):
            g.exact_call(spec, opt)
        return
    res = g.mc_call_price(spec, opt, n=200_000, rng=g.Rng(41))
    assert abs(res.estimate - g.exact_call(spec, opt)) < 4.0 * res.stderr


@pytest.mark.parametrize("name", list(FAMILIES))
def test_mirrored_spec_round_trips(name):
    model, lam, sig = DEFAULT_MODELS[name]
    spec = g.GlmSpec(model=g.mirror(model), r=0.02, lam=lam, sig=sig, s0=1.3)
    assert g.spec_from_dict(g.spec_to_dict(spec)) == spec


@pytest.mark.parametrize("name", ["brownian_exact_call", "poisson_exact_call",
                                  "gamma_exact_call"])
def test_old_pricer_names_are_the_one_pricer(name):
    assert getattr(g, name) is g.exact_call


class _ModelDispatches(ast.NodeVisitor):
    """(file, innermost function) of each isinstance call against a model class."""

    def __init__(self, module, filename):
        self.module, self.filename = module, filename
        self.scope, self.sites = ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        if getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            classes = []
            for ref in ast.walk(node.args[1]):
                if isinstance(ref, ast.Name):
                    obj = getattr(self.module, ref.id, None)
                    classes += obj if isinstance(obj, tuple) else [obj]
            if any(isinstance(c, type) and issubclass(c, LevyModel) for c in classes):
                self.sites.append((self.filename, self.scope[-1]))
        self.generic_visit(node)


def test_only_mirror_dispatches_on_the_model_class():
    sites = []
    for path in sorted(Path(g.__file__).parent.glob("*.py")):
        name = "glevy" if path.stem == "__init__" else f"glevy.{path.stem}"
        visitor = _ModelDispatches(importlib.import_module(name), path.name)
        visitor.visit(ast.parse(path.read_text()))
        sites += visitor.sites
    assert sites == [("exponents.py", "mirror")] * 2
