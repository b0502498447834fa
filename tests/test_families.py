"""The family contract: adding a family means one class in `exponents` plus
one entry in `conftest.DEFAULT_MODELS`."""

import ast
import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

import glevy as g
from glevy.exponents import FAMILIES, LevyModel, Mirrored
from glevy.multifactor import VectorGlm
from glevy.options import OptionSpec
from glevy.pricing import Component, GlmSpec
from conftest import ASYMMETRIC, DEFAULT_MODELS


def test_every_family_has_a_default_model():
    assert set(DEFAULT_MODELS) == set(FAMILIES)


@pytest.mark.parametrize("cls", [*FAMILIES.values(), Mirrored])
def test_family_owns_its_sampler(cls):
    assert "increments" in vars(cls)


@pytest.mark.parametrize("cls", [*FAMILIES.values(), Mirrored])
def test_family_defines_only_check_free_formulas(cls):
    # LevyModel alone checks psi's argument; a family only writes the formulas.
    assert {"_psi", "_psi_prime", "_psi_second"} <= set(vars(cls))
    assert not {"psi", "psi_prime", "psi_second"} & set(vars(cls))


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


def test_mirrored_asymmetric_vg_has_no_levy_measure():
    with pytest.raises(g.Unsupported):
        g.mirror(g.AsymmetricVG(m=1.5, mu=0.2, s=0.8)).levy_measure()


LAW_CASES = {**{name: DEFAULT_MODELS[name] for name in FAMILIES},
             **{f"mirror-{name}": (g.mirror(DEFAULT_MODELS[name][0]), *DEFAULT_MODELS[name][1:])
                for name in ASYMMETRIC}}


@pytest.mark.parametrize("name", list(LAW_CASES))
def test_family_terminal_law_prices_or_is_unsupported(name):
    model, lam, sig = LAW_CASES[name]
    spec = g.GlmSpec(model=model, r=0.02, lam=lam, sig=sig)
    opt = g.OptionSpec(strike=1.05, expiry=1.0)
    # A mirror has a law exactly when its base does.
    if "terminal_law" not in vars(type(getattr(model, "base", model))):
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
