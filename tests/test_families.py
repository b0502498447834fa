"""The family contract: adding a family means one class in `exponents` plus
one entry in `conftest.DEFAULT_MODELS`."""

import numpy as np
import pytest

import glevy as g
from glevy.exponents import FAMILIES, Mirrored
from conftest import DEFAULT_MODELS

ASYMMETRIC = ["Poisson", "Gamma", "ScaledGamma", "AsymmetricVG", "NegativeBinomial"]


def test_every_family_has_a_default_model():
    assert set(DEFAULT_MODELS) == set(FAMILIES)


@pytest.mark.parametrize("cls", [*FAMILIES.values(), Mirrored])
def test_family_owns_its_sampler(cls):
    assert "increments" in vars(cls)


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
