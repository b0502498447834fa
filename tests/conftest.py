import math

import numpy as np
import pytest

from glevy import (
    AsymmetricVG,
    Brownian,
    CompoundPoissonNormal,
    Gamma,
    NegativeBinomial,
    Poisson,
    ScaledGamma,
    VarianceGamma,
)

# One representative model per family with in-domain (lam, sig) defaults.
DEFAULT_MODELS = {
    "Brownian": (Brownian(), 0.2, 0.5),
    "Poisson": (Poisson(m=1.0), 0.3, 0.5),
    "CompoundPoissonNormal": (CompoundPoissonNormal(m=1.0, s=1.0), 0.3, 0.4),
    "Gamma": (Gamma(m=1.0), 0.25, 0.5),
    "ScaledGamma": (ScaledGamma(m=1.0, kappa=0.5), 0.25, 0.5),
    "VarianceGamma": (VarianceGamma(m=2.0), 0.5, 1.0),
    "AsymmetricVG": (AsymmetricVG(m=1.5, mu=0.2, s=0.8), 0.4, 0.6),
    "NegativeBinomial": (NegativeBinomial(m=1.0, q=0.5), 0.3, 0.5),
}

FAMILY_NAMES = list(DEFAULT_MODELS)

# Families whose exponent is not even; their mirrors are distinct models.
ASYMMETRIC = ["Poisson", "Gamma", "ScaledGamma", "AsymmetricVG", "NegativeBinomial"]


@pytest.fixture(params=FAMILY_NAMES)
def family_case(request):
    return DEFAULT_MODELS[request.param]


def interior_points(model, n, rng, frac=0.8):
    """n points well inside the admissible interval, bounded away from 0 too."""
    lo = max(model.domain.lower, -3.0) * frac
    hi = min(model.domain.upper, 3.0) * frac
    return rng.uniform(lo, hi, n)


def random_risk_params(model, n, rng, need_minus_sigma=False, frac=0.45):
    """(lam, sig) pairs with lam, sig > 0 and sig, -lam, sig - lam (and
    optionally -sig) strictly inside the domain."""
    hi = min(model.domain.upper, 3.0) * frac
    lo_abs = min(-model.domain.lower, 3.0) * frac
    sig_max = min(hi, lo_abs) if need_minus_sigma else hi
    lam_max = lo_abs
    out = []
    while len(out) < n:
        lam = rng.uniform(0.02, lam_max)
        sig = rng.uniform(0.02, sig_max)
        dom = model.domain
        probes = [sig, -lam, sig - lam] + ([-sig] if need_minus_sigma else [])
        if all(dom.admissible(a) for a in probes):
            out.append((lam, sig))
    return out


@pytest.fixture
def np_rng():
    return np.random.default_rng(20120229)


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def assert_close(a, b, rtol, msg=""):
    assert rel_err(a, b) < rtol, f"{msg}: {a} vs {b} (rel {rel_err(a, b):.3e})"


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)
