"""Tests for exact increment sampling, dual constructions, and Monte Carlo."""

import copy
import math
import pickle

import numpy as np
import pytest
from scipy import stats

import glevy as g
from conftest import DEFAULT_MODELS


def test_determinism_bit_identical(family_case):
    model, _, _ = family_case
    a = g.sample_increments(model, 0.25, 1000, g.Rng(42))
    b = g.sample_increments(model, 0.25, 1000, g.Rng(42))
    assert np.array_equal(a, b)
    c = g.sample_increments(model, 0.25, 1000, g.Rng(43))
    assert not np.array_equal(a, c)


def test_stream_independence(family_case):
    model, _, _ = family_case
    a = g.sample_increments(model, 0.25, 1000, g.Rng(42, stream=0))
    b = g.sample_increments(model, 0.25, 1000, g.Rng(42, stream=1))
    assert not np.array_equal(a, b)


def test_substreams_of_distinct_streams_share_no_draws():
    draws = [r.generator.random(1000) for r in (
        *(g.Rng(5, stream).spawn(k) for stream in (0, 1) for k in range(4)),
        *(g.Rng(5, stream) for stream in range(5)))]
    pooled = np.concatenate(draws)
    assert len(np.unique(pooled)) == len(pooled)
    # A substream is determined by its (seed, stream, k) path alone.
    assert np.array_equal(g.Rng(5, 1).spawn(2).generator.random(10),
                          g.Rng(5, 1, spawn_key=(2,)).generator.random(10))
    assert repr(g.Rng(5, 1).spawn(2).spawn(0)) == "Rng(seed=5, stream=1, spawn_key=(2, 0))"


def test_path_structure(family_case):
    model, _, _ = family_case
    path = g.simulate_path(model, horizon=2.0, steps=64, rng=g.Rng(7))
    assert path.values[0] == 0.0
    assert len(path.times) == len(path.values) == 65
    assert path.times[-1] == pytest.approx(2.0)
    assert np.all(np.diff(path.times) > 0)


def test_poisson_path_counts():
    path = g.simulate_path(g.Poisson(m=3.0), horizon=1.0, steps=100, rng=g.Rng(5))
    diffs = np.diff(path.values)
    assert np.all(diffs >= 0)
    assert np.allclose(diffs, np.round(diffs))


def test_gamma_path_nondecreasing():
    # Increments are gamma distributed, hence nonnegative; with shape
    # m*dt = 0.04 some draws underflow to exactly zero in double precision.
    path = g.simulate_path(g.Gamma(m=2.0), horizon=1.0, steps=50, rng=g.Rng(5))
    diffs = np.diff(path.values)
    assert np.all(diffs >= 0)
    assert path.values[-1] > 0


def test_single_step_matches_increment(family_case):
    model, _, _ = family_case
    path = g.simulate_path(model, horizon=0.5, steps=1, rng=g.Rng(11))
    x = g.sample_increment(model, 0.5, g.Rng(11))
    assert path.values[-1] == pytest.approx(x, rel=1e-15, abs=1e-15)


def test_unit_time_moments(family_case):
    # E[X_1] and Var[X_1] from psi'(0), psi''(0).
    model, _, _ = family_case
    n = 200_000
    xs = g.sample_increments(model, 1.0, n, g.Rng(123))
    mean_se = xs.std(ddof=1) / math.sqrt(n)
    assert abs(xs.mean() - model.psi_prime(0.0)) < 5.0 * mean_se
    var = xs.var(ddof=1)
    m4 = np.mean((xs - xs.mean()) ** 4)
    var_se = math.sqrt(max(m4 - var**2, 0.0) / n)
    assert abs(var - model.psi_second(0.0)) < 5.0 * var_se


def test_stationarity_ks(family_case):
    # X_{2 dt} - X_{dt} has the same law as X_{dt}; two-sample KS at 1%.
    model, _, _ = family_case
    if isinstance(model, (g.Poisson, g.NegativeBinomial)):
        pytest.skip("discrete law; KS statistic is not calibrated")
    n, dt = 10_000, 0.7
    first = g.sample_increments(model, dt, n, g.Rng(1000))
    _, values = g.simulate_paths(model, 2 * dt, 2, n, g.Rng(2000))
    second = values[:, 2] - values[:, 1]
    _, p = stats.ks_2samp(first, second)
    assert p > 0.01


def test_vg_dual_constructions_agree_in_law():
    m, dt, n = 2.0, 1.0, 100_000
    a = g.vg_dual_sample(m, dt, g.Rng(1), method="GammaDifference", size=n)
    b = g.vg_dual_sample(m, dt, g.Rng(2), method="SubordinatedBM", size=n)
    for xs in (a, b):
        assert abs(xs.mean()) < 5.0 * xs.std(ddof=1) / math.sqrt(n)
        assert xs.var(ddof=1) == pytest.approx(dt, rel=0.05)
    # Matching fourth moments (kurtosis of the VG law).
    assert np.mean(a**4) == pytest.approx(np.mean(b**4), rel=0.1)
    _, p = stats.ks_2samp(a, b)
    assert p > 0.01


def test_nb_dual_constructions_agree_in_law():
    m, q, dt, n = 1.0, 0.5, 1.0, 100_000
    a = g.nb_dual_sample(m, q, dt, g.Rng(3), method="LogarithmicCompoundPoisson", size=n)
    b = g.nb_dual_sample(m, q, dt, g.Rng(4), method="GammaSubordinatedPoisson", size=n)
    # Chi-square against the exact mass function, and against each other.
    kmax = 15
    probs = stats.nbinom.pmf(np.arange(kmax), m * dt, 1.0 - q)
    probs = np.append(probs, 1.0 - probs.sum())
    for xs in (a, b):
        counts = np.bincount(np.clip(xs.astype(int), 0, kmax), minlength=kmax + 1)
        chi2, p = stats.chisquare(counts, probs * n)
        assert p > 0.01


def test_nb_exact_sampler_matches_law():
    m, q, n = 1.0, 0.5, 100_000
    xs = g.sample_increments(g.NegativeBinomial(m=m, q=q), 1.0, n, g.Rng(9))
    kmax = 15
    probs = stats.nbinom.pmf(np.arange(kmax), m, 1.0 - q)
    probs = np.append(probs, 1.0 - probs.sum())
    counts = np.bincount(np.clip(xs.astype(int), 0, kmax), minlength=kmax + 1)
    _, p = stats.chisquare(counts, probs * n)
    assert p > 0.01


def test_mc_constant_payoff():
    res = g.mc_expectation(lambda p: 1.0, g.Brownian(), 1.0, 4, 500, g.Rng(8))
    assert res.estimate == pytest.approx(1.0, abs=1e-14)
    assert res.stderr == pytest.approx(0.0, abs=1e-14)
    assert res.n == 500


def test_mc_martingale_payoff(family_case):
    # E[exp(a X_t - t psi(a))] = 1 for admissible a.
    model, lam, sig = family_case
    a = sig
    c = model.psi(a)

    def payoff(path):
        return math.exp(a * path.values[-1] - 1.0 * c)

    res = g.mc_expectation(payoff, model, 1.0, 1, 100_000, g.Rng(77))
    assert abs(res.estimate - 1.0) < 4.0 * res.stderr


def test_mc_asset_mean(family_case):
    model, lam, sig = family_case
    spec = g.GlmSpec(model=model, r=0.02, lam=lam, sig=sig, s0=1.5)
    t = 1.0

    def payoff(path):
        return g.asset_value(spec, path.values[-1], t)

    res = g.mc_expectation(payoff, model, t, 1, 100_000, g.Rng(99))
    target = g.expected_asset_price(spec, t)
    assert abs(res.estimate - target) < 4.0 * res.stderr


def test_mc_multistream_deterministic():
    kw = dict(horizon=1.0, steps=2, n=10_000)
    r1 = g.mc_expectation(lambda p: p.values[-1] ** 2, g.Brownian(), rng=g.Rng(5), streams=4, **kw)
    r2 = g.mc_expectation(lambda p: p.values[-1] ** 2, g.Brownian(), rng=g.Rng(5), streams=4, **kw)
    assert r1.estimate == r2.estimate and r1.stderr == r2.stderr


# --- Path ----------------------------------------------------------------

@pytest.mark.parametrize("times,values", [
    ([0.0, 1.0], [0.0, 1.0, 2.0]),  # length mismatch
    ([0.0, 1.0], [1.0, 2.0]),       # nonzero start value
    ([0.5, 1.0], [0.0, 2.0]),       # nonzero start time
    ([], []),
    (np.zeros((2, 2)), np.zeros((2, 2))),
    (0.0, 0.0),
])
def test_path_validation(times, values):
    with pytest.raises(g.ParamOutOfRange):
        g.Path(times=times, values=values)


def test_path_keyword_construction_and_immutability():
    path = g.Path(times=[0.0, 0.5, 1.0], values=[0, 1, 3])
    assert path.times.dtype == path.values.dtype == np.float64
    assert np.array_equal(path.values, [0.0, 1.0, 3.0])
    assert g.Path([0.0, 1.0], [0.0, 2.0]).values[-1] == 2.0
    with pytest.raises(AttributeError):
        path.values = np.zeros(3)
    with pytest.raises(AttributeError):
        path.extra = 1


def _three_kinds_of_path():
    vglm = g.VectorGlm(components=(g.Component(g.Gamma(m=1.0), 0.4, 0.3),), r=0.02, s0=2.0)
    sch = g.Schedule(breakpoints=[0.0, 1.0], r=[0.02], lam=[[0.4]], sig=[[0.3]])
    driver = g.simulate_path(g.Gamma(m=1.0), 2.0, 8, g.Rng(3))
    return (driver, g.schedule_asset_path(vglm, sch, [driver]),
            g.schedule_kernel_path(vglm, sch, [driver]))


@pytest.mark.parametrize("clone", [
    lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy])
def test_path_pickle_and_copy_round_trip(clone):
    driver, price, kernel = _three_kinds_of_path()
    assert price.values[0] == 2.0 and kernel.values[0] == 1.0
    for path in (driver, price, kernel):
        back = clone(path)
        assert type(back) is g.Path
        assert np.array_equal(back.times, path.times)
        assert np.array_equal(back.values, path.values)


# --- bit-identity against the per-element reference loops ----------------

def _mc_reference(payoff, model, horizon, steps, n, rng, streams):
    """mc_expectation as one payoff(Path) call per simulated row."""
    samples = []
    bounds = np.linspace(0, n, streams + 1).astype(int)
    for k in range(streams):
        sub = rng.spawn(k) if streams > 1 else rng
        times, values = g.simulate_paths(model, horizon, steps, bounds[k + 1] - bounds[k], sub)
        samples += [payoff(g.Path(times, row)) for row in values]
    samples = np.array(samples)
    return samples.mean(), samples.std(ddof=1) / math.sqrt(n)


@pytest.mark.parametrize("streams", [1, 4])
@pytest.mark.parametrize("steps", [1, 50])
def test_mc_expectation_bit_identical_to_loop(streams, steps):
    model = g.VarianceGamma(m=2.0)
    c = model.psi(0.5)

    def payoff(path):
        return np.mean(np.exp(0.5 * path.values - path.times * c))

    res = g.mc_expectation(payoff, model, 1.0, steps, 1003, g.Rng(5, 2), streams=streams)
    est, se = _mc_reference(payoff, model, 1.0, steps, 1003, g.Rng(5, 2), streams)
    assert res.n == 1003
    assert res.estimate == est and res.stderr == se


def _nb_log_reference(m, q, dt, rng, size):
    """Logarithmic compound Poisson NB draws, one logseries call per count."""
    g_ = rng.generator
    counts = g_.poisson(-m * math.log1p(-q) * dt, size)
    out = np.zeros(size)
    for i in np.flatnonzero(counts):
        out[i] = g_.logseries(q, counts[i]).sum()
    return out


@pytest.mark.parametrize("m,q,dt,size", [
    (1.0, 0.5, 1.0, 5000),
    (2.0, 0.9, 0.3, 2000),   # long jumps
    (1.0, 0.5, 1.0, 1),
    (0.5, 0.5, 1e-12, 500),  # every count is 0
    (3.0, 0.2, 2.0, 0),
])
def test_nb_log_sampler_bit_identical_to_loop(m, q, dt, size):
    rng_a, rng_b = g.Rng(17, 1), g.Rng(17, 1)
    a = g.nb_dual_sample(m, q, dt, rng_a, method="LogarithmicCompoundPoisson", size=size)
    b = _nb_log_reference(m, q, dt, rng_b, size)
    assert a.dtype == b.dtype and np.array_equal(a, b)
    # Both leave the stream at the same position.
    assert np.array_equal(rng_a.generator.random(4), rng_b.generator.random(4))
