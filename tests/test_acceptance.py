"""Acceptance suite: one test per top-level criterion, each printing a
PASS/FAIL line with its measured figure of merit. All randomness is
fixed-seed."""

import math

import numpy as np
import pytest
from scipy import stats

import glevy as g
from conftest import DEFAULT_MODELS, FAMILY_NAMES, random_risk_params


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# --- 1. closed-form premium identities ------------------------------------

CLOSED_FORMS = {
    "Brownian": lambda m, l, s: l * s,
    "Poisson": lambda m, l, s: m.m * (math.exp(s) - 1.0) * (1.0 - math.exp(-l)),
    "CompoundPoissonNormal": lambda m, l, s: m.m * (
        math.exp(m.s**2 * s**2 / 2.0)
        + math.exp(m.s**2 * l**2 / 2.0)
        - math.exp(m.s**2 * (s - l) ** 2 / 2.0)
        - 1.0
    ),
    "Gamma": lambda m, l, s: m.m * math.log(
        (1.0 - s + l) / ((1.0 - s) * (1.0 + l))
    ),
    "ScaledGamma": lambda m, l, s: m.m * math.log(
        (1.0 - (s - l) * m.kappa) / ((1.0 - s * m.kappa) * (1.0 + l * m.kappa))
    ),
    "VarianceGamma": lambda m, l, s: -m.m * math.log(
        (1.0 - s**2 / (2 * m.m)) * (1.0 - l**2 / (2 * m.m))
        / (1.0 - (s - l) ** 2 / (2 * m.m))
    ),
    "NegativeBinomial": lambda m, l, s: m.m * math.log(
        (1.0 - m.q) * (1.0 - m.q * math.exp(s - l))
        / ((1.0 - m.q * math.exp(s)) * (1.0 - m.q * math.exp(-l)))
    ),
    "AsymmetricVG": None,  # no compact display; checked via the psi identity
}


def test_criterion_1_closed_form_premiums():
    rng = np.random.default_rng(101)
    worst = 0.0
    for name in FAMILY_NAMES:
        model, _, _ = DEFAULT_MODELS[name]
        form = CLOSED_FORMS[name]
        for lam, sig in random_risk_params(model, 20, rng, frac=0.4):
            got = g.risk_premium(model, lam, sig)
            if form is not None:
                expect = form(model, lam, sig)
            else:
                expect = model.psi(sig) + model.psi(-lam) - model.psi(sig - lam)
            worst = max(worst, abs(got - expect) / max(abs(expect), 1e-300))
    report(1, worst < 1e-12, f"max rel err {worst:.2e}")


# --- 2. jump-decomposition oracle ------------------------------------------

def test_criterion_2_jump_decomposition_oracle():
    rng = np.random.default_rng(202)
    worst = 0.0
    for name in ("Brownian", "Poisson", "CompoundPoissonNormal", "Gamma",
                 "VarianceGamma", "NegativeBinomial"):
        model, _, _ = DEFAULT_MODELS[name]
        for lam, sig in random_risk_params(model, 10, rng, frac=0.4):
            direct = g.risk_premium(model, lam, sig)
            oracle = g.premium_via_levy_measure(model, lam, sig)
            worst = max(worst, abs(oracle - direct) / abs(direct))
    report(2, worst < 1e-8, f"max rel err {worst:.2e}")


# --- 3. positivity and monotonicity ----------------------------------------

def test_criterion_3_premium_positive_and_increasing():
    rng = np.random.default_rng(303)
    n_checked, ok = 0, True
    while n_checked < 200:
        name = FAMILY_NAMES[int(rng.integers(len(FAMILY_NAMES)))]
        model, _, _ = DEFAULT_MODELS[name]
        (lam, sig), = random_risk_params(model, 1, rng)
        r = g.risk_premium(model, lam, sig)
        dl, ds = g.premium_gradient(model, lam, sig)
        ok = ok and r > 0.0 and dl > 0.0 and ds > 0.0
        n_checked += 1
    report(3, ok, f"{n_checked} randomized samples, all R>0 with positive gradient")


# --- 4. sign of the inverse-rate premium ------------------------------------

def test_criterion_4_siegel_sign_rule():
    rng = np.random.default_rng(404)
    n_checked, ok = 0, True
    while n_checked < 200:
        name = FAMILY_NAMES[int(rng.integers(len(FAMILY_NAMES)))]
        model, _, _ = DEFAULT_MODELS[name]
        (lam, sig), = random_risk_params(model, 1, rng, need_minus_sigma=True)
        rt = g.inverse_fx_premium(model, lam, sig)
        if abs(sig - lam) < 1e-12:
            ok = ok and abs(rt) < 1e-12
        else:
            ok = ok and (rt > 0.0) == (sig > lam)
        n_checked += 1
    report(4, ok, f"{n_checked} randomized samples, sign(R_tilde)=sign(sig-lam)")


# --- 5. bilinearity is unique to the diffusive family -----------------------

def test_criterion_5_bilinearity_uniqueness():
    flags = {name: g.is_bilinear(DEFAULT_MODELS[name][0]) for name in FAMILY_NAMES}
    ok = flags["Brownian"] and not any(
        v for k, v in flags.items() if k != "Brownian"
    )
    report(5, ok, f"bilinear families: {[k for k, v in flags.items() if v]}")


# --- 6. curvature recovery from the premium surface --------------------------

def test_criterion_6_curvature_recovery():
    rng = np.random.default_rng(606)
    worst = 0.0
    for name in FAMILY_NAMES:
        model, _, _ = DEFAULT_MODELS[name]
        sigs = [s for _, s in random_risk_params(model, 5, rng, frac=0.4)]
        for sig in sigs:
            est = g.curvature_from_premium(model, sig)
            exact = model.psi_second(sig)
            worst = max(worst, abs(est - exact) / abs(exact))
    report(6, worst < 1e-3, f"max rel err {worst:.2e}")


# --- 7. compensated exponential martingales ---------------------------------

def test_criterion_7_martingale_suite():
    n, t = 200_000, 1.0
    worst_z, ok = 0.0, True
    seed = 700
    for name in FAMILY_NAMES:
        model, lam, sig = DEFAULT_MODELS[name]
        for alpha in (-lam, sig, sig - lam):
            c = model.psi(alpha)

            def payoff(path, a=alpha, c=c):
                return math.exp(a * path.values[-1] - t * c)

            seed += 1
            res = g.mc_expectation(payoff, model, t, 1, n, g.Rng(seed))
            z = abs(res.estimate - 1.0) / res.stderr
            worst_z = max(worst_z, z)
            ok = ok and z < 4.0
    report(7, ok, f"24 (family, alpha) runs, worst |z| = {worst_z:.2f}")


# --- 8. option-price identifiability ----------------------------------------

def test_criterion_8_option_identifiability():
    opt = g.OptionSpec(strike=1.05, expiry=1.0)
    po = g.dependence_experiment(
        [g.GlmSpec(model=g.Poisson(m=m), r=0.02, lam=lam, sig=0.3)
         for m, lam in [(1.0, 0.0), (2.0, math.log(2.0)), (4.0, math.log(4.0))]], opt, 1e-10
    )
    ga = g.dependence_experiment(
        [g.GlmSpec(model=g.Gamma(m=m), r=0.02, lam=lam, sig=sig)
         for m, lam, sig in [(1.0, 0.0, 0.4), (1.0, 1.0, 0.8), (1.0, 0.5, 0.6)]], opt, 1e-8
    )
    br = g.dependence_experiment(
        [g.GlmSpec(model=g.Brownian(), r=0.02, lam=lam, sig=0.25)
         for lam in [0.0, 0.5, 1.0, 2.0]], opt, 1e-10
    )
    spec = g.GlmSpec(model=g.Brownian(), r=0.02, lam=0.5, sig=0.25)
    bs_gap = abs(
        g.exact_call(spec, opt)
        - g.bs_call_price(1.0, 0.02, 0.25, 1.05, 1.0)
    )
    ok = (
        po["spread"] < 1e-10
        and ga["spread"] < 1e-8
        and br["spread"] < 1e-10
        and bs_gap < 1e-10
    )
    report(8, ok, f"spreads: Poisson {po['spread']:.1e}, Gamma {ga['spread']:.1e}, "
                  f"GBM {br['spread']:.1e}, BS gap {bs_gap:.1e}")


# --- 9. dividend-stream valuation --------------------------------------------

def test_criterion_9_gordon_valuation():
    model = g.Brownian()
    spec = g.GlmSpec(model=model, r=0.02, lam=0.5, sig=0.4,
                     gamma_growth=0.1, d0=1.0)
    price, delta = g.gordon_valuation(spec)
    exact_product = price * delta == pytest.approx(1.0, rel=1e-14)

    # S0 strictly decreasing along a 10-point risk-aversion grid.
    # A flatter growth rate keeps the yield positive across the whole grid.
    lam_grid = np.linspace(0.1, 2.0, 10)
    prices = [
        g.gordon_valuation(g.GlmSpec(model=model, r=0.02, lam=float(l), sig=0.4,
                                     gamma_growth=0.01, d0=1.0))[0]
        for l in lam_grid
    ]
    decreasing = all(a > b for a, b in zip(prices, prices[1:]))

    # MC of the deflated dividend integral over a truncated horizon
    # reproduces the valuation (truncation keeps S0 * 1e-6 of the mass).
    t_star = math.log(1e6) / delta
    dt = 0.25
    steps = int(math.ceil(t_star / dt))
    horizon = steps * dt
    n = 20_000
    times, values = g.simulate_paths(model, horizon, steps, n, g.Rng(909))
    # log(pi_s D_s) is affine in the driver.
    a = (spec.gamma_growth - spec.r - model.psi(spec.sig) - model.psi(-spec.lam))
    b = spec.sig - spec.lam
    integrand = spec.d0 * np.exp(a * times[None, :] + b * values)
    integrals = np.trapezoid(integrand, dx=dt, axis=1)
    est = integrals.mean()
    se = integrals.std(ddof=1) / math.sqrt(n)
    mc_ok = abs(est - price) < 4.0 * se
    ok = exact_product and decreasing and mc_ok
    report(9, ok, f"S0*delta exact, grid decreasing={decreasing}, "
                  f"MC {est:.4f} vs {price:.4f} (4*se = {4*se:.4f})")


# --- 10. dual sampling constructions -----------------------------------------

def test_criterion_10_dual_representations():
    n = 100_000
    m, dt = 2.0, 1.0
    a = g.vg_dual_sample(m, dt, g.Rng(1010), method="GammaDifference", size=n)
    b = g.vg_dual_sample(m, dt, g.Rng(1011), method="SubordinatedBM", size=n)
    vg_ok = True
    for k in (1, 2, 3, 4):
        ma, mb = np.mean(a**k), np.mean(b**k)
        sa = np.std(a**k, ddof=1) / math.sqrt(n)
        sb = np.std(b**k, ddof=1) / math.sqrt(n)
        vg_ok = vg_ok and abs(ma - mb) < 4.0 * math.hypot(sa, sb)

    mq, q = 1.0, 0.5
    kmax = 15
    probs = stats.nbinom.pmf(np.arange(kmax), mq * dt, 1.0 - q)
    probs = np.append(probs, 1.0 - probs.sum())
    nb_ok = True
    p_values = []
    for seed, method in ((1014, "LogarithmicCompoundPoisson"),
                         (1013, "GammaSubordinatedPoisson")):
        xs = g.nb_dual_sample(mq, q, dt, g.Rng(seed), method=method, size=n)
        counts = np.bincount(np.clip(xs.astype(int), 0, kmax), minlength=kmax + 1)
        _, p = stats.chisquare(counts, probs * n)
        p_values.append(p)
        nb_ok = nb_ok and p > 0.01
    ok = vg_ok and nb_ok
    report(10, ok, f"VG 4-moment CI agree={vg_ok}, NB chi-square p={p_values}")


# --- 11. deflated submartingale under coefficient schedules -------------------

def test_criterion_11_schedule_submartingale():
    cases = {
        "Brownian": (g.Brownian(), [[0.4], [0.6], [0.3]], [[0.3], [0.5], [0.2]]),
        "Poisson": (g.Poisson(m=1.0), [[0.4], [0.6], [0.3]], [[0.3], [0.5], [0.2]]),
        "Gamma": (g.Gamma(m=1.0), [[0.4], [0.6], [0.3]], [[0.3], [0.5], [0.2]]),
    }
    n, horizon = 20_000, 3.0
    ok = True
    details = []
    seed = 1100
    for name, (model, lams, sigs) in cases.items():
        sch = g.Schedule(breakpoints=[0.0, 1.0, 2.0, 3.0],
                         r=[0.02, 0.04, 0.03], lam=lams, sig=sigs)
        vglm = g.VectorGlm(components=(g.Component(model, lams[0][0], sigs[0][0]),),
                           r=0.02, s0=2.0)

        # Terminal pi_T S_T versus S_0.
        steps = 12
        grid = np.linspace(0.0, horizon, steps + 1)
        seed += 1
        _, values = g.simulate_paths(model, horizon, steps, 4000, g.Rng(seed))
        prods = np.empty(4000)
        for i in range(4000):
            path = g.Path(times=grid, values=values[i])
            s = g.schedule_asset_path(vglm, sch, [path]).values[-1]
            pi = g.schedule_kernel_path(vglm, sch, [path]).values[-1]
            prods[i] = pi * s
        se = prods.std(ddof=1) / math.sqrt(len(prods))
        mart_ok = abs(prods.mean() - vglm.s0) < 4.0 * se

        # Deflated growth over [0.5, 3.0] versus exp of the integrated premium.
        seed += 1
        out = g.submartingale_check(vglm, sch, 0.5, horizon, n=n, rng=g.Rng(seed))
        pred = out["predicted_ratio"]
        rel_se = math.sqrt((out["stderr_s"] / out["mean_s"]) ** 2
                           + (out["stderr_t"] / out["mean_t"]) ** 2)
        ratio_ok = abs(out["observed_ratio"] - pred) < 5.0 * pred * rel_se
        ok = ok and mart_ok and out["submartingale_ok"] and ratio_ok
        details.append(f"{name}: mart_ok={mart_ok}, ratio {out['observed_ratio']:.4f}"
                       f" vs {pred:.4f}")
    report(11, ok, "; ".join(details))
