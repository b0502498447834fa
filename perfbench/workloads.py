"""The benchmark's three workloads: request mixes, oracles and output checks.

Each workload is one cycle of requests run in a fixed order. A request is a
call into glevy's public API, timed, and a check of its output, untimed. All
inputs, every ``Rng`` seed and every random (lambda, sigma) point derive from
the workload seed. Oracles are computed while the workload is built, which is
part of set-up, so checks never call into glevy.

Why these three workloads:

* ``calculus`` spends its time in ``exponents``/``premium``, evaluating psi at
  many distinct arguments; sampling is bypassed.
* ``montecarlo`` spends it in ``sampling``/``multifactor`` with the per-path
  Python callback and the NB loop on the blocking path; psi is called a
  handful of times.
* ``cli`` is the user-facing end to end: ``options`` exact pricers and
  ``cli`` parsing/IO, with the same few psi arguments evaluated thousands of
  times inside quadrature integrands.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import glevy
import glevy.cli
from glevy import exponents as E
from glevy import multifactor as MF
from glevy import options as O
from glevy import premium as P
from glevy import pricing as PR
from glevy import sampling as S

# One representative model per family with in-domain (lambda, sigma); the
# same table as DEFAULT_MODELS in tests/conftest.py.
MODELS = {
    "Brownian": ({}, 0.2, 0.5),
    "Poisson": ({"m": 1.0}, 0.3, 0.5),
    "CompoundPoissonNormal": ({"m": 1.0, "s": 1.0}, 0.3, 0.4),
    "Gamma": ({"m": 1.0}, 0.25, 0.5),
    "ScaledGamma": ({"m": 1.0, "kappa": 0.5}, 0.25, 0.5),
    "VarianceGamma": ({"m": 2.0}, 0.5, 1.0),
    "AsymmetricVG": ({"m": 1.5, "mu": 0.2, "s": 0.8}, 0.4, 0.6),
    "NegativeBinomial": ({"m": 1.0, "q": 0.5}, 0.3, 0.5),
}
MIRRORED = ("Poisson", "Gamma", "ScaledGamma", "AsymmetricVG", "NegativeBinomial")
# Families whose jump measure levy_measure_of knows.
LEVY_MEASURE = ("Brownian", "Poisson", "CompoundPoissonNormal", "Gamma",
                "ScaledGamma", "VarianceGamma", "NegativeBinomial")
EXACT = ("Brownian", "Poisson", "Gamma")
Z_GATE = 4.0
R, F, S0 = 0.02, 0.01, 1.0


class CheckFailed(Exception):
    """A request's output disagrees with its oracle."""


def require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Request:
    """One closed-loop request: ``call`` is timed, ``check`` is not.

    gated is False only for the cli requests that probe known defects; they
    count in ``fail_frac`` but not in the benchmark's pass/fail verdict.
    """

    kind: str
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    gated: bool = True


def model_of(family: str):
    return E.make_model(family, MODELS[family][0])


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31))


def _z_gate(estimate: float, stderr: float, expect: float, finite_var: bool,
            what: str) -> None:
    """|z| < 4 against the sample standard error.

    When the payoff's variance is infinite the sample standard error is
    biased low on the samples that miss the right tail, so the statistic's
    lower tail is unbounded; only the upper side is then a valid gate.
    """
    z = (estimate - expect) / stderr
    require(math.isfinite(z), f"{what}: z not finite")
    if finite_var:
        require(abs(z) < Z_GATE, f"{what}: |z|={abs(z):.2f}")
    else:
        require(estimate > 0.0 and z < Z_GATE, f"{what}: z={z:.2f}")


# --------------------------------------------------------------------------
# calculus
# --------------------------------------------------------------------------

CALC_GRID = np.linspace(0.05, 0.4, 40)


def _calculus_request(name: str, model, rng: np.random.Generator) -> Request:
    grid = CALC_GRID
    pts = [(lam, sig) for lam in grid for sig in grid]
    curv_sigs = np.sort(rng.uniform(0.05, 0.4, 10))
    levy_pts = [tuple(p) for p in rng.uniform(0.05, 0.4, (5, 2))]
    with_levy = name in LEVY_MEASURE
    bilinear = name == "Brownian"
    # Oracles.
    psi2 = [model.psi_second(s) for s in curv_sigs]
    closed = [P.risk_premium(model, lam, sig) for lam, sig in levy_pts]

    def call():
        rows = P.premium_surface(model, grid, grid)
        grads = [P.premium_gradient(model, lam, sig) for lam, sig in pts]
        signs = [P.premium_hessian_signs(model, lam, sig) for lam, sig in pts]
        resid = [P.premium_identity_check(model, lam, sig) for lam, sig in pts]
        curv = [P.curvature_from_premium(model, s) for s in curv_sigs]
        bil = P.is_bilinear(model)
        levy = ([P.premium_via_levy_measure(model, lam, sig) for lam, sig in levy_pts]
                if with_levy else [])
        return rows, grads, signs, resid, curv, bil, levy

    def check(out):
        rows, grads, signs, resid, curv, bil, levy = out
        arr = np.array(rows, dtype=float)
        require(arr.shape == (len(pts), 4), "surface shape")
        lam, sig, prem, prem_fx = arr.T
        require(np.array_equal(arr[:, :2], np.array(pts)), "surface is not row-major over the grid")
        surf = prem.reshape(len(grid), len(grid))
        require(np.all(surf > 0.0), "premium not positive")
        require(np.all(np.diff(surf, axis=0) > 0.0) and np.all(np.diff(surf, axis=1) > 0.0),
                "premium not increasing in lambda and sigma")
        # Siegel sign rule: R_tilde > 0 exactly when sigma > lambda.
        scale = 1.0 + np.abs(prem) + np.abs(prem_fx)
        on_diag = lam == sig
        require(np.all(np.abs(prem_fx[on_diag]) < 1e-12 * scale[on_diag]), "Siegel: sigma == lambda")
        require(np.all((prem_fx[~on_diag] > 0.0) == (sig[~on_diag] > lam[~on_diag])), "Siegel sign")
        g = np.array(grads, dtype=float)
        require(np.all(g > 0.0), "gradient not positive")
        require(np.all(np.abs(np.array(resid)) < 1e-12 * scale), "identity residual")
        _check_hessian_signs(np.array(signs), surf, bilinear)
        err = np.abs(np.array(curv) - psi2) / np.abs(psi2)
        require(np.all(err <= 1e-3), f"curvature recovery err {err.max():.2e}")
        require(bil is bilinear, f"is_bilinear={bil}")
        for got, want in zip(levy, closed):
            require(abs(got - want) <= 1e-8 * max(1.0, abs(want)),
                    f"jump-measure premium {got} vs {want}")

    return Request("report", name, call, check)


def _check_hessian_signs(signs: np.ndarray, surf: np.ndarray, bilinear: bool) -> None:
    """Compare the analytic signs with second differences of the surface.

    Only interior grid points whose second difference stands clear of the
    O(h^2) discretisation error take part.
    """
    n = surf.shape[0]
    d2_sig, d2_lam = signs[:, 0].reshape(n, n), signs[:, 1].reshape(n, n)
    if bilinear:
        require(np.all(signs == 0), "Brownian Hessian signs not zero")
        return
    fd_lam = surf[2:, 1:-1] - 2.0 * surf[1:-1, 1:-1] + surf[:-2, 1:-1]
    fd_sig = surf[1:-1, 2:] - 2.0 * surf[1:-1, 1:-1] + surf[1:-1, :-2]
    h2 = (CALC_GRID[1] - CALC_GRID[0]) ** 2
    for fd, analytic, what in ((fd_sig, d2_sig, "d2R/dsig2"), (fd_lam, d2_lam, "d2R/dlam2")):
        clear = np.abs(fd) > 1e-2 * h2
        inner = analytic[1:-1, 1:-1]
        require(np.all(np.sign(fd[clear]) == inner[clear]), f"Hessian sign {what}")


def calculus(seed: int, workdir: str, tracer) -> list[Request]:
    rng = np.random.default_rng(seed)
    models = [(name, model_of(name)) for name in MODELS]
    models += [(f"mirror-{name}", E.mirror(model_of(name))) for name in MIRRORED]
    return [_calculus_request(name, model, rng) for name, model in models]


# --------------------------------------------------------------------------
# montecarlo
# --------------------------------------------------------------------------

def montecarlo(seed: int, workdir: str, tracer) -> list[Request]:
    rng = np.random.default_rng(seed)
    reqs: list[Request] = []

    # (a) compensated exponential at T = 1, one Python call per path.
    for name in MODELS:
        model, (_, lam, sig) = model_of(name), MODELS[name]
        for label, alpha in (("-lam", -lam), ("sig", sig), ("sig-lam", sig - lam)):
            reqs.append(_mc_exponential(name, label, model, alpha, _seed(rng), tracer))
    # (b) path-time average of the compensated exponential at sigma.
    for name in MODELS:
        model, sig = model_of(name), MODELS[name][2]
        reqs.append(_mc_time_average(name, model, sig, _seed(rng), tracer))
    # (c) call prices on exact terminal draws.
    for name in MODELS:
        reqs.append(_mc_call(name, _seed(rng)))
    # (d) the dual constructions.
    for method in ("GammaDifference", "SubordinatedBM"):
        reqs.append(_vg_dual(method, _seed(rng)))
    for method in ("LogarithmicCompoundPoisson", "GammaSubordinatedPoisson"):
        reqs.append(_nb_dual(method, _seed(rng)))
    # (e) schedules: deflated growth, then the per-path pi_T S_T loop.
    for name, vglm, sch, s, t in _schedule_cases():
        reqs.append(_submartingale(name, vglm, sch, s, t, _seed(rng)))
    for name, vglm, sch, s, t in _schedule_cases()[:3]:
        reqs.append(_schedule_paths(name, vglm, sch, t, _seed(rng)))
    return reqs


def _finite_variance(model, alpha: float) -> bool:
    """E[exp(alpha X)^2] is finite iff 2 alpha lies in psi's domain."""
    return model.domain.admissible(2.0 * alpha)


def _mc_exponential(name, label, model, alpha, seed, tracer) -> Request:
    c = model.psi(alpha)
    finite = _finite_variance(model, alpha)

    def payoff(path):
        return math.exp(alpha * path.values[-1] - c)

    def call():
        return S.mc_expectation(tracer.payoff(payoff), model, 1.0, 1, 20_000, S.Rng(seed))

    def check(res):
        require(res.n == 20_000, "n")
        _z_gate(res.estimate, res.stderr, 1.0, finite, f"{name} alpha={label}")

    return Request("mc-exponential", f"{name}:{label}", call, check)


def _mc_time_average(name, model, sig, seed, tracer) -> Request:
    c = model.psi(sig)
    finite = _finite_variance(model, sig)

    def payoff(path):
        return float(np.mean(np.exp(sig * path.values - path.times * c)))

    def call():
        return S.mc_expectation(tracer.payoff(payoff), model, 1.0, 50, 5_000,
                                S.Rng(seed), streams=4)

    def check(res):
        require(res.n == 5_000, "n")
        _z_gate(res.estimate, res.stderr, 1.0, finite, f"{name} time average")

    return Request("mc-time-average", name, call, check)


def _glm(name: str):
    _, lam, sig = MODELS[name]
    return PR.GlmSpec(model=model_of(name), r=R, lam=lam, sig=sig, s0=S0)


def _exact_call(glm, opt) -> float:
    pricer = {"Brownian": O.brownian_exact_call, "Poisson": O.poisson_exact_call,
              "Gamma": O.gamma_exact_call}[glm.model.family]
    return pricer(glm, opt)


def _no_arbitrage(price: float, stderr: float, strike: float, expiry: float, what: str):
    lower = max(S0 - strike * math.exp(-R * expiry), 0.0)
    require(price + Z_GATE * stderr >= lower and price - Z_GATE * stderr <= S0,
            f"{what}: {price} outside no-arbitrage bounds [{lower}, {S0}]")


def _mc_call(name, seed) -> Request:
    glm, opt = _glm(name), O.OptionSpec(strike=1.05, expiry=1.0)
    exact = _exact_call(glm, opt) if name in EXACT else None

    def call():
        return O.mc_call_price(glm, opt, 100_000, S.Rng(seed))

    def check(res):
        if exact is not None:
            _z_gate(res.estimate, res.stderr, exact, True, f"{name} MC call vs exact")
        else:
            _no_arbitrage(res.estimate, res.stderr, opt.strike, opt.expiry, f"{name} MC call")

    return Request("mc-call", name, call, check)


def _moment_gate(x: np.ndarray, mean: float, var: float, what: str) -> None:
    n = len(x)
    require(n == 100_000, f"{what}: size {n}")
    _z_gate(x.mean(), x.std(ddof=1) / math.sqrt(n), mean, True, f"{what} mean")
    sq = (x - x.mean()) ** 2
    _z_gate(x.var(ddof=1), sq.std(ddof=1) / math.sqrt(n), var, True, f"{what} variance")


def _vg_dual(method, seed) -> Request:
    m, dt = 2.0, 1.0

    def call():
        return S.vg_dual_sample(m, dt, S.Rng(seed), method=method, size=100_000)

    def check(x):
        _moment_gate(x, 0.0, dt, f"VG {method}")

    return Request("dual", f"VG:{method}", call, check)


def _nb_dual(method, seed) -> Request:
    m, q, dt = 1.0, 0.5, 1.0

    def call():
        return S.nb_dual_sample(m, q, dt, S.Rng(seed), method=method, size=100_000)

    def check(x):
        require(np.all(x >= 0.0) and np.all(x == np.round(x)), f"NB {method}: not counts")
        _moment_gate(x, m * q / (1 - q) * dt, m * q / (1 - q) ** 2 * dt, f"NB {method}")

    return Request("dual", f"NB:{method}", call, check)


def _schedule_cases():
    """The Brownian/Poisson/Gamma schedules of acceptance criterion 11, then a
    two-component jump diffusion."""
    cases = []
    for name, model in (("Brownian", E.Brownian()), ("Poisson", E.Poisson(m=1.0)),
                        ("Gamma", E.Gamma(m=1.0))):
        sch = MF.Schedule(breakpoints=[0.0, 1.0, 2.0, 3.0], r=[0.02, 0.04, 0.03],
                          lam=[[0.4], [0.6], [0.3]], sig=[[0.3], [0.5], [0.2]])
        vglm = MF.VectorGlm(components=(MF.Component(model, 0.4, 0.3),), r=0.02, s0=2.0)
        cases.append((name, vglm, sch, 0.5, 3.0))
    jd = MF.jump_diffusion(m=1.0, s=0.3, lam=0.3, sig=0.2, beta=0.5, theta=0.4, r=0.02)
    sch = MF.Schedule(breakpoints=[0.0, 1.0, 2.0], r=[0.02, 0.03],
                      lam=[[0.3, 0.5], [0.4, 0.6]], sig=[[0.2, 0.4], [0.3, 0.3]])
    cases.append(("JumpDiffusion", jd, sch, 0.5, 2.0))
    return cases


def _submartingale(name, vglm, sch, s, t, seed) -> Request:
    def call():
        return MF.submartingale_check(vglm, sch, s, t, n=10_000, rng=S.Rng(seed))

    def check(out):
        require(out["submartingale_ok"], f"{name}: submartingale_ok false")
        pred = out["predicted_ratio"]
        rel_se = math.hypot(out["stderr_s"] / out["mean_s"], out["stderr_t"] / out["mean_t"])
        _z_gate(out["observed_ratio"], pred * rel_se, pred, True, f"{name} growth ratio")

    return Request("submartingale", name, call, check)


def _schedule_paths(name, vglm, sch, horizon, seed) -> Request:
    model, steps, n = vglm.components[0].model, 12, 200
    grid = np.linspace(0.0, horizon, steps + 1)

    def call():
        _, values = S.simulate_paths(model, horizon, steps, n, S.Rng(seed))
        prods = np.empty(n)
        for i in range(n):
            path = S.Path(times=grid, values=values[i])
            s_t = MF.schedule_asset_path(vglm, sch, [path]).values[-1]
            pi_t = MF.schedule_kernel_path(vglm, sch, [path]).values[-1]
            prods[i] = pi_t * s_t
        return prods

    def check(prods):
        _z_gate(prods.mean(), prods.std(ddof=1) / math.sqrt(n), vglm.s0, True,
                f"{name} pi_T S_T")

    return Request("schedule-paths", name, call, check)


# --------------------------------------------------------------------------
# cli
# --------------------------------------------------------------------------

CLI_GRID = "0.05:0.4:0.01"
STRIKES = (0.8, 0.9, 1.0, 1.05, 1.1, 1.2, 1.3)
EXPIRIES = (0.25, 1.0, 3.0)
MC_STRIKES = (0.9, 1.05, 1.2)
GAMMA_GROWTH, D0 = 0.01, 0.05


def _run_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = glevy.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _grid_values(text: str) -> np.ndarray:
    a, b, step = (float(p) for p in text.split(":"))
    return np.arange(a, b + 0.5 * step, step)


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _bytes_out(paths) -> int:
    total = 0
    for p in paths:
        if os.path.isdir(p):
            total += sum(os.path.getsize(os.path.join(p, f)) for f in os.listdir(p))
        elif os.path.exists(p):
            total += os.path.getsize(p)
    return total


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


class _Cli:
    """Builds cli requests; every one is an in-process ``glevy.cli.main`` call."""

    def __init__(self, workdir: str, tracer):
        self.workdir, self.tracer = workdir, tracer

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def request(self, kind, name, argv, outputs, check, gated=True) -> Request:
        tracer = self.tracer

        def call():
            result = _run_cli(argv)
            if tracer.active:
                tracer.add("cli.bytes_out", len(result[1].encode()) + len(result[2].encode())
                           + _bytes_out(outputs))
            return result

        def checked(result):
            code, out, err = result
            require(code in (0, 1, 2), f"exit code {code} outside the 0/1/2 contract")
            require("Traceback" not in err, "traceback on stderr")
            check(code, out, err)

        return Request(kind, name, call, checked, gated)

    def write_spec(self, name: str, spec: dict) -> str:
        path = self.path(f"{name}.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        return path


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def cli(seed: int, workdir: str, tracer) -> list[Request]:
    rng = np.random.default_rng(seed)
    c = _Cli(workdir, tracer)
    reqs: list[Request] = []
    grid = _grid_values(CLI_GRID)
    for name, (params, lam, sig) in MODELS.items():
        spec = {"family": name, "params": params, "r": R, "lambda": lam, "sigma": sig,
                "s0": S0, "f": F, "gamma": GAMMA_GROWTH, "d0": D0}
        path = c.write_spec(name, spec)
        glm = PR.load_spec(path)
        reqs += _spec_requests(c, name, path, glm, grid, _seed(rng))
    for name in EXACT:
        glm, path = PR.load_spec(c.path(f"{name}.json")), c.path(f"{name}.json")
        for strike in STRIKES:
            for expiry in EXPIRIES:
                reqs.append(_price_exact(c, name, path, glm, strike, expiry))
    for name in MODELS:
        if name in EXACT:
            continue
        glm, path = PR.load_spec(c.path(f"{name}.json")), c.path(f"{name}.json")
        for strike in MC_STRIKES:
            reqs.append(_price_mc(c, name, path, glm, strike, _seed(rng)))
    reqs += _malformed(c)
    return reqs


def _spec_requests(c: _Cli, name, path, glm, grid, seed) -> list[Request]:
    surface = np.array(P.premium_surface(glm.model, grid, grid), dtype=float)
    premium = glm.premium
    s0_implied, delta = PR.gordon_valuation(glm)
    finite = _finite_variance(glm.model, glm.sig)
    csv_out, sim_out = c.path(f"premium-{name}.csv"), c.path(f"sim-{name}")

    def check_premium(code, out, err):
        require(code == 0, f"exit {code}")
        rows = _read_csv(csv_out)
        got = np.array([[float(r[k]) for k in ("lambda", "sigma", "R", "R_tilde")]
                        for r in rows])
        require(got.shape == surface.shape, f"{len(rows)} rows")
        require(np.allclose(got, surface, rtol=1e-12, atol=0.0), "surface differs from library")

    def check_simulate(code, out, err):
        summary = _last_json(out)
        require(summary["n"] == 20_000 and summary["seed"] == seed, "summary n/seed")
        z_ok = abs(summary["estimate"] - 1.0) < Z_GATE * summary["stderr"]
        require(code == (0 if z_ok else 1), f"exit {code} disagrees with its summary")
        require(len([f for f in os.listdir(sim_out) if f.startswith("path_")]) == 3,
                "path files")
        _z_gate(summary["estimate"], summary["stderr"], 1.0, finite, f"{name} simulate")

    def check_fx(code, out, err):
        v = _last_json(out)
        require(code == 0 and v["siegel_ok"], f"exit {code}: {v}")
        require(_rel_close(v["R"], premium, 1e-12), "R differs from library")
        require(abs(v["fx_product"] - 1.0) < 1e-10, "FX reciprocity")
        require(v["sigma_exceeds_lambda"] == (glm.sig > glm.lam), "sigma > lambda flag")

    def check_dividend(code, out, err):
        v = _last_json(out)
        require(code == 0, f"exit {code}")
        require(_rel_close(v["s0_implied"], s0_implied, 1e-12)
                and _rel_close(v["delta"], delta, 1e-12)
                and _rel_close(v["d0_check"], D0, 1e-12), f"dividend {v}")

    def check_verify(code, out, err):
        v = _last_json(out)
        require(code == 0 and v["pass"] and all(v["checks"].values()), f"exit {code}: {v}")

    return [
        c.request("premium", name, ["premium", "--spec", path, "--out", csv_out,
                                    "--grid", CLI_GRID], [csv_out], check_premium),
        c.request("simulate", name, ["simulate", "--spec", path, "--out", sim_out,
                                     "--seed", str(seed), "--n", "20000"],
                  [sim_out], check_simulate),
        c.request("fx-check", name, ["fx-check", "--spec", path], [], check_fx),
        c.request("dividend", name, ["dividend", "--spec", path], [], check_dividend),
        c.request("verify", name, ["verify", "--spec", path], [], check_verify),
    ]


def _option_row(path) -> dict:
    rows = _read_csv(path)
    require(len(rows) == 1, f"{len(rows)} option rows")
    return rows[0]


def _price_exact(c: _Cli, name, path, glm, strike, expiry) -> Request:
    out_csv = c.path(f"exact-{name}-{strike}-{expiry}.csv")
    if name == "Brownian":
        want, tol = O.bs_call_price(glm.s0, glm.r, glm.sig, strike, expiry), 1e-9
    else:
        want, tol = _exact_call(glm, O.OptionSpec(strike, expiry)), 1e-12

    def check(code, out, err):
        require(code == 0, f"exit {code}")
        row = _option_row(out_csv)
        price = float(row["price"])
        require(row["method"] == "exact" and _rel_close(price, want, tol),
                f"price {price} vs {want}")

    argv = ["price-option", "--spec", path, "--out", out_csv, "--strike", repr(strike),
            "--expiry", repr(expiry), "--method", "exact"]
    return c.request("price-exact", f"{name}:K={strike}:T={expiry}", argv, [out_csv], check)


def _price_mc(c: _Cli, name, path, glm, strike, seed) -> Request:
    out_csv = c.path(f"mc-{name}-{strike}.csv")
    want = O.mc_call_price(glm, O.OptionSpec(strike, 1.0), 100_000, S.Rng(seed))

    def check(code, out, err):
        require(code == 0, f"exit {code}")
        row = _option_row(out_csv)
        price, stderr = float(row["price"]), float(row["stderr"])
        require(_rel_close(price, want.estimate, 1e-12) and _rel_close(stderr, want.stderr, 1e-12),
                f"MC price {price} vs library {want.estimate}")
        _no_arbitrage(price, stderr, strike, 1.0, f"{name} cli MC call")

    argv = ["price-option", "--spec", path, "--out", out_csv, "--strike", repr(strike),
            "--method", "mc", "--seed", str(seed)]
    return c.request("price-mc", f"{name}:K={strike}", argv, [out_csv], check)


def _malformed(c: _Cli) -> list[Request]:
    """Six requests the usage/spec contract says must exit 2.

    The first three do today. The last three are the known boundary defects
    (zero grid step, reversed grid, NaN rate); they are run and counted in
    fail_frac so that a fix shows as a drop, but do not gate the verdict.
    """
    base = {"params": {"m": 1.0}, "r": R, "lambda": 0.25, "sigma": 0.5, "s0": S0}
    unknown = c.write_spec("bad-family", {**base, "family": "Cauchy"})
    out_of_domain = c.write_spec("bad-sigma", {**base, "family": "Gamma", "sigma": 1.5})
    nan_rate = c.write_spec("bad-rate", {**base, "family": "Gamma", "r": float("nan")})
    gamma = c.path("Gamma.json")
    out = c.path("malformed.csv")

    def exits_2(code, stdout, err):
        require(code == 2, f"exit {code}, contract says 2")

    cases = [
        ("missing-spec", ["verify", "--spec", c.path("no-such-spec.json")], True),
        ("unknown-family", ["verify", "--spec", unknown], True),
        ("sigma-out-of-domain", ["verify", "--spec", out_of_domain], True),
        ("grid-zero-step", ["premium", "--spec", gamma, "--out", out, "--grid", "0.1:0.5:0"], False),
        ("grid-reversed", ["premium", "--spec", gamma, "--out", out, "--grid", "0.5:0.1:0.1"], False),
        ("rate-nan", ["verify", "--spec", nan_rate], False),
    ]
    return [c.request("malformed" if gated else "known-defect", name, argv, [], exits_2, gated)
            for name, argv, gated in cases]


WORKLOADS = {"calculus": calculus, "montecarlo": montecarlo, "cli": cli}
