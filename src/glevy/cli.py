"""Command-line front end.

Subcommands: premium | simulate | price-option | fx-check | dividend | verify.
Exit codes: 0 all checks pass, 1 a check failed, 2 usage or spec error.
Randomized commands print the seed used; an omitted seed defaults to a fixed
constant so published results reproduce.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path as FsPath

import numpy as np

from . import premium as prem
from .errors import GlevyError, ParamOutOfRange
from .options import OptionSpec, exact_call, mc_call_price
from .pricing import (
    GlmSpec,
    expected_asset_price,
    fx_value,
    gordon_valuation,
    inverse_fx_value,
    load_spec,
    log_value,
)
from .exponents import _positive
from .sampling import McResult, Rng, _check_count, sample_increments, simulate_path

DEFAULT_SEED = 20120229  # fixed so published runs reproduce
MAX_GRID_POINTS = 1000  # per axis; the premium surface has up to 10**6 rows


def _fmt(x: float) -> str:
    """17 significant digits: round-trips every binary64 value through text."""
    return format(float(x), ".17g")


def _parse_grid(text: str) -> np.ndarray:
    """Points a, a + step, ... up to b inclusive from "a:b:step"."""
    try:
        a, b, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise ParamOutOfRange("grid", text, 'must be "a:b:step"') from None
    if not all(math.isfinite(v) for v in (a, b, step)):
        raise ParamOutOfRange("grid", text, "bounds and step must be finite")
    if not step > 0.0:
        raise ParamOutOfRange("grid", text, "step must be > 0")
    if not a <= b:
        raise ParamOutOfRange("grid", text, "must satisfy a <= b")
    # floor((b - a)/step) + 1 points; the quotient may overflow to inf.
    if (b - a) / step >= MAX_GRID_POINTS:
        raise ParamOutOfRange("grid", text, f"more than {MAX_GRID_POINTS} points")
    return np.arange(a, b + 0.5 * step, step)


def _write_csv(path, header, rows):
    """The header, then each row of floats formatted in one operation, every
    value as _fmt writes it."""
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(line % row for row in rows)


def cmd_premium(spec: GlmSpec, args) -> int:
    grid = _parse_grid(args.grid)
    rows = prem.premium_surface(spec.model, grid, grid)
    _write_csv(args.out, ["lambda", "sigma", "R", "R_tilde"], rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_simulate(spec: GlmSpec, args) -> int:
    _check_count("paths", args.paths)
    print(f"seed={args.seed}")
    paths = [simulate_path(spec.model, args.horizon, args.steps, Rng(args.seed, i))
             for i in range(args.paths)]
    # Martingale summary: MC mean of the compensated exponential at sig over
    # exact draws of X_T, the draws mc_expectation makes with one step.
    sig, model, horizon, n = spec.sig, spec.model, args.horizon, args.n
    _check_count("n", n, 2)
    _positive("horizon", horizon)
    x = sample_increments(model, horizon, n, Rng(args.seed, 10_000))
    # math.exp as a per-path payoff takes it (np.exp can differ by an ulp), fed
    # one float at a time: a list of all n floats raises the peak RSS.
    log_s = log_value(0.0, 0.0, model, sig, x, horizon)
    try:
        res = McResult.from_samples(np.fromiter(map(math.exp, memoryview(log_s)), float, n))
    except OverflowError:
        raise ParamOutOfRange("sigma", sig,
                              "e^{sigma X - T psi(sigma)} overflows a float") from None
    if res.stderr == 0.0:  # all samples equal: no evidence either way
        raise ParamOutOfRange("horizon", horizon, f"gives {n} samples with stderr 0")
    summary = {"estimate": res.estimate, "stderr": res.stderr, "n": res.n,
               "seed": args.seed}
    # Written only once every draw succeeded, so a rejected input leaves no files.
    out = FsPath(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, p in enumerate(paths):
        _write_csv(out / f"path_{i:04d}.csv", ["t", "x"],
                   zip(p.times.tolist(), p.values.tolist()))
    (out / "mc_summary.json").write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary))
    return 0 if abs(res.estimate - 1.0) < 4.0 * res.stderr else 1


def cmd_price_option(spec: GlmSpec, args) -> int:
    opt = OptionSpec(strike=args.strike, expiry=args.expiry)
    if args.method == "mc":
        print(f"seed={args.seed}")
        res = mc_call_price(spec, opt, args.n, Rng(args.seed))
        price, stderr = res.estimate, res.stderr
    else:
        price, stderr = exact_call(spec, opt), 0.0
    # The params JSON holds commas and quotes, so csv quotes this row.
    with open(args.out, "w", newline="") as fh:
        csv.writer(fh).writerows([
            ["family", "params", "K", "T", "price", "stderr", "method"],
            [spec.model.family, json.dumps(spec.model.params()), _fmt(args.strike),
             _fmt(args.expiry), _fmt(price), _fmt(stderr), args.method]])
    print(f"price={_fmt(price)}")
    return 0


def cmd_fx_check(spec: GlmSpec, args) -> int:
    r_tilde = prem.inverse_fx_premium(spec.model, spec.lam, spec.sig)
    verdict = {
        "R": spec.premium,
        "R_tilde": r_tilde,
        "sigma_exceeds_lambda": spec.sig > spec.lam,
        "siegel_ok": (r_tilde > 0) == (spec.sig > spec.lam),
    }
    if spec.f is not None:
        x, t = 0.7, 1.3
        product = float(fx_value(spec, x, t) * inverse_fx_value(spec, x, t))
        verdict["fx_product"] = product
        verdict["siegel_ok"] = verdict["siegel_ok"] and abs(product - 1.0) < 1e-10
    print(json.dumps(verdict))
    return 0 if verdict["siegel_ok"] else 1


def cmd_dividend(spec: GlmSpec, args) -> int:
    s0_implied, delta = gordon_valuation(spec)
    print(json.dumps({"s0_implied": s0_implied, "delta": delta,
                      "d0_check": delta * s0_implied}))
    return 0


def cmd_verify(spec: GlmSpec, args) -> int:
    """Run the invariant suite for one spec; exit 0 iff everything passes."""
    model, lam, sig = spec.model, spec.lam, spec.sig
    checks = {}
    checks["psi_zero"] = abs(model.psi(0.0)) == 0.0
    checks["premium_positive"] = spec.premium > 0.0
    g = prem.premium_gradient(model, lam, sig)
    checks["premium_increasing"] = g[0] > 0.0 and g[1] > 0.0
    checks["identity_residual"] = abs(prem.premium_identity_check(model, lam, sig)) < 1e-12
    r_tilde = prem.inverse_fx_premium(model, lam, sig)
    checks["siegel_sign"] = (r_tilde > 0.0) == (sig > lam)
    psi2 = model.psi_second(sig)
    checks["curvature_recovery"] = (
        abs(prem.curvature_from_premium(model, sig) - psi2) <= 1e-3 * abs(psi2))
    checks["expected_price"] = (
        abs(expected_asset_price(spec, 1.0) - spec.s0 * math.exp(spec.r + spec.premium))
        < 1e-12 * spec.s0)
    ok = all(checks.values())
    print(json.dumps({"spec": str(args.spec), "checks": checks, "pass": ok}))
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="glevy", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--spec", required=True)

    p = sub.add_parser("premium", parents=[spec], help="write the premium surface CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--grid", default="0.1:0.5:0.1", help='"a:b:step"')
    p.set_defaults(fn=cmd_premium)

    p = sub.add_parser("simulate", parents=[spec], help="simulate paths, write CSV + MC summary")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--n", type=int, default=20_000)
    p.add_argument("--paths", type=int, default=3)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=250)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("price-option", parents=[spec], help="price a European call")
    p.add_argument("--out", required=True)
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--expiry", type=float, default=1.0)
    p.add_argument("--method", choices=["mc", "exact"], default="mc")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--n", type=int, default=100_000)
    p.set_defaults(fn=cmd_price_option)

    p = sub.add_parser("fx-check", parents=[spec], help="Siegel sign rule and FX reciprocity")
    p.set_defaults(fn=cmd_fx_check)

    p = sub.add_parser("dividend", parents=[spec], help="Gordon-growth valuation")
    p.set_defaults(fn=cmd_dividend)

    p = sub.add_parser("verify", parents=[spec], help="run the invariant suite for a spec")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(load_spec(args.spec), args)
    except (GlevyError, OSError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
