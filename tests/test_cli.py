"""In-process tests for the command-line interface."""

import argparse
import csv
import io
import json
import math
import subprocess
import sys
import warnings

from pathlib import Path as FsPath

import numpy as np
import pytest

import glevy as g
from glevy.cli import DEFAULT_SEED, _write_csv, build_parser, cmd_verify, main
from conftest import ASYMMETRIC, DEFAULT_MODELS, FAMILY_NAMES


@pytest.fixture
def gamma_spec(tmp_path):
    p = tmp_path / "gamma.json"
    p.write_text(json.dumps({
        "family": "Gamma", "params": {"m": 1.0},
        "r": 0.02, "lambda": 0.5, "sigma": 0.4, "s0": 1.0,
    }))
    return p


@pytest.fixture
def brownian_spec(tmp_path):
    p = tmp_path / "brownian.json"
    p.write_text(json.dumps({
        "family": "Brownian", "params": {},
        "r": 0.02, "lambda": 0.3, "sigma": 0.25, "s0": 1.0, "f": 0.01,
    }))
    return p


def test_premium_surface_round_trips(gamma_spec, tmp_path, capsys):
    out = tmp_path / "surface.csv"
    rc = main(["premium", "--spec", str(gamma_spec), "--out", str(out),
               "--grid", "0.1:0.3:0.1"])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    model = g.Gamma(m=1.0)
    for row in rows:
        lam, sig = float(row["lambda"]), float(row["sigma"])
        # 17 significant digits give exact binary64 round-trips; the surface's
        # psi comes from arrays, which keeps it within 8 ulps of the largest
        # psi term of the per-point formula (test_premium.SURFACE_ULPS).
        at_sig, at_lam, at_diff, at_minus_sig = map(model.psi, (sig, -lam, sig - lam, -sig))
        tol = 8 * math.ulp(max(abs(at_sig), abs(at_lam), abs(at_diff)))
        assert abs(float(row["R"]) - g.risk_premium(model, lam, sig)) <= tol
        tol = 8 * math.ulp(max(abs(at_minus_sig), abs(at_lam), abs(at_diff)))
        assert abs(float(row["R_tilde"]) - g.inverse_fx_premium(model, lam, sig)) <= tol


def test_simulate_is_deterministic(gamma_spec, tmp_path, capsys):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    args = ["simulate", "--spec", str(gamma_spec), "--seed", "7",
            "--n", "5000", "--paths", "2", "--steps", "16"]
    assert main(args + ["--out", str(out1)]) == 0
    cap1 = capsys.readouterr().out
    assert main(args + ["--out", str(out2)]) == 0
    cap2 = capsys.readouterr().out
    assert "seed=7" in cap1
    assert cap1 == cap2
    for name in ("path_0000.csv", "path_0001.csv", "mc_summary.json"):
        assert (out1 / name).read_text() == (out2 / name).read_text()
    summary = json.loads((out1 / "mc_summary.json").read_text())
    assert abs(summary["estimate"] - 1.0) < 4.0 * summary["stderr"]


def test_price_option_exact_and_mc(gamma_spec, tmp_path, capsys):
    out = tmp_path / "opt.csv"
    rc = main(["price-option", "--spec", str(gamma_spec), "--out", str(out),
               "--strike", "1.0", "--expiry", "1.0", "--method", "exact"])
    assert rc == 0
    with open(out) as fh:
        row = next(csv.DictReader(fh))
    exact = float(row["price"])
    spec = g.load_spec(str(gamma_spec))
    assert exact == pytest.approx(
        g.exact_call(spec, g.OptionSpec(strike=1.0, expiry=1.0)), rel=1e-12
    )

    rc = main(["price-option", "--spec", str(gamma_spec), "--out", str(out),
               "--strike", "1.0", "--method", "mc", "--n", "50000", "--seed", "3"])
    assert rc == 0
    with open(out) as fh:
        row = next(csv.DictReader(fh))
    assert abs(float(row["price"]) - exact) < 4.0 * float(row["stderr"])


def test_successive_calls_share_no_state(gamma_spec, tmp_path, capsys):
    # One parser serves every call in a process; no call may leak into the next.
    assert build_parser() is build_parser()
    argv = ["price-option", "--spec", str(gamma_spec), "--out", str(tmp_path / "opt.csv"),
            "--strike", "1.0", "--method", "mc", "--n", "2000"]
    assert main(argv + ["--seed", "7"]) == 0
    assert "seed=7" in capsys.readouterr().out
    assert main(argv) == 0
    assert f"seed={DEFAULT_SEED}" in capsys.readouterr().out
    assert DEFAULT_SEED == 20120229
    assert main(argv + ["--method", "fourier"]) == 2
    assert main(["price-option", "--spec", str(gamma_spec)]) == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith(f"seed={DEFAULT_SEED}\n")


def test_price_option_exact_unsupported_family(tmp_path):
    p = tmp_path / "vg.json"
    p.write_text(json.dumps({
        "family": "VarianceGamma", "params": {"m": 2.0},
        "r": 0.02, "lambda": 0.5, "sigma": 0.6,
    }))
    rc = main(["price-option", "--spec", str(p), "--out",
               str(tmp_path / "x.csv"), "--strike", "1.0", "--method", "exact"])
    assert rc == 2


def _exact_price_option_prints_exact_call(tmp_path, capsys, model, lam, sig):
    spec = g.GlmSpec(model=model, r=0.02, lam=lam, sig=sig)
    p = tmp_path / "model.json"
    p.write_text(json.dumps(g.spec_to_dict(spec)))
    out = tmp_path / "opt.csv"
    rc = main(["price-option", "--spec", str(p), "--out", str(out),
               "--strike", "1.05", "--expiry", "1.0", "--method", "exact"])
    assert rc == 0
    with open(out) as fh:
        row = next(csv.DictReader(fh))
    assert float(row["price"]) == g.exact_call(spec, g.OptionSpec(strike=1.05, expiry=1.0))
    assert f"price={row['price']}" in capsys.readouterr().out.splitlines()


def test_price_option_exact_mirrored_poisson(tmp_path, capsys):
    _exact_price_option_prints_exact_call(tmp_path, capsys, g.mirror(g.Poisson(m=1.0)), 0.3, 0.5)


@pytest.mark.parametrize("mirrored", [False, True], ids=["ScaledGamma", "mirror-ScaledGamma"])
def test_price_option_exact_scaled_gamma(tmp_path, capsys, mirrored):
    # A scaled model prices against its root's law scaled by kappa.
    model = g.ScaledGamma(m=1.0, kappa=0.5)
    model = g.mirror(model) if mirrored else model
    _exact_price_option_prints_exact_call(tmp_path, capsys, model, 0.25, 0.5)


@pytest.mark.parametrize("model", [g.Gamma(m=1.0), g.Poisson(m=1.0), g.Brownian()],
                         ids=lambda model: model.family)
def test_price_option_zero_strike_at_a_huge_negative_rate(tmp_path, capsys, model):
    # The call at K = 0 is the spot; e^{-rT} alone would overflow a float.
    p = tmp_path / "negative_rate.json"
    p.write_text(json.dumps(g.spec_to_dict(g.GlmSpec(model=model, r=-800.0, lam=0.3, sig=0.5))))
    out = tmp_path / "opt.csv"
    rc = main(["price-option", "--spec", str(p), "--out", str(out),
               "--strike", "0", "--expiry", "1.0", "--method", "exact"])
    assert rc == 0
    assert "price=1" in capsys.readouterr().out.splitlines()
    with open(out) as fh:
        assert float(next(csv.DictReader(fh))["price"]) == 1.0


@pytest.mark.parametrize("sig", [1e-300, 1e-310])
def test_price_option_exact_vanishing_sigma(tmp_path, sig):
    spec = g.GlmSpec(model=g.Poisson(m=1.0), r=0.0, lam=0.3, sig=sig)
    p = tmp_path / "tiny_sigma.json"
    p.write_text(json.dumps(g.spec_to_dict(spec)))
    out = tmp_path / "opt.csv"
    rc = main(["price-option", "--spec", str(p), "--out", str(out),
               "--strike", "2.0", "--expiry", "1.0", "--method", "exact"])
    assert rc == 0
    with open(out) as fh:
        row = next(csv.DictReader(fh))
    assert float(row["price"]) == 0.0


def test_price_option_exact_deterministic_limit_past_the_float_range(tmp_path, capsys):
    # K e^{-rT} overflows a float: the call on a deterministic S_T is worth 0.
    p = tmp_path / "overflow.json"
    spec = g.GlmSpec(model=g.Brownian(), r=-800.0, lam=0.0, sig=1e-8)
    p.write_text(json.dumps(g.spec_to_dict(spec)))
    rc = main(["price-option", "--spec", str(p), "--out", str(tmp_path / "opt.csv"),
               "--strike", "1e-300", "--expiry", "1e6", "--method", "exact"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["price=0"]


@pytest.mark.parametrize("strike", ["1", "1e-300"])
@pytest.mark.parametrize("model", [g.Gamma(m=1e8), g.mirror(g.Gamma(m=1e8))],
                         ids=lambda model: model.family)
def test_price_option_exact_failed_quadrature_prints_only_the_error(tmp_path, capsys,
                                                                     model, strike):
    # The quadrature stops at its subdivision limit here; the failed piece is an
    # infinite error estimate, so no IntegrationWarning reaches stderr.
    p = tmp_path / "huge_shape.json"
    spec = g.GlmSpec(model=model, r=-800.0, lam=0.0, sig=0.5)
    p.write_text(json.dumps(g.spec_to_dict(spec)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["price-option", "--spec", str(p), "--out", str(tmp_path / "opt.csv"),
                   "--strike", strike, "--expiry", "1e6", "--method", "exact"])
    assert rc == 2 and not caught
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("spec, opt", [
    (g.GlmSpec(model=g.Brownian(), r=0.02, lam=0.0, sig=1e10), ["1e-300", "1"]),
    (g.GlmSpec(model=g.mirror(g.Gamma(m=1.0)), s0=1e300, r=0.02, lam=0.0, sig=1e10),
     ["1e300", "1e-6"]),
], ids=["Brownian", "Mirrored[Gamma]"])
def test_price_option_exact_overflowing_integrand_exits_2(tmp_path, capsys, spec, opt):
    # sigma x and T psi(sigma) cancel in log S_T, and the rounding left passes
    # exp's range: a typed QuadratureFailure, not a traceback.
    p = tmp_path / "huge_sigma.json"
    p.write_text(json.dumps(g.spec_to_dict(spec)))
    rc = main(["price-option", "--spec", str(p), "--out", str(tmp_path / "opt.csv"),
               "--strike", opt[0], "--expiry", opt[1], "--method", "exact"])
    assert rc == 2
    _assert_one_error_line(capsys)


def test_fx_check_reports_negative_inverse_premium(tmp_path, capsys):
    # sigma < lambda: the inverse-rate premium must come out negative.
    p = tmp_path / "fx.json"
    p.write_text(json.dumps({
        "family": "Brownian", "params": {},
        "r": 0.02, "lambda": 0.6, "sigma": 0.25, "s0": 1.0, "f": 0.01,
    }))
    rc = main(["fx-check", "--spec", str(p)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["R_tilde"] < 0.0
    assert not out["sigma_exceeds_lambda"]
    assert out["siegel_ok"]
    assert out["fx_product"] == pytest.approx(1.0, abs=1e-12)


def test_fx_check_positive_side(brownian_spec, capsys):
    # sigma < lambda is False here: 0.25 < 0.3, R_tilde < 0 expected.
    rc = main(["fx-check", "--spec", str(brownian_spec)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["R_tilde"] == pytest.approx(0.25 * (0.25 - 0.3), rel=1e-12)


def test_fx_check_overflowing_inverse_rate_exits_2(tmp_path, capsys):
    # R~ = 639760, so the inverse rate at the probe x = 0.7, t = 1.3 overflows
    # a float; it once printed "fx_product": NaN, exited 1 and warned twice.
    p = tmp_path / "fx.json"
    p.write_text(json.dumps({
        "family": "Brownian", "params": {},
        "r": 0.02, "lambda": 0.3, "sigma": 800, "s0": 1.0, "f": 0.01,
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fx-check", "--spec", str(p)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: parameter (x, t)=(0.7, 1.3) ")
    assert out.err.count("\n") == 1 and "overflows a float" in out.err


def test_dividend(tmp_path, capsys):
    p = tmp_path / "div.json"
    p.write_text(json.dumps({
        "family": "Brownian", "params": {},
        "r": 0.02, "lambda": 0.5, "sigma": 0.4,
        "gamma": 0.1, "d0": 1.0,
    }))
    rc = main(["dividend", "--spec", str(p)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["delta"] == pytest.approx(0.12, rel=1e-12)
    assert out["s0_implied"] == pytest.approx(1.0 / 0.12, rel=1e-12)
    assert out["d0_check"] == pytest.approx(1.0, rel=1e-12)


def test_verify_passes(gamma_spec, capsys):
    rc = main(["verify", "--spec", str(gamma_spec)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["pass"]
    assert all(out["checks"].values())


def test_verify_passes_near_the_domain_limit(tmp_path, capsys):
    # The curvature stencil once probed sigma + h = 1.000005, past Gamma's
    # limit 1, and exited 2 on this valid spec.
    p = tmp_path / "gamma.json"
    p.write_text(json.dumps({**_GOOD_SPEC, "lambda": 0.25, "sigma": 0.999995}))
    assert main(["verify", "--spec", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["checks"]["curvature_recovery"] and out["pass"]


# Mirrored[Gamma] has domain (-1, inf): the premium exists at lam = 0.25,
# sig = 1.5, but psi(-1.5), and with it R~, does not.
_MINUS_SIGMA_OUTSIDE = {"family": "Mirrored[Gamma]", "params": {"m": 1.0}, "r": 0.02,
                        "lambda": 0.25, "sigma": 1.5}


def test_verify_reports_inverse_rate_checks_as_not_applicable(tmp_path, capsys):
    # verify once exited 2 here, naming alpha = -1.5.
    assert not g.spec_from_dict(_MINUS_SIGMA_OUTSIDE).model.domain.admissible(-1.5)
    p = tmp_path / "s.json"
    p.write_text(json.dumps(_MINUS_SIGMA_OUTSIDE))
    assert main(["verify", "--spec", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    checks = out["checks"]
    assert checks.pop("siegel_sign") is None
    assert all(v is True for v in checks.values()) and out["pass"] is True


@pytest.mark.parametrize("f", [None, 0.01])
def test_fx_check_reports_inverse_rate_as_not_applicable(tmp_path, capsys, f):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({**_MINUS_SIGMA_OUTSIDE, "f": f}))
    assert main(["fx-check", "--spec", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["R"] == pytest.approx(0.18232155679395456, rel=1e-12)
    assert out["R_tilde"] is None and out["siegel_ok"] is None
    assert out["sigma_exceeds_lambda"] is True
    assert ("fx_product" in out) == (f is not None)
    assert out.get("fx_product") is None


_VERIFY_CHECKS = ["premium_positive", "premium_increasing", "siegel_sign", "curvature_recovery"]


@pytest.mark.parametrize("spec", [
    # Poisson(1): psi(20) is about 4.9e8; a residual check of R + R~ = psi(sig)
    # + psi(-sig) once failed these by rounding alone.
    {"family": "Poisson", "params": {"m": 1.0}, "lambda": 0.001, "sigma": 12.0},
    {"family": "Poisson", "params": {"m": 1.0}, "lambda": 1e-6, "sigma": 20.0},
    # E[S_1] = s0 e^{r + R} overflows a float (R is about 6.5e7 for the CPN);
    # no check reads it, so both once exited 2 and now pass.
    {"family": "CompoundPoissonNormal", "params": {"m": 1.0, "s": 3.0},
     "lambda": 0.3, "sigma": 2.0},
    {"family": "Gamma", "params": {"m": 1.0}, "r": 1.0, "lambda": 0.25, "sigma": 0.5,
     "s0": 1e308},
], ids=["poisson-12", "poisson-20", "cpn-overflowing-price", "gamma-overflowing-s0"])
def test_verify_passes_specs_with_large_psi_or_price(tmp_path, capsys, spec):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"r": 0.02, **spec}))
    assert main(["verify", "--spec", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["checks"] == dict.fromkeys(_VERIFY_CHECKS, True) and out["pass"] is True


def test_verify_at_zero_risk_aversion_reports_premium_checks_as_not_applicable(tmp_path,
                                                                                capsys):
    # At lam = 0, R and dR/dsig are exactly 0; both checks once read false
    # and verify exited 1 on this valid spec.
    p = tmp_path / "s.json"
    p.write_text(json.dumps({**_GOOD_SPEC, "lambda": 0.0, "sigma": 0.5}))
    assert main(["verify", "--spec", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["checks"] == {"premium_positive": None, "premium_increasing": None,
                             "siegel_sign": True, "curvature_recovery": True}
    assert out["pass"] is True


@pytest.mark.parametrize("name", FAMILY_NAMES + [f"Mirrored[{n}]" for n in FAMILY_NAMES])
def test_verify_reports_exactly_the_four_checks(tmp_path, capsys, name):
    base = name.removeprefix("Mirrored[").removesuffix("]")
    model, lam, sig = DEFAULT_MODELS[base]
    if base != name:
        model = g.mirror(model)
    assert main(["verify", "--spec", str(_write_spec(tmp_path, model, lam, sig))]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out["checks"]) == _VERIFY_CHECKS
    assert all(out["checks"].values()) and out["pass"] is True


class _CurvatureHigh(g.Gamma):
    def _psi_second(self, a, xp=math):
        return 1.05 * super()._psi_second(a, xp)


class _SlopeConstant(g.Gamma):
    def _psi_prime(self, a, xp=math):
        return self.m


class _Negated(g.Gamma):
    def _psi(self, a, xp=math):
        return -super()._psi(a, xp)

    def _psi_prime(self, a, xp=math):
        return -super()._psi_prime(a, xp)

    def _psi_second(self, a, xp=math):
        return -super()._psi_second(a, xp)


@pytest.mark.parametrize("cls,failing", [
    (g.Gamma, []),
    (_CurvatureHigh, ["curvature_recovery"]),
    (_SlopeConstant, ["premium_increasing"]),
    (_Negated, ["premium_positive", "premium_increasing", "siegel_sign"]),
])
def test_verify_fails_exactly_the_checks_a_wrong_formula_breaks(capsys, cls, failing):
    spec = g.GlmSpec(model=cls(m=1.0), lam=0.25, sig=0.5, r=0.02)
    assert cmd_verify(spec, argparse.Namespace(spec="s.json")) == (1 if failing else 0)
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [k for k, v in checks.items() if v is not True] == failing


def test_price_option_mc_overflowing_asset_value_exits_2_on_one_line(tmp_path, capsys):
    # S_T = 1e308 e^{...} overflows on some draws; the error names the draws,
    # an array numpy prints on several lines, on one line.
    p = tmp_path / "gamma.json"
    p.write_text(json.dumps({**_GOOD_SPEC, "r": 1.0, "lambda": 0.25, "sigma": 0.5,
                             "s0": 1e308}))
    argv = ["price-option", "--spec", str(p), "--out", str(tmp_path / "o.csv"),
            "--strike", "1.0", "--n", "2000"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parameter (x, t)=(array([") and err.count("\n") == 1
    assert "the value overflows a float" in err
    assert not (tmp_path / "o.csv").exists()


def test_verify_overflowing_psi_exits_2(tmp_path, capsys):
    # Poisson psi(800) = e^800 - 1 overflows a float.
    p = tmp_path / "poisson.json"
    p.write_text(json.dumps({
        "family": "Poisson", "params": {"m": 1.0}, "r": 0.02, "lambda": 0.3, "sigma": 800,
    }))
    assert main(["verify", "--spec", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_psi_rounding_to_inf_exits_2(tmp_path, capsys):
    # Brownian psi(1e200) rounds to inf without raising; R would be inf - inf.
    p = tmp_path / "brownian.json"
    p.write_text(json.dumps({
        "family": "Brownian", "params": {}, "r": 0.02, "lambda": 0.5, "sigma": 1e200,
    }))
    assert main(["verify", "--spec", str(p)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: parameter alpha=1e+200 violates: psi overflows a float\n"


def test_bad_spec_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "family": "Gamma", "params": {"m": 1.0},
        "r": 0.02, "lambda": 0.5, "sigma": 1.2,  # sigma outside (-inf, 1)
    }))
    assert main(["verify", "--spec", str(p)]) == 2
    assert main(["premium", "--spec", str(p), "--out", str(tmp_path / "x.csv")]) == 2


def test_missing_spec_exits_2(tmp_path):
    assert main(["verify", "--spec", str(tmp_path / "nope.json")]) == 2


def test_malformed_json_exits_2(tmp_path):
    p = tmp_path / "mangled.json"
    p.write_text("{not json")
    assert main(["verify", "--spec", str(p)]) == 2


@pytest.mark.parametrize("grid", [
    "0.1:0.5",        # unparsable: two fields
    "a:b:c",          # unparsable: not numbers
    "0.1:0.5:0",      # zero step
    "0.1:0.5:-0.1",   # negative step
    "0.5:0.1:0.1",    # reversed range
    "0.1:inf:0.1",    # non-finite bound
    "nan:0.5:0.1",    # non-finite bound
    "0:2:1e-3",       # 2001 points per axis, a 4 * 10**6-row surface
    "0:1:1e-12",      # 10**12 points, refused before allocating
    "0:1e300:1e-300", # point count overflows to inf
])
def test_bad_grid_exits_2(gamma_spec, tmp_path, grid):
    out = tmp_path / "x.csv"
    assert main(["premium", "--spec", str(gamma_spec), "--out", str(out),
                 "--grid", grid]) == 2
    assert not out.exists()


@pytest.mark.parametrize("key", ["r", "s0", "f", "gamma", "d0", "lambda", "sigma"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_spec_field_exits_2(tmp_path, key, value):
    spec = {"family": "Brownian", "params": {}, "r": 0.02, "lambda": 0.3,
            "sigma": 0.25, "s0": 1.0, "f": 0.01, "gamma": 0.01, "d0": 1.0}
    spec[key] = value
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec))
    assert main(["verify", "--spec", str(p)]) == 2


@pytest.mark.parametrize("method", ["exact", "mc"])
@pytest.mark.parametrize("flag,value", [("--expiry", "inf"), ("--expiry", "nan"),
                                        ("--strike", "inf")])
def test_price_option_non_finite_time_or_strike_exits_2(gamma_spec, tmp_path, method,
                                                         flag, value):
    out = tmp_path / "x.csv"
    argv = ["price-option", "--spec", str(gamma_spec), "--out", str(out),
            "--strike", "1.0", "--method", method, flag, value]
    assert main(argv) == 2
    assert not out.exists()


@pytest.mark.parametrize("horizon", ["inf", "nan", "0"])
def test_simulate_bad_horizon_exits_2(gamma_spec, tmp_path, horizon):
    out = tmp_path / "sim"
    assert main(["simulate", "--spec", str(gamma_spec), "--out", str(out),
                 "--n", "100", "--horizon", horizon]) == 2
    assert not out.exists()


def test_simulate_negative_paths_exits_2(gamma_spec, tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--spec", str(gamma_spec), "--out", str(out),
                 "--n", "100", "--paths", "-1"]) == 2
    assert not out.exists()


_GOOD_SPEC = {"family": "Gamma", "params": {"m": 1.0}, "r": 0.02, "lambda": 0.5,
              "sigma": 0.4}


def _files(root):
    return sorted(p.relative_to(root) for p in root.rglob("*"))


def _assert_one_error_line(capsys):
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


def _asymmetric_vg_spec(mu):
    return {**_GOOD_SPEC, "family": "AsymmetricVG", "params": {"m": 1.0, "mu": mu, "s": 1.0},
            "lambda": 0.3, "sigma": 0.5}


@pytest.mark.parametrize("spec, error", [
    ({**_GOOD_SPEC, "params": {"m": 1, "x": 2}}, g.ParamOutOfRange),
    ({**_GOOD_SPEC, "params": {"m": "abc"}}, g.ParamOutOfRange),
    ({**_GOOD_SPEC, "r": "abc"}, g.ParamOutOfRange),
    ({**_GOOD_SPEC, "s0": "x"}, g.ParamOutOfRange),
    ({**_GOOD_SPEC, "f": "q"}, g.ParamOutOfRange),
    ({**_GOOD_SPEC, "r": None}, g.ParamOutOfRange),
    ({**_GOOD_SPEC, "params": {"m": "1.5"}}, g.ParamOutOfRange),  # once read as 1.5
    ({**_GOOD_SPEC, "r": "0.02"}, g.ParamOutOfRange),
    ({**_GOOD_SPEC, "params": [1]}, g.ParamOutOfRange),
    ([_GOOD_SPEC], g.ParamOutOfRange),
    ({**_GOOD_SPEC, "family": ["Gamma"]}, g.ParamOutOfRange),
    ({**_GOOD_SPEC, "r": 10**400}, g.ParamOutOfRange),  # an integer no float can hold
    ({**_GOOD_SPEC, "params": {"m": 10**400}}, g.ParamOutOfRange),
    # json reads no integer beyond sys.get_int_max_str_digits(); json.dumps
    # cannot write one either, so the spec is given as text.
    ('{"family": "Poisson", "params": {"m": 1' + "0" * 4999 + '}, "r": 0.02, '
     '"lambda": 0.5, "sigma": 0.4}', g.ParamOutOfRange),
    # sigma = 0.5 lies above each of these domains' upper ends, 1/mu.
    (_asymmetric_vg_spec(1e8), g.DomainViolation),
    (_asymmetric_vg_spec(1e20), g.DomainViolation),
    # psi is NaN at this model's lower inclusive limit, so it is not built.
    (_asymmetric_vg_spec(1e200), g.ParamOutOfRange),
], ids=["unknown-param", "param-abc", "r-abc", "s0-x", "f-q", "r-null", "param-numeric-str",
         "r-numeric-str", "params-list",
        "top-level-array", "family-list", "r-huge-int", "param-huge-int",
        "int-beyond-str-digits", "avg-mu-1e8", "avg-mu-1e20", "avg-mu-1e200"])
def test_malformed_spec_exits_2(tmp_path, capsys, spec, error):
    p = tmp_path / "s.json"
    p.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    with pytest.raises(error):
        g.load_spec(p)
    assert main(["verify", "--spec", str(p)]) == 2
    _assert_one_error_line(capsys)
    assert _files(tmp_path) == [FsPath("s.json")]


@pytest.mark.parametrize("key", ["family", "r", "lambda", "sigma"])
def test_spec_without_a_required_key_exits_2_naming_it(tmp_path, capsys, key):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({k: v for k, v in _GOOD_SPEC.items() if k != key}))
    assert main(["verify", "--spec", str(p)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert out.err.startswith(f"error: parameter {key}=None violates: ")


def test_spec_path_is_a_directory_exits_2(tmp_path, capsys):
    assert main(["verify", "--spec", str(tmp_path)]) == 2
    _assert_one_error_line(capsys)
    assert _files(tmp_path) == []


def test_spec_not_utf8_exits_2(tmp_path, capsys):
    p = tmp_path / "s.json"
    p.write_bytes(b'{"family": "Gamma\xff"}')
    with pytest.raises(g.ParamOutOfRange):
        g.load_spec(p)
    assert main(["verify", "--spec", str(p)]) == 2
    _assert_one_error_line(capsys)
    assert _files(tmp_path) == [FsPath("s.json")]


@pytest.mark.parametrize("command,where", [
    (["premium"], "directory"),
    (["premium"], "under-a-file"),
    (["price-option", "--strike", "1.0", "--method", "exact"], "directory"),
    (["price-option", "--strike", "1.0", "--method", "exact"], "under-a-file"),
    (["simulate", "--n", "100", "--paths", "1", "--steps", "4"], "under-a-file"),
], ids=["premium-dir", "premium-under-file", "price-dir", "price-under-file",
        "simulate-under-file"])
def test_unwritable_out_exits_2(gamma_spec, tmp_path, capsys, command, where):
    if where == "directory":
        out = tmp_path / "d"
        out.mkdir()
    else:
        (tmp_path / "f").write_text("")
        out = tmp_path / "f" / "x"
    before = _files(tmp_path)
    rc = main([command[0], "--spec", str(gamma_spec), "--out", str(out), *command[1:]])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert _files(tmp_path) == before


def _write_spec(tmp_path, model, lam, sig):
    p = tmp_path / "s.json"
    spec = g.GlmSpec(model=model, lam=lam, sig=sig, r=0.02)
    p.write_text(json.dumps(g.spec_to_dict(spec)))
    return p


@pytest.mark.parametrize("name", FAMILY_NAMES + [f"Mirrored[{n}]" for n in ASYMMETRIC])
def test_sigma_equal_to_lambda_has_zero_inverse_premium(tmp_path, capsys, name):
    # At sig = lam, R_tilde = psi(-sig) + psi(0) - psi(-sig) is exactly 0, as
    # psi(0) is +-0: the Siegel rule (R_tilde > 0 exactly when sig > lam) holds.
    base = name.removeprefix("Mirrored[").removesuffix("]")
    model, _, sig = DEFAULT_MODELS[base]
    if base != name:
        model = g.mirror(model)
    p = tmp_path / "s.json"
    spec = g.GlmSpec(model=model, lam=sig, sig=sig, r=0.02, f=0.01)
    p.write_text(json.dumps(g.spec_to_dict(spec)))
    assert main(["verify", "--spec", str(p)]) == 0
    assert json.loads(capsys.readouterr().out)["checks"]["siegel_sign"]
    assert main(["fx-check", "--spec", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["R_tilde"] == 0.0 and out["siegel_ok"]


@pytest.mark.parametrize("n", [2, 20_000])
@pytest.mark.parametrize("name", ["Gamma", "VarianceGamma", "NegativeBinomial",
                                  "Mirrored[Poisson]", "Brownian"])
def test_simulate_summary_is_the_one_step_mc_expectation_bit_for_bit(tmp_path, capsys,
                                                                      name, n):
    base = name.removeprefix("Mirrored[").removesuffix("]")
    model, lam, sig = DEFAULT_MODELS[base]
    if base != name:
        model = g.mirror(model)
    spec_path = _write_spec(tmp_path, model, lam, sig)
    out, seed, horizon = tmp_path / "sim", 31, 1.5
    rc = main(["simulate", "--spec", str(spec_path), "--out", str(out), "--seed", str(seed),
               "--n", str(n), "--paths", "1", "--steps", "4", "--horizon", repr(horizon)])
    comp = model.psi(sig)
    x = g.sample_increments(model, horizon, n, g.Rng(seed, 10_000))
    pin = g.McResult.from_samples(np.exp(sig * x - horizon * comp))

    def payoff(path):
        return math.exp(sig * path.values[-1] - horizon * comp)

    ref = g.mc_expectation(payoff, model, horizon, 1, n, g.Rng(seed, 10_000))
    if pin.stderr == 0.0:
        # Equal samples (NegativeBinomial and Mirrored[Poisson] at n = 2) are
        # rejected and leave no files.
        assert (rc, out.exists(), ref.stderr) == (2, False, 0.0)
        return
    summary = json.loads((out / "mc_summary.json").read_text())
    assert capsys.readouterr().out.splitlines()[-1] == json.dumps(summary)
    assert repr(summary["estimate"]) == repr(pin.estimate)
    assert repr(summary["stderr"]) == repr(pin.stderr)
    assert summary["n"] == ref.n == n
    assert rc == (0 if abs(pin.estimate - 1.0) < 4.0 * pin.stderr else 1)
    # The payoff's math.exp and np.exp round up to 5325 of the 20 000 samples
    # here an ulp apart, but over these 10 cases the mean and standard error
    # moved 0 ulps from the one-step mc_expectation.
    assert (summary["estimate"], summary["stderr"]) == (ref.estimate, ref.stderr)


@pytest.mark.parametrize("n", ["1", "0"])
def test_simulate_too_few_samples_exits_2(gamma_spec, tmp_path, capsys, n):
    out = tmp_path / "sim"
    assert main(["simulate", "--spec", str(gamma_spec), "--out", str(out), "--n", n]) == 2
    err = capsys.readouterr().err
    assert err == f"error: parameter n={n} violates: must be >= 2\n"
    assert not out.exists()


@pytest.mark.parametrize("spec, flags", [
    # Every sample underflows to 0.
    (_GOOD_SPEC, ["--paths", "0", "--n", "100", "--horizon", "1e300"]),
    # No jump by the horizon: every sample is 0.99999999999935.
    ({"family": "Poisson", "params": {"m": 1.0}, "r": 0.02, "lambda": 0.3, "sigma": 0.5},
     ["--horizon", "1e-12"]),
], ids=["gamma-underflow", "poisson-no-jump"])
def test_simulate_degenerate_sample_exits_2(tmp_path, capsys, spec, flags):
    path, out = tmp_path / "s.json", tmp_path / "sim"
    path.write_text(json.dumps(spec))
    assert main(["simulate", "--spec", str(path), "--out", str(out)] + flags) == 2
    cap = capsys.readouterr()
    assert cap.out == f"seed={DEFAULT_SEED}\n"
    assert cap.err.startswith("error: parameter horizon=") and cap.err.count("\n") == 1
    assert "stderr 0" in cap.err
    assert not out.exists()


@pytest.mark.parametrize("family, params", [
    ("Poisson", {"m": 1e300}),
    ("CompoundPoissonNormal", {"m": 1e300}),
    ("NegativeBinomial", {"m": 1e300, "q": 0.5}),
])
def test_simulate_rate_beyond_the_sampler_exits_2(tmp_path, capsys, family, params):
    # numpy's Poisson and negative binomial samplers reject a rate m dt above
    # about 9.2e18 with a ValueError.
    path, out = tmp_path / "s.json", tmp_path / "sim"
    path.write_text(json.dumps({**_GOOD_SPEC, "family": family, "params": params,
                                "lambda": 0.3, "sigma": 0.5}))
    assert main(["simulate", "--spec", str(path), "--out", str(out)]) == 2
    cap = capsys.readouterr()
    assert cap.err.startswith("error: parameter dt=") and cap.err.count("\n") == 1
    assert not out.exists()


def test_simulate_overflowing_compensated_exponential_exits_2(tmp_path, capsys):
    # Gamma at m T = 3e40: every draw of X_T is the float nearest 3e40, and
    # sigma X - T psi(sigma) = 1e-17 X + 3e40 log1p(-1e-17) is 2**25 by rounding,
    # so e^{sigma X - T psi} overflows a float.
    path, out = tmp_path / "s.json", tmp_path / "sim"
    path.write_text(json.dumps({**_GOOD_SPEC, "params": {"m": 1e40}, "lambda": 0.0,
                                "sigma": 1e-17}))
    assert main(["simulate", "--spec", str(path), "--out", str(out), "--horizon", "3"]) == 2
    cap = capsys.readouterr()
    assert cap.out == f"seed={DEFAULT_SEED}\n"
    assert cap.err.startswith("error: parameter sigma=1e-17 ") and cap.err.count("\n") == 1
    assert "overflows a float" in cap.err
    assert not out.exists()


def test_simulate_variance_gamma_past_its_sampler_shape_exits_2(tmp_path, capsys):
    # VG at m = 1e300 once drew X_T of about 1.8e134 every time and reached the
    # overflow above; its sampler now refuses a gamma shape m dt above 1e16.
    path, out = tmp_path / "s.json", tmp_path / "sim"
    path.write_text(json.dumps({**_GOOD_SPEC, "family": "VarianceGamma",
                                "params": {"m": 1e300}, "lambda": 0.0, "sigma": 1.0}))
    assert main(["simulate", "--spec", str(path), "--out", str(out)]) == 2
    cap = capsys.readouterr()
    assert cap.out == f"seed={DEFAULT_SEED}\n"
    assert cap.err.startswith("error: parameter (m, dt)=(1e+300, 0.004) ")
    assert cap.err.count("\n") == 1 and "m*dt must be <= 1e+16" in cap.err
    assert not out.exists()


def test_cold_start_loads_no_scipy(gamma_spec, tmp_path):
    # Other test modules import scipy, so only a fresh interpreter shows what
    # importing glevy and running commands load; the exact Gamma price runs
    # the quadrature.
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import glevy, glevy.cli; "
            "spec, out = sys.argv[2], sys.argv[3]; "
            "rcs = [glevy.cli.main(['verify', '--spec', spec]), "
            "glevy.cli.main(['premium', '--spec', spec, '--out', out + '/p.csv']), "
            "glevy.cli.main(['price-option', '--spec', spec, '--out', out + '/o.csv', "
            "'--strike', '1.05', '--method', 'exact'])]; "
            "print(json.dumps([rcs, sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.'))]))")
    src = str(FsPath(g.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, src, str(gamma_spec), str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0, 0], []]


def test_simulate_bad_horizon_without_paths_names_the_horizon(gamma_spec, tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--spec", str(gamma_spec), "--out", str(out), "--n", "100",
                 "--paths", "0", "--horizon", "inf"]) == 2
    err = capsys.readouterr().err
    assert err == "error: parameter horizon=inf violates: must be finite and > 0\n"
    assert not out.exists()


def _reference_csv(header, rows) -> bytes:
    """csv.writer with every float at 17 significant digits."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode()


def test_csv_float_rows_match_the_reference_writer(tmp_path):
    special = [math.inf, -math.inf, math.nan, -math.nan, 0.0, -0.0, 5e-324, 2.2e-308,
               1.7976931348623157e308, 0.1, 1e16, 1e17, 123456789012345678.0, 1e-5, -2.5]
    bits = np.random.default_rng(3).integers(0, 2**64, 600, dtype=np.uint64)
    values = special + bits.view(np.float64).tolist()
    rows = list(zip(values[0::3], values[1::3], values[2::3]))
    out = tmp_path / "t.csv"
    _write_csv(out, ["a", "b", "c"], rows)
    assert out.read_bytes() == _reference_csv(["a", "b", "c"], rows)


def test_cli_csv_files_match_the_reference_writer(gamma_spec, tmp_path, capsys):
    model = g.Gamma(m=1.0)
    surface = tmp_path / "surface.csv"
    assert main(["premium", "--spec", str(gamma_spec), "--out", str(surface),
                 "--grid", "0.05:0.4:0.01"]) == 0
    grid = np.arange(0.05, 0.4 + 0.005, 0.01)
    assert surface.read_bytes() == _reference_csv(
        ["lambda", "sigma", "R", "R_tilde"], g.premium_surface(model, grid, grid))

    sim = tmp_path / "sim"
    assert main(["simulate", "--spec", str(gamma_spec), "--out", str(sim), "--seed", "7",
                 "--n", "100", "--paths", "2", "--steps", "16"]) in (0, 1)
    for i in range(2):
        times, values = g.simulate_paths(model, 1.0, 16, 1, g.Rng(7, i))
        assert (sim / f"path_{i:04d}.csv").read_bytes() == _reference_csv(
            ["t", "x"], zip(times.tolist(), values[0].tolist()))

    header = ["family", "params", "K", "T", "price", "stderr", "method"]
    # NB's params JSON holds a comma and quotes, so csv must quote that field.
    nb, lam, sig = DEFAULT_MODELS["NegativeBinomial"]
    spec_path = _write_spec(tmp_path, nb, lam, sig)
    spec = g.load_spec(spec_path)
    opt = tmp_path / "opt.csv"
    assert main(["price-option", "--spec", str(spec_path), "--out", str(opt),
                 "--strike", "1.05", "--method", "mc", "--n", "2000", "--seed", "5"]) == 0
    res = g.mc_call_price(spec, g.OptionSpec(strike=1.05, expiry=1.0), 2000, g.Rng(5))
    params = json.dumps(nb.params())
    assert "," in params and '"' in params
    assert opt.read_bytes() == _reference_csv(
        header, [(nb.family, params, 1.05, 1.0, res.estimate, res.stderr, "mc")])
    assert b'"{""m"": 1.0, ""q"": 0.5}"' in opt.read_bytes()

    assert main(["price-option", "--spec", str(gamma_spec), "--out", str(opt),
                 "--strike", "0.9", "--expiry", "2.0", "--method", "exact"]) == 0
    price = g.exact_call(g.load_spec(gamma_spec), g.OptionSpec(strike=0.9, expiry=2.0))
    assert opt.read_bytes() == _reference_csv(
        header, [("Gamma", json.dumps(model.params()), 0.9, 2.0, price, 0.0, "exact")])
