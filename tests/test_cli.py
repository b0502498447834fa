"""In-process tests for the command-line interface."""

import csv
import json
import math

import pytest

import glevy as g
from glevy.cli import main


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
        # 17 significant digits give exact binary64 round-trips.
        assert float(row["R"]) == g.risk_premium(model, lam, sig)
        assert float(row["R_tilde"]) == g.inverse_fx_premium(model, lam, sig)


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
        g.gamma_exact_call(spec, g.OptionSpec(strike=1.0, expiry=1.0)), rel=1e-12
    )

    rc = main(["price-option", "--spec", str(gamma_spec), "--out", str(out),
               "--strike", "1.0", "--method", "mc", "--n", "50000", "--seed", "3"])
    assert rc == 0
    with open(out) as fh:
        row = next(csv.DictReader(fh))
    assert abs(float(row["price"]) - exact) < 4.0 * float(row["stderr"])


def test_price_option_exact_unsupported_family(tmp_path):
    p = tmp_path / "vg.json"
    p.write_text(json.dumps({
        "family": "VarianceGamma", "params": {"m": 2.0},
        "r": 0.02, "lambda": 0.5, "sigma": 0.6,
    }))
    rc = main(["price-option", "--spec", str(p), "--out",
               str(tmp_path / "x.csv"), "--strike", "1.0", "--method", "exact"])
    assert rc == 2


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
