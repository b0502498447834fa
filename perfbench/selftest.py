"""Self-test of the benchmark itself; it is not part of the tier-1 suite.

    python3 perfbench/selftest.py

For each workload at minimal size (one cycle) it checks that the untraced run
prints all six end-to-end metrics with units and the traced run every named
per-layer metric; that valid requests fail 0; that the counts named below
repeat exactly across two traced runs at one seed; and that a second seed
passes the same checks. Last, it checks that the benchmark refuses to run,
with a non-zero exit and no result, in a directory holding only
BENCHMARK.json and perfbench/. Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import run

REPEATABLE = ("exponents.calls", "sampling.draws", "sampling.payoff_calls",
              "premium.quad_calls")
E2E = ("setup_s", "requests_per_s", "latency_p50_ms", "latency_p90_ms",
       "peak_rss_mb", "fail_frac")
SEEDS = (7, 8)
MINIMAL_SECONDS = 0.01


def check_workload(spec: dict, workload: str, seed: int, problems: list) -> dict:
    def fail(msg):
        problems.append(f"{workload} seed {seed}: {msg}")

    deadline = time.monotonic() + run.DEADLINE_S
    plain = run.run_workload(spec, workload, seed, MINIMAL_SECONDS, False, deadline)
    for name in E2E:
        m = plain["report"].get(name)
        if m is None or not m["unit"] or m["n"] < 1:
            fail(f"end-to-end metric {name} missing, without unit or without samples")
    if set(plain["metrics"]) != {m["name"] for m in spec["end_to_end"]}:
        fail("result metrics differ from BENCHMARK.json end_to_end")
    if not plain["correct"] or plain["failed"]:
        fail(f"valid requests failed: {plain['errors']}")
    probes = plain["known_defects"]
    failing = sum(outcome != "ok" for outcome in probes.values())
    total = plain["report"]["fail_frac"]["n"]
    if abs(plain["report"]["fail_frac"]["value"] - failing / total * plain["cycles"]) > 1e-12:
        fail("fail_frac is not the share of the failing known-defect probes")

    traced = [run.run_workload(spec, workload, seed, MINIMAL_SECONDS, True,
                               time.monotonic() + run.DEADLINE_S) for _ in range(2)]
    for res in traced:
        missing = {m["name"] for m in spec["per_layer"]} - set(res["report"])
        if missing:
            fail(f"per-layer metrics missing: {sorted(missing)}")
        if not res["correct"]:
            fail(f"traced run failed: {res['errors']}")
        if not os.path.isfile(os.path.join(run.ROOT, res["spans_file"])):
            fail("spans file not written")
    for name in REPEATABLE:
        a, b = (res["metrics"][name]["value"] for res in traced)
        if a != b:
            fail(f"{name} differs across traced runs: {a} vs {b}")
    return {name: traced[0]["metrics"][name]["value"] for name in REPEATABLE}


def check_refuses_without_sources(problems: list) -> None:
    out_dir = os.path.join(run.ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=out_dir)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "calculus",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("benchmark ran without glevy sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems: list[str] = []
    for workload in run.WORKLOADS:
        for seed in SEEDS:
            counts = check_workload(spec, workload, seed, problems)
            print(f"{workload} seed {seed}: {json.dumps(counts)}")
    check_refuses_without_sources(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
