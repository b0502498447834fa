"""glevy benchmark: one closed-loop client per workload, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload calculus --seed 1 --seconds 10 --trace 0

--workload is calculus, montecarlo, cli, or all (the three in turn).
--trace 0 measures the end-to-end metrics with tracing off; --trace 1 makes a
separate traced run and reports the per-layer metrics. Metric names and units
come from BENCHMARK.json. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
give every metric with its unit and sample count, the known-defect probes
and the environment. The benchmark imports glevy from src/ of the checkout
and exits non-zero without a result when it is missing.
"""
import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("calculus", "montecarlo", "cli")
# Set-up is measured in this many fresh processes per run; the median is
# reported. The measured run is one of them.
SETUP_RUNS = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerFailed(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _git_commit() -> str:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head.startswith("ref: "):
        return _read(os.path.join(ROOT, ".git", head[5:]))
    return head


def environment(workload: str, seed: int) -> dict:
    """Read-only description of the machine and software under test."""
    cpu_model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = []
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache_dir):
        for index in sorted(os.listdir(cache_dir)):
            d = os.path.join(cache_dir, index)
            if index.startswith("index"):
                caches.append(f"L{_read(os.path.join(d, 'level'))} "
                              f"{_read(os.path.join(d, 'type'))} {_read(os.path.join(d, 'size'))}")
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        **versions,
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "threads": {v: "1" for v in THREAD_VARS},
    }


def _worker(workload, seed, seconds, trace, setup_only, deadline) -> dict:
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
            str(seconds), str(int(trace)), str(int(setup_only)), repr(time.monotonic())]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("out of time before starting a worker")
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload} worker exceeded the deadline") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """Runs one workload; returns the result line plus a full report."""
    runs = []
    if not trace:
        runs = [_worker(workload, seed, seconds, False, True, deadline)
                for _ in range(SETUP_RUNS - 1)]
    r = _worker(workload, seed, seconds, trace, False, deadline)
    runs.append(r)
    raw_setups = [x["setup_raw_s"] for x in runs]
    warmup_failed = sum(x["warmup_failed"] for x in runs)

    total = r["attempted"] + r["known_defect_probes"]
    fail_frac = (r["failed"] + r["known_defect_failed"]) / total
    raw = {}
    if trace:
        values = dict(r["layers"], fail_frac=fail_frac)
        wanted = spec["per_layer"]
        counts = {m["name"]: r["cycles"] // 2 for m in wanted}
    else:
        raw = dict(r["raw"], setup_s=statistics.median(raw_setups))
        values = {"setup_s": raw["setup_s"] * r["speed"], "requests_per_s": r["requests_per_s"],
                  "latency_p50_ms": r["latency_p50_ms"], "latency_p90_ms": r["latency_p90_ms"],
                  "peak_rss_mb": r["peak_rss_mb"], "fail_frac": fail_frac}
        wanted = spec["end_to_end"] + [{"name": "fail_frac", "unit": "ratio"}]
        counts = {"setup_s": len(raw_setups), "requests_per_s": r["requests"],
                  "latency_p50_ms": r["requests"], "latency_p90_ms": r["requests"],
                  "peak_rss_mb": 1, "fail_frac": total}
    report = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"],
                          "n": counts[m["name"]]} for m in wanted}
    metrics = {m["name"]: {"value": report[m["name"]]["value"], "unit": m["unit"]}
               for m in (spec["per_layer"] if trace else spec["end_to_end"])}
    return {
        "correct": r["failed"] == 0 and warmup_failed == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
        "report": report,
        "raw": raw,
        "known_defects": r["known_defects"],
        "errors": r["errors"],
        "cycles": r["cycles"],
        "spans_file": r.get("spans_file"),
    }


def _print_report(workload: str, seed: int, res: dict) -> None:
    for name, m in res["report"].items():
        print(f"{workload:<11} {name:<28} {m['value']:>14.6g} {m['unit']:<6} (n={m['n']})")
    print(json.dumps({"workload": workload, "report": res["report"], "raw": res["raw"],
                      "known_defects": res["known_defects"], "errors": res["errors"],
                      "cycles": res["cycles"], "spans_file": res["spans_file"],
                      "env": environment(workload, seed)}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "glevy", "__init__.py")):
        print(f"error: no glevy sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(spec, name, args.seed, args.seconds,
                                         bool(args.trace), deadline)
            _print_report(name, args.seed, results[name])
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        res = results[names[0]]
        metrics = res["metrics"]
    else:
        res = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values())}
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
