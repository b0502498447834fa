"""One workload in its own process: set up, then a single closed-loop client.

Usage (normally started by run.py):

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE SETUP_ONLY T_SPAWN

T_SPAWN is the parent's ``time.monotonic()`` just before it started this
process, so set-up time counts interpreter start and every import. On Linux
``time.monotonic`` reads one system-wide clock, comparable across processes.
Prints one JSON object as its last line of standard output.

Times are reported twice: raw, and normalised to a reference speed. The
client times a fixed reference kernel of pure-Python and numpy work before a
request whenever REF_EVERY_S of request time has passed since the last one.
A request's normalised latency is its raw latency times REF_NOMINAL_S over
the median of the REF_WINDOW kernel times nearest to it. On a shared host
the CPU's speed drifts by up to 2x within a minute, and the drift moves the
kernel and the requests alike; the ratio cancels most of it. The run also
reports its speed factor, REF_NOMINAL_S over the median kernel time of the
whole run, with which run.py normalises set-up time: the kernel timed in a
freshly started process proved too noisy for that.
"""
import math
import os
import sys
import time
from dataclasses import dataclass

# Before numpy is imported: one BLAS/OpenMP thread, so the benchmark measures
# the program rather than the scheduler on a small box.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings above)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_glevy():
    """Import glevy from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import glevy
    if os.path.dirname(os.path.dirname(os.path.abspath(glevy.__file__))) != SRC:
        raise SystemExit(f"glevy imported from {glevy.__file__}, not {SRC}")


REF_NOMINAL_S = 2e-3
REF_EVERY_S = 0.02
REF_WINDOW = 9


@dataclass(frozen=True)
class _Point:
    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b + 10.0:
            raise ValueError("outside the kernel's range")

    def value(self, y: float) -> float:
        return self.a * y + math.exp(-self.b * y)


def reference_kernel(small, large) -> float:
    """Fixed work, about REF_NOMINAL_S on a quiet 2-core Xeon host.

    The mix follows what glevy requests do: validated frozen-dataclass
    construction and scalar math per call, small numpy calls, and one pass
    over an array larger than L2. Of the kernels tried, this mix tracked the
    requests' slow-downs best.
    """
    s = 0.0
    for i in range(1200):
        s += _Point(i * 1e-3, 0.5).value(0.3)
    for i in range(4000):
        s += math.sqrt(i)
    for _ in range(8):
        s += float(np.exp(small).sum())
    return s + float(np.exp(large).sum())


def timed_reference(inputs) -> float:
    t0 = time.perf_counter()
    reference_kernel(*inputs)
    return time.perf_counter() - t0


def normalised(latencies, ref_index, refs) -> list:
    """Each latency scaled by REF_NOMINAL_S / local median kernel time.

    ref_index[i] is the position in refs of the last kernel run before
    request i.
    """
    half = REF_WINDOW // 2
    out = []
    for lat, j in zip(latencies, ref_index):
        window = sorted(refs[max(0, j - half):j + half + 1])
        out.append(lat * REF_NOMINAL_S / window[len(window) // 2])
    return out


def _quantile(values, q: float) -> float:
    """Linear-interpolation quantile of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Loop:
    """Runs request cycles and tallies latencies and failures."""

    def __init__(self, requests, tracer, ref_input):
        self.requests, self.tracer, self.ref_input = requests, tracer, ref_input
        self.latencies: list[float] = []
        self.refs: list[float] = []              # every reference kernel time
        self.ref_index: list[int] = []           # per latency: last kernel before it
        self._since_ref = math.inf
        self.attempted = self.failed = 0          # gated requests
        self.probes = self.probe_failed = 0       # known-defect probes
        self.errors: list[str] = []
        self.warmup_failed = 0
        self.known_defects: dict[str, str] = {}
        self._req_id = 0

    def _record(self, req, outcome) -> None:
        """outcome is None on success, else a one-line reason."""
        if req.gated:
            self.attempted += 1
            if outcome is not None:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(f"{req.kind} {req.name}: {outcome}")
        else:
            self.probes += 1
            self.probe_failed += outcome is not None
            self.known_defects[req.name] = outcome or "ok"

    def cycle(self, requests=None, record=True) -> float:
        """One pass over the requests; returns the time spent in them.

        The reference kernel and the checks run outside the timed calls; the
        checks after the whole pass.
        """
        requests = self.requests if requests is None else requests
        tracing = self.tracer.active
        results = []
        clock = time.perf_counter
        for req in requests:
            self._req_id += 1
            if self._since_ref >= REF_EVERY_S:
                self.refs.append(timed_reference(self.ref_input))
                self._since_ref = 0.0
            ref = len(self.refs) - 1
            if tracing:
                self.tracer.begin_request(self._req_id, f"{req.kind}:{req.name}")
            t0 = clock()
            try:
                result, error = req.call(), None
            except Exception as exc:  # the client keeps running; the request failed
                result, error = None, f"{type(exc).__name__}: {exc}"
            latency = clock() - t0
            self._since_ref += latency
            if tracing:
                self.tracer.end_request()
            results.append((req, result, error, latency, ref))
        for req, result, error, latency, ref in results:
            if error is None:
                try:
                    req.check(result)
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
            if record:
                self._record(req, error)
                self.latencies.append(latency)
                self.ref_index.append(ref)
            elif error is not None and req.gated:
                self.warmup_failed += 1
                self.errors.append(f"warm-up {req.kind} {req.name}: {error}")
        return sum(r[3] for r in results)


def main(argv) -> int:
    workload, seed, seconds, trace, setup_only, t_spawn = argv
    seed, seconds, t_spawn = int(seed), float(seconds), float(t_spawn)
    trace, setup_only = trace == "1", setup_only == "1"

    _import_glevy()
    import json
    import resource
    import shutil
    import tempfile

    import workloads
    from tracer import Tracer

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir)
    try:
        tracer = Tracer()
        requests = workloads.WORKLOADS[workload](seed, workdir, tracer)
        ref_input = (np.linspace(-1.0, 1.0, 2_000), np.linspace(-1.0, 1.0, 200_000))
        loop = Loop(requests, tracer, ref_input)
        first_of_kind = list({r.kind: r for r in reversed(requests)}.values())
        loop.cycle(first_of_kind, record=False)
        result = {"setup_raw_s": time.monotonic() - t_spawn,
                  "warmup_failed": loop.warmup_failed, "errors": loop.errors}
        if setup_only:
            print(json.dumps(result))
            return 0

        timed = traced = 0.0
        n_plain_cycles = n_traced_cycles = 0
        while True:
            timed += loop.cycle()
            n_plain_cycles += 1
            if trace:
                tracer.install()
                try:
                    traced += loop.cycle()
                finally:
                    tracer.uninstall()
                tracer.keep_spans = False
                n_traced_cycles += 1
            if timed + traced >= seconds:
                break

        lat = loop.latencies
        result.update({
            "cycles": n_plain_cycles + n_traced_cycles,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "known_defect_probes": loop.probes,
            "known_defect_failed": loop.probe_failed,
            "known_defects": loop.known_defects,
            "errors": loop.errors,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        if trace:
            # Every cycle repeats the same requests, so counts per cycle are
            # whole numbers.
            n = n_traced_cycles
            per_cycle = {k: v // n if isinstance(v, int) and v % n == 0 else v / n
                         for k, v in tracer.totals.items()}
            per_cycle["trace.overhead_frac"] = (traced / n) / (timed / n_plain_cycles) - 1.0
            result["layers"] = per_cycle
            result["spans_file"] = os.path.join(".bench_out", f"spans-{workload}.jsonl")
            tracer.write_spans(os.path.join(ROOT, result["spans_file"]),
                               {"workload": workload, "seed": seed,
                                "traced_cycles": n_traced_cycles})
        else:
            norm = normalised(lat, loop.ref_index, loop.refs)
            result.update({
                "timed_s": timed,
                "requests": len(lat),
                "requests_per_s": len(lat) / sum(norm),
                "latency_p50_ms": 1e3 * _quantile(norm, 0.5),
                "latency_p90_ms": 1e3 * _quantile(norm, 0.9),
                "speed": REF_NOMINAL_S / _quantile(loop.refs, 0.5),
                "raw": {"requests_per_s": len(lat) / timed,
                        "latency_p50_ms": 1e3 * _quantile(lat, 0.5),
                        "latency_p90_ms": 1e3 * _quantile(lat, 0.9),
                        "reference_ms": 1e3 * _quantile(loop.refs, 0.5)},
            })
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
