"""Benchmark of the assetval library and CLI.

    python3 bench/run.py --workload batch-json --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src. With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. Human-readable lines come first; the
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

COLD_STARTS = 15  # cold-start spawns per run, each paired with a bare start
MIN_PASSES = 3
COLD_ARGV = ["value", "--cost", "100", "--life", "10", "--rate", "0.2", "--age", "5"]
COLD_OUTPUT = "71.3329\n"
COLD_CODE = "from assetval.cli import entrypoint; entrypoint()"
# Timings are reported at the machine speed where one piece of reference
# work takes REFERENCE_NS and a bare interpreter starts in BARE_START_S.
REFERENCE_NS = 100_000
BARE_START_S = 0.05


def import_package() -> None:
    """Import assetval from this checkout's src, and nowhere else."""
    if not (SRC / "assetval" / "__init__.py").is_file():
        sys.exit(f"bench: no package at {SRC / 'assetval'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import assetval

    if Path(assetval.__file__).resolve().parent != (SRC / "assetval").resolve():
        sys.exit(f"bench: imported assetval from {assetval.__file__}, not from {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class ColdStarts:
    """Fresh interpreters running one `assetval value` command, and bare
    `python -c pass` as a reference, spawned one at a time in pairs.

    The samples are spread over the whole run rather than taken in one
    burst. The first spawn is untimed: it writes the bytecode caches."""

    def __init__(self) -> None:
        self.env = child_env()
        self.command = [sys.executable, "-c", COLD_CODE, *COLD_ARGV]
        self.times: list[float] = []
        self.reference: list[float] = []
        self.failed = 0
        self._spawn(self.command)

    def _spawn(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        t0 = perf_counter()
        proc = subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        return perf_counter() - t0, proc

    def keep_up(self, share: float) -> None:
        """Take samples until there are `share` of COLD_STARTS."""
        while len(self.times) < min(COLD_STARTS, math.ceil(COLD_STARTS * share)):
            dt, proc = self._spawn(self.command)
            self.times.append(dt)
            self.failed += proc.returncode != 0 or proc.stdout != COLD_OUTPUT
            self.reference.append(self._spawn([sys.executable, "-c", "pass"])[0])

    def setup_s(self) -> float:
        """The cold start at the speed where a bare interpreter starts in
        BARE_START_S: each spawn over the bare one next to it, median."""
        return BARE_START_S * statistics.median(t / r for t, r in zip(self.times, self.reference))


class Reference:
    """A clock that runs at the machine's speed rather than the wall's.

    While a pass runs, a SIGALRM handler times a fixed piece of pure-Python
    work every PERIOD_S of wall time, whatever layer the pass is in. Until
    the next tick, `clock` counts wall time scaled by REFERENCE_NS over
    that piece's time: on a machine running half as fast, it runs half as
    fast. Time spent in the handler is left out."""

    PERIOD_S = 0.01

    def __init__(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        self.samples: list[int] = []
        # (clock reading, wall time it was taken at, scale): one attribute,
        # so a tick between the reads in `clock` cannot mix old and new
        self.state = (0.0, perf_counter_ns(), 1.0)

    def clock(self) -> float:
        virtual_ns, last_ns, scale = self.state
        return virtual_ns + (perf_counter_ns() - last_ns) * scale

    def _tick(self, signum=None, frame=None) -> None:
        t0 = perf_counter_ns()
        virtual_ns, last_ns, scale = self.state
        reference_work()
        t1 = perf_counter_ns()
        self.samples.append(t1 - t0)
        self.state = (virtual_ns + (t0 - last_ns) * scale, perf_counter_ns(), REFERENCE_NS / (t1 - t0))

    def start(self) -> None:
        self.samples = []
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> float:
        """Stop ticking; the mean time of the reference work in the pass."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return statistics.fmean(self.samples)


def reference_work(n: int = 120) -> int:
    """About REFERENCE_NS of the kind of work the package does: calls,
    float powers and logs, string formatting, dict updates."""
    seen: dict[str, int] = {}
    acc = 0.0
    for i in range(n):
        y = _step(100.0, 1.0 + (i % 37) * 0.01, i % 11)
        acc += y
        key = f"{y:.4f}"[:3]
        seen[key] = seen.get(key, 0) + 1
    return len(seen) + int(acc)


def _step(cost: float, x: float, k: int) -> float:
    return cost * x ** k - math.log1p(x)


def run_passes(wl, seconds: float, ref: Reference, cold: ColdStarts | None = None,
               traced_too: bool = False):
    """Passes until the time is spent, at least MIN_PASSES of them.

    With traced_too, untraced and traced passes alternate. Passes and spans
    are timed on the reference clock. Each pass starts from a collected heap
    and runs on one CPU, the passes taking the CPUs this process may use in
    turn, so that no run rests on one CPU. Cold starts are taken between
    passes. Returns the passes, the tracer, and the peak resident memory
    after the first pass: the process is fresh, so that is the workload's
    own peak, before any checking adds to it."""
    from spans import Tracer

    plain, traced = [], []
    tracer = Tracer(ref.clock)
    rss_mb = None
    cpus = sorted(os.sched_getaffinity(0))
    t_start = perf_counter()
    while True:
        os.sched_setaffinity(0, {cpus[len(plain) % len(cpus)]})
        gc.collect()
        result = timed_pass(wl, ref)
        if rss_mb is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wl.check(result)
        plain.append(result)
        if traced_too:
            gc.collect()
            result = timed_pass(wl, ref, tracer)
            wl.check(result)
            traced.append(result)
        elapsed = perf_counter() - t_start
        if cold:
            cold.keep_up(elapsed / seconds)
        if len(plain) >= (2 if traced_too else MIN_PASSES) and elapsed * (1 + 1 / len(plain)) > seconds:
            if cold:
                cold.keep_up(1.0)
            return plain, traced, tracer, rss_mb


def timed_pass(wl, ref: Reference, tracer=None):
    """One pass on the reference clock; with a tracer, instrumented and
    under a root span. Records the mean time of the reference work."""
    from spans import instrument

    ref.start()
    try:
        if tracer is None:
            result = wl.run_pass(clock=ref.clock)
        else:
            with instrument(tracer), tracer.root("pass"):
                result = wl.run_pass(tracer, clock=ref.clock)
    finally:
        ref_ns = ref.stop()
    result.ref_ns = ref_ns
    return result


def end_to_end(wl, passes, cold: ColdStarts, rss: float) -> dict[str, tuple[float, str, int]]:
    """Metric -> (value, unit, sample count).

    Every pass makes the same requests, timed by the Reference clock, and
    each request is taken at its median time over the passes. The
    machine's speed drifts by tens of percent within seconds and between
    hours; times on that clock do not (see README.md, Noise). Throughputs
    divide the work by the sum of those times; latency percentiles are
    taken over them."""
    per_request = [statistics.median(times) for times in zip(*(p.request_ns for p in passes))]
    s = wl.summarize(per_request, statistics.median(p.other_ns for p in passes))
    lat = sorted(s.latencies_ns)
    p99_at = int(len(lat) * 0.99)
    if len(lat) - p99_at <= 10:
        sys.exit(f"bench: {len(lat)} requests, too few for a p99")
    samples = len(lat) * len(passes)
    return {
        "rows_per_s": (s.rows / s.rows_s, "rows/s", len(passes)),
        "values_per_s": (s.values / s.values_s, "values/s", len(passes)),
        "cmd_latency_p50_ms": (lat[len(lat) // 2] / 1e6, "ms", samples),
        "cmd_latency_p99_ms": (lat[p99_at] / 1e6, "ms", samples),
        "peak_rss_mb": (rss, "MB", 1),
        "setup_s": (cold.setup_s(), "s", len(cold.times)),
    }


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_package()

    run_dir = ROOT / ".bench_run"
    run_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=run_dir))
    try:
        return measure(args, WORKLOADS[args.workload](args.seed, workdir), run_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, run_dir: Path) -> int:
    inputs = wl.inputs()
    print(f"workload {args.workload} seed {args.seed}: inputs {json.dumps(inputs)}")
    if args.trace:
        from spans import SELF_TIME_LAYERS, layer_metrics

        plain, traced, tracer, _ = run_passes(wl, args.seconds, Reference(), traced_too=True)
        records = inputs.get("records", 0)
        bytes_out = traced[-1].bytes_out
        layers = layer_metrics(tracer, len(traced), bytes_out, records)
        layers["trace.overhead_ratio"] = (statistics.median(p.wall_s for p in traced)
                                          / statistics.median(p.wall_s for p in plain))
        trace_file = run_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_file)
        attributed = sum(layers[k] for k in SELF_TIME_LAYERS)
        print(f"traced passes {len(traced)}, untraced {len(plain)}; spans in {trace_file.name}")
        print(f"self times {attributed:.4f} s + unattributed {layers['trace.unattributed_s']:.4f} s"
              f" = wall {layers['trace.wall_s']:.4f} s per pass")
        for name, value in layers.items():
            print(f"  {name:45s} {value:.6g}")
        metrics = {k: (v, unit_of(k), len(traced)) for k, v in layers.items()}
        results = plain + traced
        cold_spawns = cold_failed = 0
    else:
        cold = ColdStarts()
        results, _, _, rss = run_passes(wl, args.seconds, Reference(), cold)
        cold_spawns, cold_failed = len(cold.times), cold.failed
        metrics = end_to_end(wl, results, cold, rss)
        for name, (value, unit, n) in metrics.items():
            print(f"  {name:20s} {value:14.6g} {unit:9s} n={n}")
        ref_us = [p.ref_ns / 1e3 for p in results]
        print(f"  reference work: {statistics.median(ref_us):.4g} us per piece, median of {len(results)}"
              f" passes ({min(ref_us):.4g}-{max(ref_us):.4g}); timings above are scaled to"
              f" {REFERENCE_NS / 1e3:g} us")
        print(f"  cold start: python -c pass {statistics.median(cold.reference):.6g} s, assetval value"
              f" {statistics.median(cold.times):.6g} s (medians of {len(cold.times)}, as measured);"
              f" setup_s is scaled to a {BARE_START_S:g} s bare start")
    attempted = sum(p.attempted for p in results) + cold_spawns
    problems = [msg for p in results for msg in p.problems]
    failed = len(problems) + cold_failed
    print(f"  error_rate {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for msg in problems[:20]:
        print(f"  FAIL {msg}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    for suffix, unit in (("ns_per_call", "ns"), ("ns_per_row", "ns"), ("ns_per_byte", "ns/byte"),
                         ("ms_per_cmd", "ms"), ("bytes_in", "bytes"), ("bytes_out", "bytes"),
                         ("ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
