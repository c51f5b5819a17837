"""One workload in one fresh process (started by ``run.py``).

Sets the workload up, prints ``READY`` (the parent times set-up up to
that line), then, unless ``--setup-only``, repeats the workload for
``--seconds`` with tracing off.  With ``--trace 1`` it then runs one
repetition under boundary spans and one under cProfile.  The last line
of standard output is a JSON document the parent turns into the
result.  Detailed results go to ``--out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import spec
import tracing

LOADAVG_AT_START = os.getloadavg()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")


def cache_counts():
    """Cumulative (memo hits, memo misses, evalcache hits, misses)."""
    from repro.core import evalcache
    from repro.gpusim import memo

    table = memo.stats().values()
    cache = evalcache.get_cache()
    return (sum(s["hits"] for s in table), sum(s["misses"] for s in table),
            cache.hits, cache.misses)


class Runner:
    """Times repetitions and checks each against the first."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def rep(self, call=None):
        """One checked repetition; returns (wall s, Outcome or None,
        cache-count deltas)."""
        wl = self.workload
        wl.before_rep()
        gc.collect()
        before = cache_counts()
        start = time.perf_counter()
        try:
            outcome = call() if call is not None else wl.run_once()
        except Exception as exc:  # a failed operation, not a crash
            wall = time.perf_counter() - start
            traceback.print_exc()
            self.attempted += len(self.reference or [None])
            self.failed += len(self.reference or [None])
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return wall, None, None
        wall = time.perf_counter() - start
        after = cache_counts()
        if self.reference is None:
            self.reference = outcome.results
        bad = set(outcome.broken)
        bad.update(i for i, (got, want) in
                   enumerate(zip(outcome.results, self.reference))
                   if got != want)
        if len(outcome.results) != len(self.reference):
            bad.add(len(outcome.results))
        self.attempted += len(outcome.results)
        self.failed += len(bad)
        if bad:
            self.errors.append(f"{len(bad)} operation(s) failed checks")
        deltas = tuple(b - a for a, b in zip(before, after))
        return wall, outcome, deltas


def counters_from(outcome, deltas):
    memo_hits, memo_misses, ec_hits, ec_misses = deltas
    values = {name: 0.0 for name, _, _ in spec.COUNTERS}
    values.update(outcome.counters)
    values["gpusim.memo.hit_rate"] = (memo_hits / (memo_hits + memo_misses)
                                      if memo_hits + memo_misses else 0.0)
    values["evalcache.hit_rate"] = (ec_hits / (ec_hits + ec_misses)
                                    if ec_hits + ec_misses else 0.0)
    values["evalcache.misses"] = ec_misses
    return values


def traced(runner, run_id, workload, untraced_wall_s, out_prefix):
    """The span repetition and the profiled repetition; returns the
    per-layer metrics and details for the output file."""
    recorder = tracing.SpanRecorder(run_id)
    restore = tracing.patch_boundaries(recorder)
    try:
        wall, outcome, deltas = runner.rep()
    finally:
        restore()
    if outcome is None:
        return {}, {}
    spans = recorder.summary()
    metrics = {}
    for label in spec.BOUNDARIES:
        calls, self_s = spans.get(label, (0, 0.0))
        metrics[f"{label}.calls"] = calls
        metrics[f"{label}.self_s"] = self_s
    missing = [label for label, where in spec.BOUNDARIES.items()
               if workload in where and label not in spans]
    if missing:
        # A wrapper in the wrong namespace records nothing: a failure.
        runner.failed += 1
        runner.errors.append(f"declared boundaries never called: {missing}")
    metrics.update(counters_from(outcome, deltas))
    metrics["harness.trace_overhead_x"] = wall / untraced_wall_s
    for name, _, _ in spec.SIM:
        metrics[name] = outcome.sim.get(name, 0.0)

    shares, profile = {}, {}

    def profiled():
        result, folded, totals = tracing.profile_fold(
            runner.workload.run_once)
        shares.update(folded)
        profile.update(totals)
        return result

    runner.rep(profiled)
    for name in spec.PACKAGE_SHARES:
        metrics[f"pkg.{name}"] = shares.get(name, 0.0)
    spans_path = out_prefix + "-spans.jsonl.gz"
    recorder.write(spans_path)
    detail = {"spans": len(recorder), "spans_file": spans_path,
              "span_wall_s": wall, "boundaries_missing": missing,
              "profile": profile}
    return metrics, detail


def measure(workload: str, seed: int, seconds: float, trace: bool,
            out: str, size: str = "full", setup_only: bool = False) -> dict:
    """Set up, then repeat for ``seconds`` (and trace); returns the
    run document, also written under ``out``."""
    import numpy

    import workloads

    wl = workloads.make(workload, seed, size)
    wl.setup()
    print("READY", flush=True)
    if setup_only:
        return {}

    runner = Runner(wl)
    reps, walls, latencies = 0, [], []
    digest, sim = None, {}
    start = time.perf_counter()
    while reps < spec.MIN_REPS or time.perf_counter() - start < seconds:
        wall, outcome, _ = runner.rep()
        reps += 1
        if outcome is None:
            continue
        walls.append(wall)
        digest = digest or outcome.digest
        sim = outcome.sim
        latencies.extend(outcome.latencies_ms or [wall * 1000.0])
    measured_s = time.perf_counter() - start
    metrics = {"peak_rss_mb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if walls:
        metrics["wall_s"] = statistics.median(walls)
        metrics["query_p50_ms"] = statistics.median(latencies)
    os.makedirs(out, exist_ok=True)
    prefix = os.path.join(out, f"{workload}-seed{seed}")
    detail = {}
    if trace and walls:
        metrics, detail = traced(runner, f"{workload}-seed{seed}", workload,
                                 metrics["wall_s"], prefix)
        if metrics:
            metrics["query_p99_ms"] = statistics.quantiles(
                latencies, n=100, method="inclusive")[98]
    doc = {
        "workload": workload, "seed": seed, "size": size, "trace": trace,
        "attempted": runner.attempted, "failed": runner.failed,
        "errors": runner.errors[:20], "digest": digest, "sim": sim,
        "reps": reps, "walls_s": walls, "measured_s": measured_s,
        "queries": len(latencies), "metrics": metrics,
        "trace_detail": detail,
        "protocol": {
            "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "loadavg_at_start": LOADAVG_AT_START,
        },
    }
    with open(prefix + ("-trace" if trace else "") + ".json", "w") as fh:
        json.dump(doc, fh, indent=1)
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    doc = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.out, setup_only=args.setup_only)
    if doc:
        print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
