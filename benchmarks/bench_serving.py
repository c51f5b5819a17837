"""Serving subsystem benches: plan-cache hit path vs cold ranking, the
throughput value of dynamic batching under saturating load, and the
host-side fast path of the simulator itself.

Unlike the figure benches these do not regenerate a paper artifact —
they quantify the serving layer built on top of the paper's cost
model.  The rendered comparison is archived as
``benchmarks/results/serving_throughput.txt`` and the machine-readable
headline numbers as ``benchmarks/results/BENCH_serving.json``.

The **fast-path mode** measures the simulator's own host throughput
(trace arrivals processed per wall-clock second) against the archived
pre-fast-path baseline walls (:data:`PR6_BASELINE`, measured on the
same protocol before the memo / batched event loop / incremental stats
work landed).  Its hard gate is *byte identity*: an untraced run and a
``sample=4`` traced run must produce the same ``StatsReport`` JSON,
byte for byte — tracing observes the one dispatch lane, it never
changes simulated behaviour.

Run as a script (``python benchmarks/bench_serving.py [--quick]``) it
exits non-zero on any gate failure.  A passing full run writes the
results JSON and the rendered text only when the JSON is missing or
one of its recorded fields other than the host timings differs (the
rule in ``benchmarks/artifacts.py``); ``--quick`` writes nothing.  To
record new host timings, delete the JSON and rerun.  Under pytest the
``bench_*`` entries assert the same gates and write nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
import time

try:
    import pytest
except ImportError:                                   # script mode
    pytest = None

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Long enough that cold plan misses (one per shape x batch bucket)
#: amortize into a >90% steady-state hit rate.
FULL_SPEC = dict(duration_s=6.0, rate_rps=6000.0, seed=7)
QUICK_SPEC = dict(duration_s=1.5, rate_rps=6000.0, seed=7)

#: Host walls of the serving simulator *before* the fast-path work
#: (dispatch memo, batched event loop, incremental stats), measured at
#: the PR-6 head on the full workload above: warm process (advisor and
#: eval-cache models already evaluated), best of 3, otherwise-idle
#: host.  The "after" numbers are re-measured live by
#: :func:`run_fastpath`, so the speedup-vs-baseline field is only
#: meaningful on comparable hardware — the CI gates use an absolute
#: throughput floor and byte identity instead.
PR6_BASELINE = {
    "commit": "4fd1e26",
    "protocol": "warm best-of-3, idle host, full workload",
    "batched_wall_s": 0.411,
    "single_wall_s": 3.787,
    "combined_wall_s": 4.199,
    "combined_loadgen_rps": 17066.0,   # 2 x 35830 arrivals / 4.199 s
    "single_loadgen_rps": 9461.0,      # 35830 arrivals / 3.787 s
}

#: CI floor, deliberately conservative: shared runners are slow and
#: noisy, so the absolute floor is ~8x under this box's measured rate.
MIN_LOADGEN_RPS = 10_000.0

#: Trace sampling rate of the byte-identity leg.
TRACE_SAMPLE = 4

#: Payload fields holding host timings, which differ on every run.
HOST_TIMINGS = ("after", "speedup_vs_pr6_x", "single_speedup_vs_pr6_x")


def _digest(report) -> str:
    blob = json.dumps(report.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _latency_summary(report):
    return {"throughput_rps": round(report.throughput_rps, 1),
            "latency_p50_ms": round(report.latency_p50_ms, 3),
            "latency_p99_ms": round(report.latency_p99_ms, 3),
            "completed": report.completed}


def _configs():
    from repro.serve import BatchPolicy, ServerConfig

    batched = ServerConfig()
    single = ServerConfig(policy=BatchPolicy(max_batch=1, max_wait_s=0.0))
    return batched, single


def _traced_report(config, trace):
    """One run with sampled tracing attached."""
    from repro.serve import Server

    server = Server(config)
    server.enable_tracing(sample=TRACE_SAMPLE)
    return server.run(trace)


def _timed_run(config, trace, rounds: int):
    """Best-of-``rounds`` wall time for one server mode; returns
    (wall_s, report, last_server) — every round's report digest must
    agree."""
    from repro.serve import Server

    best = float("inf")
    report = None
    server = None
    for _ in range(rounds):
        server = Server(config)
        t0 = time.perf_counter()
        out = server.run(trace)
        wall = time.perf_counter() - t0
        if report is not None and _digest(out) != _digest(report):
            raise AssertionError("same-seed serving runs diverged")
        report = out
        best = min(best, wall)
    return best, report, server


def run_fastpath(quick: bool = False) -> dict:
    """Measure the simulator's host throughput; check that sampled
    tracing leaves the reports byte-identical."""
    from repro.serve import Server, TrafficSpec, generate_trace

    spec = TrafficSpec(**(QUICK_SPEC if quick else FULL_SPEC))
    trace = generate_trace(spec)
    rounds = 2 if quick else 3
    batched_cfg, single_cfg = _configs()
    # Warm the process-wide advisor/eval-cache models so the walls
    # measure the serving loop, not one-time model evaluation.
    Server(batched_cfg).run(trace)

    batched_wall, batched_report, _ = _timed_run(batched_cfg, trace, rounds)
    single_wall, single_report, _ = _timed_run(single_cfg, trace, rounds)

    traced_batched = _traced_report(batched_cfg, trace)
    traced_single = _traced_report(single_cfg, trace)

    combined = batched_wall + single_wall
    loadgen_rps = 2 * len(trace) / combined if combined else 0.0
    return {
        "workload": {"duration_s": spec.duration_s,
                     "rate_rps": spec.rate_rps, "seed": spec.seed,
                     "arrivals": len(trace), "quick": quick},
        "after": {
            "batched_wall_s": round(batched_wall, 3),
            "single_wall_s": round(single_wall, 3),
            "combined_wall_s": round(combined, 3),
            "loadgen_rps": round(loadgen_rps, 1),
            "single_loadgen_rps": round(len(trace) / single_wall, 1)
            if single_wall else 0.0,
        },
        "before": dict(PR6_BASELINE),
        "speedup_vs_pr6_x": round(
            PR6_BASELINE["combined_wall_s"] / combined, 2)
        if (combined and not quick) else None,
        "single_speedup_vs_pr6_x": round(
            PR6_BASELINE["single_wall_s"] / single_wall, 2)
        if (single_wall and not quick) else None,
        "trace_sample": TRACE_SAMPLE,
        "byte_identical": (
            _digest(batched_report) == _digest(traced_batched)
            and _digest(single_report) == _digest(traced_single)),
    }


def run_throughput(quick: bool = False) -> dict:
    """Batched vs forced batch=1 on the same saturating trace (the
    simulated-throughput headline, unchanged by the fast path)."""
    from repro.serve import Server, TrafficSpec, generate_trace

    spec = TrafficSpec(**(QUICK_SPEC if quick else FULL_SPEC))
    trace = generate_trace(spec)
    batched_cfg, single_cfg = _configs()
    batched = Server(batched_cfg).run(trace)
    single = Server(single_cfg).run(trace)
    speedup = (batched.throughput_rps / single.throughput_rps
               if single.throughput_rps else float("inf"))
    return {
        "workload": {"duration_s": spec.duration_s,
                     "rate_rps": spec.rate_rps, "seed": spec.seed,
                     "arrivals": len(trace)},
        "dynamic_batching": _latency_summary(batched),
        "forced_batch_1": _latency_summary(single),
        "throughput_speedup_x": round(speedup, 3),
        "plan_cache_hit_rate": round(batched.plan_cache["hit_rate"], 4),
        "_reports": (batched, single),
    }


def run_benchmark(quick: bool = False) -> dict:
    throughput = run_throughput(quick)
    batched, single = throughput.pop("_reports")
    return {
        "benchmark": "serving_throughput",
        "quick": quick,
        "workload": throughput["workload"],
        "dynamic_batching": throughput["dynamic_batching"],
        "forced_batch_1": throughput["forced_batch_1"],
        "throughput_speedup_x": throughput["throughput_speedup_x"],
        "plan_cache_hit_rate": throughput["plan_cache_hit_rate"],
        "fast_path": run_fastpath(quick),
        "_reports": (batched, single),
    }


def check_gates(payload: dict) -> list:
    failures = []
    fast = payload["fast_path"]
    if not fast["byte_identical"]:
        failures.append(f"untraced and sample={fast['trace_sample']} "
                        f"traced reports are not byte-identical — "
                        f"tracing changed simulated behaviour")
    if fast["after"]["loadgen_rps"] < MIN_LOADGEN_RPS:
        failures.append(
            f"loadgen throughput {fast['after']['loadgen_rps']:.0f} "
            f"arrivals/s below the {MIN_LOADGEN_RPS:.0f} floor")
    if (payload["dynamic_batching"]["throughput_rps"]
            <= payload["forced_batch_1"]["throughput_rps"]):
        failures.append("dynamic batching did not beat forced batch=1")
    if not payload["quick"] and payload["plan_cache_hit_rate"] <= 0.9:
        # Steady-state gate: the quick trace is too short to amortize
        # the one-per-(shape, bucket) cold misses.
        failures.append("plan cache hit rate at or below 0.9")
    return failures


def _render_text(payload: dict, batched, single) -> str:
    w = payload["workload"]
    fast = payload["fast_path"]
    lines = [
        f"serving throughput on {w['rate_rps']:.0f} rps x "
        f"{w['duration_s']:g} s (seed {w['seed']})",
        "",
        "== dynamic batching ==",
        batched.render(),
        "",
        "== forced batch=1 ==",
        single.render(),
        "",
        f"dynamic batching throughput speedup: "
        f"x{payload['throughput_speedup_x']:.2f}",
        "",
        "== simulator fast path (host time) ==",
        f"batched {fast['after']['batched_wall_s']:.3f}s + "
        f"single {fast['after']['single_wall_s']:.3f}s = "
        f"{fast['after']['combined_wall_s']:.3f}s "
        f"({fast['after']['loadgen_rps']:,.0f} arrivals/s)",
        f"untraced vs sample={fast['trace_sample']} traced reports "
        f"byte-identical: {fast['byte_identical']}",
    ]
    if fast["speedup_vs_pr6_x"] is not None:
        lines.append(
            f"vs pre-fast-path baseline ({fast['before']['commit']}): "
            f"combined x{fast['speedup_vs_pr6_x']:.1f}, "
            f"forced batch=1 x{fast['single_speedup_vs_pr6_x']:.1f}")
    return "\n".join(lines)


# -- pytest benchmark entries ---------------------------------------------

if pytest is not None:
    from repro.core.advisor import Advisor
    from repro.frameworks.registry import shared_implementations
    from repro.gpusim.device import K40C
    from repro.serve import PlanCache, batched_config
    from repro.serve.loadgen import MODEL_SHAPES
    from repro.serve.request import shape_key

    #: AlexNet conv2 at a bucketed batch — a representative plan key.
    CONV2_KEY = shape_key(MODEL_SHAPES["AlexNet"][1][1])

    def _advisor():
        return Advisor(K40C, shared_implementations())

    @pytest.mark.benchmark(group="serving-plan-cache")
    def bench_plan_cold_ranking(benchmark):
        """Full 7-way ranking on every call — the cache-miss path."""
        advisor = _advisor()
        config = batched_config(CONV2_KEY, 32)
        plan = benchmark(advisor.plan, config)
        assert plan is not None
        benchmark.extra_info["implementation"] = plan.implementation

    @pytest.mark.benchmark(group="serving-plan-cache")
    def bench_plan_cache_hit(benchmark):
        """Memoized lookup of the same plan — the steady-state path."""
        advisor = _advisor()
        cache = PlanCache(capacity=8)
        key = (CONV2_KEY, 32, K40C.name)
        compute = lambda: advisor.plan(batched_config(CONV2_KEY, 32))
        cache.get_or_compute(key, compute)  # warm
        plan = benchmark(cache.get_or_compute, key, compute)
        assert plan is not None
        assert cache.hit_rate > 0.99

    @pytest.mark.benchmark(group="serving-throughput")
    def bench_serving_fastpath(benchmark):
        """Quick-mode fast-path bench plus every CI gate; writes
        nothing."""
        payload = benchmark.pedantic(run_benchmark, args=(True,),
                                     rounds=1, iterations=1)
        batched, single = payload.pop("_reports")
        print(_render_text(payload, batched, single))
        failures = check_gates(payload)
        assert not failures, "; ".join(failures)
        fast = payload["fast_path"]
        benchmark.extra_info["loadgen_rps"] = fast["after"]["loadgen_rps"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="1.5 s trace instead of the full 6 s one "
                             "(skips the vs-PR6 comparison fields); "
                             "writes nothing")
    args = parser.parse_args(argv)

    payload = run_benchmark(quick=args.quick)
    batched, single = payload.pop("_reports")
    text = _render_text(payload, batched, single)
    print(text)

    from benchmarks.artifacts import finish

    return finish(RESULTS_DIR / "BENCH_serving.json", payload,
                  check_gates(payload), HOST_TIMINGS, write=not args.quick,
                  texts={RESULTS_DIR / "serving_throughput.txt": text + "\n"})


if __name__ == "__main__":
    ROOT = pathlib.Path(__file__).parent.parent
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    raise SystemExit(main())
