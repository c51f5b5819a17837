"""Observability overhead benchmark (and CI correctness gate).

Runs the same deterministic serving workload twice — once with the
:data:`~repro.obs.tracer.NULL_TRACER` default and once fully traced —
and measures what the tracing plane costs in host wall time.  The
point of the null-object design is that *disabled* observability is
free and *enabled* observability only pays at span boundaries; this
benchmark keeps both claims honest, and gates CI on the part that
must never regress: a traced run's serving report is identical to the
untraced run's, span for span of extra bookkeeping notwithstanding.

A third leg runs the same workload span-free with windowed telemetry
rollups attached (``ServerConfig.telemetry``), gating the live-
telemetry plane on the same two claims: bounded host overhead, and a
byte-identical serving report.  It also times the two offline
consumers a recorded run feeds: the JSONL export
(:func:`repro.obs.export.jsonl_lines`) and the full analytics pass
(:func:`repro.obs.analyze.analyze_run`).

Run as a script (``python benchmarks/bench_obs_overhead.py
[--quick]``) it exits non-zero if the traced and untraced reports
diverge, the traced run recorded no spans, or the overhead blows past
the (deliberately generous, shared-runner-safe) ceiling.  A passing
full run writes ``benchmarks/results/BENCH_obs.json`` only when the
artifact is missing or one of its recorded fields other than the host
timings differs (the rule in ``benchmarks/artifacts.py``); ``--quick``
writes nothing.  To record new host timings, delete the artifact and
rerun.  Under pytest it runs in quick mode, asserts the same gates and
writes nothing.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: CI ceiling on traced/untraced wall time.  Span recording costs real
#: allocations, so some overhead is expected; the gate only catches
#: "tracing made serving pathologically slow" without flaking on slow
#: shared runners.
OVERHEAD_GATE = 10.0

#: Payload fields holding host timings, which differ on every run.
HOST_TIMINGS = ("untraced_s", "traced_s", "overhead_x", "per_span_us",
                "export_jsonl_s", "analyze_s", "rollups_s",
                "rollups_overhead_x")


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_benchmark(repeats: int = 5, duration_s: float = 1.0,
                  rate_rps: float = 1500.0) -> dict:
    """Measure untraced vs traced serving; returns the artifact payload."""
    from repro.core.evalcache import reset_cache
    from repro.obs.analyze import analyze_run, from_tracer
    from repro.obs.export import jsonl_lines
    from repro.serve import Server, ServerConfig, TrafficSpec, generate_trace

    spec = TrafficSpec(duration_s=duration_s, rate_rps=rate_rps, seed=7)
    trace = generate_trace(spec)

    def untraced():
        reset_cache()
        return Server(ServerConfig()).run(trace)

    def traced():
        reset_cache()
        server = Server(ServerConfig())
        server.enable_tracing()
        return server.run(trace), server

    def rolled_up():
        # Windowed telemetry rollups, span-free: what `--telemetry`
        # costs on a serving loop that is otherwise on the fast path.
        from repro.obs.timeseries import TelemetryConfig
        reset_cache()
        server = Server(ServerConfig(
            telemetry=TelemetryConfig(window_s=0.05)))
        return server.run(trace), server

    untraced_report = untraced()
    untraced_s = _best_of(untraced, repeats)

    traced_report, server = traced()
    traced_s = _best_of(traced, repeats)
    tracer = server.obs.tracer

    rollups_report, rollups_server = rolled_up()
    rollups_s = _best_of(rolled_up, repeats)
    rollups = rollups_server.telemetry

    t0 = time.perf_counter()
    lines = jsonl_lines(tracer)
    export_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    analysis = analyze_run(from_tracer(tracer))
    analyze_s = time.perf_counter() - t0

    return {
        "benchmark": "obs_overhead",
        "workload": {"duration_s": duration_s, "rate_rps": rate_rps,
                     "seed": spec.seed, "arrivals": len(trace)},
        "repeats": repeats,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "overhead_x": traced_s / untraced_s,
        "spans": tracer.span_count(),
        "per_span_us": (traced_s - untraced_s) / tracer.span_count() * 1e6,
        "export_jsonl_s": export_s,
        "export_lines": len(lines),
        "analyze_s": analyze_s,
        "critical_path_steps": len(analysis.critical),
        "rollups_s": rollups_s,
        "rollups_overhead_x": rollups_s / untraced_s,
        "rollups_windows": len(rollups.windows),
        "reports_identical":
            traced_report.to_dict() == untraced_report.to_dict(),
        "rollups_report_identical":
            rollups_report.to_dict() == untraced_report.to_dict(),
        "gate_overhead": OVERHEAD_GATE,
    }


def check_gates(payload: dict) -> list:
    """CI gates; returns the list of failures (empty = pass)."""
    failures = []
    if not payload["reports_identical"]:
        failures.append("traced serving report differs from untraced — "
                        "tracing must be observationally free")
    if not payload["rollups_report_identical"]:
        failures.append("rollups-enabled serving report differs from "
                        "plain — telemetry must be observationally free")
    if payload["spans"] <= 0:
        failures.append("traced run recorded no spans")
    if payload["rollups_windows"] <= 0:
        failures.append("rollups-enabled run flushed no windows")
    if payload["rollups_overhead_x"] > payload["gate_overhead"]:
        failures.append(
            f"rollups overhead {payload['rollups_overhead_x']:.2f}x above "
            f"the {payload['gate_overhead']:.0f}x ceiling")
    if payload["overhead_x"] > payload["gate_overhead"]:
        failures.append(
            f"tracing overhead {payload['overhead_x']:.2f}x above the "
            f"{payload['gate_overhead']:.0f}x ceiling")
    return failures


def _render_text(payload: dict) -> str:
    w = payload["workload"]
    lines = [
        "observability overhead on one serving run "
        f"({w['duration_s']:g} s @ {w['rate_rps']:g} req/s, "
        f"{w['arrivals']} arrivals)",
        f"  untraced (NULL_TRACER)    {payload['untraced_s'] * 1000:8.1f} ms",
        f"  traced                    {payload['traced_s'] * 1000:8.1f} ms   "
        f"x{payload['overhead_x']:.2f} "
        f"({payload['per_span_us']:.1f} us per span, "
        f"{payload['spans']} spans)",
        f"  rollups (telemetry)       {payload['rollups_s'] * 1000:8.1f} ms   "
        f"x{payload['rollups_overhead_x']:.2f} "
        f"({payload['rollups_windows']} windows)",
        f"  JSONL export              {payload['export_jsonl_s'] * 1000:8.1f}"
        f" ms   ({payload['export_lines']} records)",
        f"  offline analytics pass    {payload['analyze_s'] * 1000:8.1f} ms",
        f"  traced report identical to untraced: "
        f"{payload['reports_identical']}",
        f"  rollups report identical to plain:   "
        f"{payload['rollups_report_identical']}",
    ]
    return "\n".join(lines)


def bench_obs_overhead():
    """Benchmark-suite entry: quick mode plus the CI gates; writes
    nothing."""
    payload = run_benchmark(repeats=2, duration_s=0.5)
    print(_render_text(payload))
    assert not check_gates(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="2 timing repeats over a 0.5 s workload; "
                             "writes nothing")
    args = parser.parse_args(argv)

    payload = run_benchmark(repeats=2 if args.quick else 5,
                            duration_s=0.5 if args.quick else 1.0)
    print(_render_text(payload))

    from benchmarks.artifacts import finish

    return finish(RESULTS_DIR / "BENCH_obs.json", payload,
                  check_gates(payload), HOST_TIMINGS, write=not args.quick)


if __name__ == "__main__":
    ROOT = pathlib.Path(__file__).parent.parent
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    raise SystemExit(main())
