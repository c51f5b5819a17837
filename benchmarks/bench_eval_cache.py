"""Evaluation-cache speedup benchmark (and CI regression gate).

Measures ``all_runtime_sweeps`` — the five Fig. 3 panels, 546
evaluation points — in three regimes:

* **baseline** — the evaluation cache bypassed (``cache=DISABLED``):
  every point re-derives the full kernel plan → occupancy → roofline
  → metrics chain;
* **cold** — fresh caches: points the sweeps revisit are hits in the
  shared :class:`~repro.core.evalcache.EvalCache`;
* **warm** — an immediate rerun against the populated cache.

It also times the JSON disk round-trip (save, then a warm-start load
into a fresh cache) and verifies the rendered figures are
byte-identical across all regimes — caching must never change output.

Run as a script (``python benchmarks/bench_eval_cache.py [--quick]``)
it exits non-zero if the warm/cold speedup falls below the CI gate
(2x) or any regime's figures diverge.  A passing full run writes
``benchmarks/results/BENCH_eval_cache.json`` and its rendered
``BENCH_eval_cache.txt`` only when the artifact is missing or one of
its recorded fields other than the host timings differs (the rule in
``benchmarks/artifacts.py``); ``--quick`` writes nothing.  To record
new host timings, delete the artifact and rerun.  Under pytest it runs
in quick mode, asserts the same gates and writes nothing.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: CI regression gate on the warm/cold ratio (the acceptance target is
#: 10x; 2x catches "the cache stopped working" without flaking on slow
#: shared runners).
WARM_COLD_GATE = 2.0

#: Payload fields holding host timings, which differ on every run.
HOST_TIMINGS = ("baseline_s", "cold_s", "warm_s", "cold_speedup",
                "warm_speedup_vs_cold", "save_s", "load_s",
                "warm_from_disk_s")


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_benchmark(repeats: int = 5) -> dict:
    """Measure all regimes; returns the artifact payload."""
    from repro.core import evalcache
    from repro.core.runtime_comparison import all_runtime_sweeps
    from repro.gpusim import memo

    def fresh() -> None:
        memo.clear_all()
        evalcache.reset_cache()

    def render(sweeps) -> str:
        return "\n".join(sweeps[name].render() for name in sorted(sweeps))

    # Baseline: no shared cache — each of the 546 points re-runs the
    # whole model.
    fresh()
    baseline_render = render(all_runtime_sweeps(cache=evalcache.DISABLED))
    baseline_s = _best_of(
        lambda: (fresh(), all_runtime_sweeps(cache=evalcache.DISABLED)),
        repeats)

    fresh()
    cold_render = render(all_runtime_sweeps())
    cold_s = _best_of(lambda: (fresh(), all_runtime_sweeps()), repeats)

    # Leave the last cold run's caches in place: the warm regime.
    fresh()
    all_runtime_sweeps()
    warm_render = render(all_runtime_sweeps())
    warm_s = _best_of(all_runtime_sweeps, repeats)

    # Disk round-trip: persist the populated store, warm-start a fresh
    # cache from it, and rerun against the loaded records.
    store = evalcache.get_cache()
    store_path = RESULTS_DIR / "eval_cache_store.json"
    t0 = time.perf_counter()
    store.save(str(store_path))
    save_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    loaded = evalcache.EvalCache(path=str(store_path))
    load_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    disk_render = render(all_runtime_sweeps(cache=loaded))
    disk_warm_s = time.perf_counter() - t0

    identical = (baseline_render == cold_render == warm_render
                 == disk_render)
    return {
        "benchmark": "eval_cache",
        "workload": "all_runtime_sweeps",
        "points": 546,
        "repeats": repeats,
        "baseline_s": baseline_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold_speedup": baseline_s / cold_s,
        "warm_speedup_vs_cold": cold_s / warm_s,
        "disk": {
            "path": str(store_path.relative_to(RESULTS_DIR.parent.parent)),
            "entries": len(loaded),
            "save_s": save_s,
            "load_s": load_s,
            "warm_from_disk_s": disk_warm_s,
        },
        "figures_identical": identical,
        "cache_stats": store.stats(),
        "gate_warm_cold": WARM_COLD_GATE,
    }


def check_gates(payload: dict) -> list:
    """CI gates; returns the list of failures (empty = pass)."""
    failures = []
    if payload["warm_speedup_vs_cold"] < payload["gate_warm_cold"]:
        failures.append(
            f"warm/cold speedup {payload['warm_speedup_vs_cold']:.2f}x "
            f"below the {payload['gate_warm_cold']:.0f}x gate")
    if not payload["figures_identical"]:
        failures.append("cached figures differ from the no-cache baseline")
    return failures


def _render_text(payload: dict) -> str:
    lines = [
        "eval-cache speedup on all_runtime_sweeps "
        f"({payload['points']} points)",
        f"  baseline (no evaluation cache)              "
        f"{payload['baseline_s'] * 1000:8.1f} ms",
        f"  cold (fresh caches)                         "
        f"{payload['cold_s'] * 1000:8.1f} ms   "
        f"x{payload['cold_speedup']:.2f} vs baseline",
        f"  warm (populated cache)                      "
        f"{payload['warm_s'] * 1000:8.1f} ms   "
        f"x{payload['warm_speedup_vs_cold']:.2f} vs cold",
        f"  warm from disk store                        "
        f"{payload['disk']['warm_from_disk_s'] * 1000:8.1f} ms   "
        f"({payload['disk']['entries']} records)",
        f"  figures byte-identical across regimes: "
        f"{payload['figures_identical']}",
    ]
    return "\n".join(lines)


def bench_eval_cache_speedups():
    """Benchmark-suite entry: quick mode plus the CI gates; writes
    nothing."""
    payload = run_benchmark(repeats=2)
    print(_render_text(payload))
    assert not check_gates(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="2 timing repeats instead of 5; writes nothing")
    args = parser.parse_args(argv)

    payload = run_benchmark(repeats=2 if args.quick else 5)
    print(_render_text(payload))

    from benchmarks.artifacts import finish

    return finish(RESULTS_DIR / "BENCH_eval_cache.json", payload,
                  check_gates(payload), HOST_TIMINGS, write=not args.quick,
                  texts={RESULTS_DIR / "BENCH_eval_cache.txt":
                         _render_text(payload) + "\n"})


if __name__ == "__main__":
    ROOT = pathlib.Path(__file__).parent.parent
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    raise SystemExit(main())
