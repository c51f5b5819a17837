"""End-to-end benchmark of the simulator's host time: four workloads.

    python3 benchmarks/e2e/run.py [--workload figures|advise|serve|fleet|all]
        [--seed N] [--seconds S] [--trace 0|1] [--out DIR]

Each workload runs in fresh processes, one at a time; the invocation
is stopped after ``--seconds`` plus ``spec.RUN_SLACK_S`` per workload.  With
``--trace 0`` a run starts the workload ``spec.SETUP_SAMPLES`` times
to time set-up (interpreter start, imports, input generation and
warm-up; ``setup_s`` is the median) and lets the last process repeat
the workload for ``--seconds``.  With ``--trace 1`` one process also
runs a repetition under boundary spans and one under cProfile, and the
result holds the per-layer metrics instead.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  Per-run details,
and with tracing the spans, are written under ``--out`` (default
``.bench_out/`` at the repository root).  The exit code is not 0, and
no result is printed, when a workload could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BASELINES = os.path.join(HERE, "baselines.json")


class ChildFailed(RuntimeError):
    pass


def run_child(args, deadline: float, setup_only: bool):
    """Run ``worker.py`` once; returns (seconds until READY, its final
    JSON document or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", args.out]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    ready_s, last = None, None
    try:
        for line in proc.stdout:
            if ready_s is None and line.strip() == "READY":
                ready_s = time.perf_counter() - start
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if time.monotonic() >= deadline:
        raise ChildFailed(f"{args.workload}: stopped at the time limit")
    if code != 0 or ready_s is None:
        raise ChildFailed(f"{args.workload}: worker exited with {code}")
    if setup_only:
        return ready_s, None
    try:
        return ready_s, json.loads(last)
    except (TypeError, ValueError):
        raise ChildFailed(f"{args.workload}: worker printed no result") \
            from None


def recorded_digest(workload: str, seed: int):
    try:
        with open(BASELINES) as fh:
            return json.load(fh)["digests"][workload].get(str(seed))
    except (OSError, ValueError, KeyError):
        return None


def run_workload(args, deadline: float) -> dict:
    """Measure one workload; returns the result document."""
    setups = []
    if not args.trace:
        for _ in range(spec.SETUP_SAMPLES - 1):
            setups.append(run_child(args, deadline, setup_only=True)[0])
    ready_s, doc = run_child(args, deadline, setup_only=False)
    setups.append(ready_s)
    if args.trace:
        units = {name: unit for name, unit, _ in spec.per_layer_metrics()}
        values = doc["metrics"]
    else:
        units = dict(spec.END_TO_END)
        values = dict(doc["metrics"], setup_s=statistics.median(setups))
    if any(values.get(name) is None for name in units):
        raise ChildFailed(f"{args.workload}: no successful repetition")
    recorded = recorded_digest(args.workload, args.seed)
    print(f"{args.workload} seed {args.seed}: {doc['reps']} repetitions, "
          f"{doc['queries']} queries in {doc['measured_s']:.1f} s; "
          f"failed {doc['failed']}/{doc['attempted']} "
          f"(failed_frac {doc['failed'] / doc['attempted']:.4g}); "
          f"outputs_match "
          f"{'n/a' if recorded is None else doc['digest'] == recorded}")
    for error in doc["errors"]:
        print(f"  error: {error}")
    if not args.trace:
        print(f"  setup samples {', '.join(f'{s:.3f}' for s in setups)} s")
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:14.6g} {unit}")
    return {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def default_seconds() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=spec.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: per workload, "
                             f"{spec.DEFAULT_SEEDS})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_out"))
    args = parser.parse_args(argv)
    try:
        if args.seconds is None:
            args.seconds = default_seconds()
        names = spec.WORKLOADS if args.workload == "all" else (args.workload,)
        deadline = time.monotonic() + len(names) * (args.seconds
                                                    + spec.RUN_SLACK_S)
        seed = args.seed
        for name in names:
            args.workload = name
            args.seed = spec.DEFAULT_SEEDS[name] if seed is None else seed
            result = run_workload(args, deadline)
            print(json.dumps(result), flush=True)
    except (ChildFailed, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
