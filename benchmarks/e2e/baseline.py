"""Record a baseline set: every workload, once per seed, serially.

    python3 benchmarks/e2e/baseline.py --set A [--seeds 1-10|default] [--trace 0|1]

Each run is one ``run.py --workload W --seed S`` process; the runs go
round-robin over the workloads, one seed at a time.  For every
metric and workload the set keeps the ten values, their median, first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the distance between the quartiles as a share of the median.
The output digest of each (workload, seed) is recorded too, so later
runs on those seeds can report ``outputs_match``.  Everything is
merged into ``baselines.json`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BASELINES = os.path.join(HERE, "baselines.json")


def seed_range(text: str, workload: str):
    """``"1-10"`` → seeds 1..10; ``"default"`` → the workload's own."""
    if text == "default":
        return [spec.DEFAULT_SEEDS[workload]]
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--set", required=True, help="name of the set")
    parser.add_argument("--seeds", default="1-10",
                        help="a range such as 1-10, or 'default'")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        with open(BASELINES) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    doc.setdefault("schema_version", 1)
    doc["layer_map"] = spec.LAYER_MAP
    digests = doc.setdefault("digests", {})
    values = {name: {} for name in spec.WORKLOADS}
    loads = {name: [] for name in spec.WORKLOADS}
    protocol = None
    out = os.path.join(ROOT, ".bench_out", f"baseline-{args.set}")
    # Round-robin over the workloads: the host's speed drifts over
    # minutes, and a slow spell should cost every workload a few seeds
    # rather than one workload all of them.
    for row in zip(*(seed_range(args.seeds, n) for n in spec.WORKLOADS)):
        for name, seed in zip(spec.WORKLOADS, row):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(run_seconds),
                 "--trace", str(args.trace), "--out", out],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            suffix = "-trace" if args.trace else ""
            with open(os.path.join(
                    out, f"{name}-seed{seed}{suffix}.json")) as fh:
                run = json.load(fh)
            digests.setdefault(name, {})[str(seed)] = run["digest"]
            protocol = run["protocol"]
            loads[name].append(protocol["loadavg_at_start"][0])
            for metric, entry in result["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: correct {result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in
                             result["metrics"].items()
                             if not args.trace), flush=True)
    results = {name: {"metrics": {m: summarize(v)
                                  for m, v in values[name].items()},
                      "loadavg_at_start": loads[name]}
               for name in spec.WORKLOADS}
    doc.setdefault("sets", {})[args.set] = {
        "protocol": {
            "commit": commit(), "python": protocol["python"],
            "numpy": protocol["numpy"], "nproc": protocol["nproc"],
            "run_seconds": run_seconds, "trace": args.trace,
            "seeds": args.seeds, "setup_samples": spec.SETUP_SAMPLES,
            "min_reps": spec.MIN_REPS,
            "execution": "one run.py process per (workload, seed), "
                         "serial, round-robin over the workloads; "
                         "fresh worker processes per run; "
                         "gc.collect() before each repetition",
        },
        "workloads": results,
    }
    with open(BASELINES, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, result in results.items():
        for metric, s in result["metrics"].items():
            print(f"{name:8s} {metric:34s} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
