"""Declared constants of the end-to-end benchmark.

Everything two commits must agree on to be comparable lives here:
workload input sizes, the metric names and units, the layer
boundaries the traced run times, and which workloads must call each
boundary.  Run length is not a constant here; it is ``--seconds``
(``run_seconds`` in ``BENCHMARK.json``), and a run repeats its
workload until that time has passed (a closed loop: the next
repetition starts when the previous one ends).

This module imports nothing from the program, so the orchestrator
(``run.py``) can read it without importing ``repro``.
"""

from __future__ import annotations

WORKLOADS = ("figures", "advise", "serve", "fleet")

#: Seed used when ``--seed`` is not given.  ``figures`` has no random
#: inputs; its seed is accepted and ignored.
DEFAULT_SEEDS = {"figures": 0, "advise": 7, "serve": 7, "fleet": 13}

#: Input sizes.  ``full`` is what the benchmark measures; ``tiny`` is
#: the smallest input that still calls every boundary the workload
#: declares (used by ``test_e2e.py``).
SIZES = {
    "full": {
        # repro report: every registered experiment plus extensions.
        "figures": {"experiments": None, "extensions": True},
        "advise": {"queries": 2400},
        "serve": {"duration_s": 40.0, "rate_rps": 6000.0},
        "fleet": {"duration_s": 6.0, "rate_rps": 8000.0, "replicas": 4,
                  "warmup_s": 1.0},
    },
    "tiny": {
        "figures": {"experiments": ("table1", "fig2", "fig3d"),
                    "extensions": False},
        "advise": {"queries": 20},
        "serve": {"duration_s": 1.0, "rate_rps": 6000.0},
        "fleet": {"duration_s": 1.0, "rate_rps": 8000.0, "replicas": 4,
                  "warmup_s": 0.2},
    },
}

#: The configuration space ``advise`` samples from: the ranges of the
#: paper's five Fig. 3 sweeps, crossed (178,560 distinct points).
ADVISE_SPACE = {
    "batch": tuple(range(32, 513, 32)),
    "input_size": tuple(range(32, 257, 16)),
    "filters": tuple(range(32, 513, 16)),
    "kernel_size": (3, 5, 7, 9, 11, 13),
    "stride": (1, 2, 3, 4),
}

#: Implementations ``Advisor.evaluate`` must return per query.
ADVISE_CANDIDATES = 7

#: Processes started per untraced run to time set-up; ``setup_s`` is
#: their median.  The last one goes on to measure.
SETUP_SAMPLES = 3

#: Fewest timed repetitions per run, even past ``--seconds``.
MIN_REPS = 3

#: Time a workload may take beyond ``--seconds``: its set-ups, the
#: repetition that runs past ``--seconds``, ``MIN_REPS`` of slow
#: repetitions and, when tracing, the span and cProfile repetitions.
#: One invocation of ``run.py`` is stopped after ``--seconds`` plus
#: this, per workload it runs.
RUN_SLACK_S = 100.0

# -- metrics -------------------------------------------------------------

#: Printed with ``--trace 0``: (name, unit).  ``query_p50_ms`` is the
#: median latency of one operation a user waits on: one
#: ``Advisor.evaluate`` call for ``advise``; one whole report, serving
#: run or fleet run for the other three (so there it equals
#: ``wall_s``).  ``query_p99_ms`` is a per-layer metric instead: its
#: run-to-run spread on a shared two-core host exceeds any usable
#: regression bound (see README.md).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_ms", "ms"),
)

#: Package fold of cProfile self time, as shares of the self time the
#: profile recorded (see ``tracing.profile_fold``).  Paths are
#: relative to the ``repro`` package; the first prefix that matches
#: wins.
PACKAGES = (
    ("core.evalcache", "core/evalcache"),
    ("nn", "nn/"),
    ("frameworks", "frameworks/"),
    ("gpusim", "gpusim/"),
    ("core", "core/"),
    ("serve", "serve/"),
    ("cluster", "cluster/"),
    ("faults", "faults/"),
    ("obs", "obs/"),
    ("devices", "devices/"),
)
PACKAGE_SHARES = tuple(name for name, _ in PACKAGES) + (
    "numpy", "other", "unattributed")

#: Layer boundaries timed from outside the program in the traced run,
#: with the workloads that must call each one.  ``serve.plan_cache``
#: is ``PlanCache.get_or_compute``, which only the traced admission
#: lane calls, so only ``fleet`` (traced replicas) reaches it.  The
#: figure sweeps reach ``compute_record`` through
#: ``core.parallel``, not through ``evalcache.evaluate``.
BOUNDARIES = {
    "nn.build": ("figures",),
    "nn.breakdown": ("figures",),
    "advisor.evaluate": ("advise", "serve", "fleet"),
    "evalcache.evaluate": ("advise", "serve", "fleet"),
    "evalcache.compute": ("figures", "advise"),
    "frameworks.profile_iteration": ("figures", "advise"),
    "frameworks.peak_memory": ("figures", "advise"),
    "gpusim.launch": ("figures", "advise"),
    "serve.run": ("serve",),
    "serve.plan_cache": ("fleet",),
    "cluster.run": ("fleet",),
    "cluster.route": ("fleet",),
    "cluster.replica_poll": ("fleet",),
    "cluster.health_poll": ("fleet",),
    "cluster.telemetry_poll": ("fleet",),
}

#: Exact counters of the traced repetition: (name, unit, better).
COUNTERS = (
    ("gpusim.memo.hit_rate", "fraction", "higher"),
    ("evalcache.hit_rate", "fraction", "higher"),
    ("evalcache.misses", "count", "lower"),
    ("serve.plan_cache.hit_rate", "fraction", "higher"),
    ("serve.dispatch_memo.hit_rate", "fraction", "higher"),
    ("serve.batch_fill", "requests", "higher"),
    ("serve.batches", "count", "lower"),
    ("cluster.requeued", "count", "lower"),
    ("cluster.hedges_issued", "count", "lower"),
    ("cluster.restarts", "count", "lower"),
    ("cluster.probes", "count", "lower"),
    ("obs.spans", "count", "lower"),
    ("obs.windows", "count", "lower"),
    ("harness.trace_overhead_x", "ratio", "lower"),
)

#: Simulated-time outcomes of ``serve`` and ``fleet`` (0 elsewhere).
#: They repeat exactly for a given seed.
SIM = (
    ("sim_throughput_rps", "req/s", "higher"),
    ("sim_p99_ms", "ms", "lower"),
    ("sim_goodput_frac", "fraction", "higher"),
)

#: 99th percentile of operation latency over the run's untraced
#: repetitions, pooled as for ``query_p50_ms``.
QUERY_TAIL = ("query_p99_ms", "ms", "lower")


def per_layer_metrics():
    """Every metric printed with ``--trace 1``: (name, unit, better)."""
    out = [(f"pkg.{name}", "share", "lower") for name in PACKAGE_SHARES]
    for boundary in BOUNDARIES:
        out.append((f"{boundary}.calls", "count", "lower"))
        out.append((f"{boundary}.self_s", "s", "lower"))
    return out + list(COUNTERS) + list(SIM) + [QUERY_TAIL]


#: Which end-to-end metric each layer's per-layer numbers should move,
#: and on which workload (the prediction a change on that layer makes).
LAYER_MAP = {
    "nn": {"moves": ("wall_s", "peak_rss_mb", "query_p50_ms"),
           "on": ("figures",)},
    "frameworks": {"moves": ("wall_s", "query_p50_ms", "query_p99_ms"),
                   "on": ("advise", "figures")},
    "gpusim": {"moves": ("wall_s", "query_p50_ms", "query_p99_ms"),
               "on": ("advise", "figures")},
    "core.evalcache": {"moves": ("wall_s", "query_p50_ms"),
                       "on": ("advise", "figures")},
    "serve": {"moves": ("wall_s", "query_p50_ms"),
              "on": ("serve", "fleet")},
    "cluster": {"moves": ("wall_s", "query_p50_ms"), "on": ("fleet",)},
    "obs": {"moves": ("wall_s", "query_p50_ms"), "on": ("fleet",)},
}
