"""Simulated-clock inference serving.

The paper's advisor answers "which implementation should I use?" for
one offline configuration.  This package asks the production version
of that question: traffic arrives as single-sample inference requests
over a *mix* of CNN layer shapes, and the winning implementation flips
with the batch size the server manages to form (fbfft at large
batches, unrolling at batch 1 — the Fig. 3a crossover, live).  The
subsystem composes the existing pieces:

* :mod:`repro.serve.request` / :mod:`repro.serve.queue` — the request
  model (the trace's own arrival records) and a bounded admission
  queue that sheds by one timeout;
* :mod:`repro.serve.batcher` — dynamic batching: coalesce same-shape
  requests under a max-batch / max-wait policy, padded to power-of-two
  buckets so the plan cache stays small;
* :mod:`repro.serve.plan_cache` — LRU memoization of advisor-ranked
  implementation choices per ``(shape, batch, device)``;
* :mod:`repro.serve.scheduler` — the worker loop: executes batches
  through the shared framework adapters, advances a deterministic
  :class:`~repro.gpusim.timing.SimClock`, and tracks device memory
  against the :class:`~repro.gpusim.allocator.DeviceAllocator`;
* :mod:`repro.serve.stats` — throughput, latency percentiles, queue
  and cache health;
* :mod:`repro.serve.loadgen` — seeded Poisson / bursty arrival traces
  over AlexNet / VGG / GoogLeNet layer shapes.

Everything runs on virtual time: a 60-second traffic run takes a
fraction of a wall second and two runs with the same seed are
byte-identical.
"""

from .batcher import Batch, BatchPolicy, DynamicBatcher
from .loadgen import Arrival, MODEL_SHAPES, TrafficSpec, generate_trace, trace_summary
from .plan_cache import PlanCache
from .queue import AdmissionQueue
from .request import batched_config, shape_key
from .resilience import BreakerState, CircuitBreaker, ResilienceConfig
from .scheduler import Server, ServerConfig, serve_trace
from .stats import (SHED_CAUSES, ServingStats, StatsReport,
                    merge_shed_causes)

__all__ = [
    "AdmissionQueue",
    "Arrival",
    "Batch",
    "BatchPolicy",
    "BreakerState",
    "CircuitBreaker",
    "DynamicBatcher",
    "MODEL_SHAPES",
    "PlanCache",
    "ResilienceConfig",
    "Server",
    "ServerConfig",
    "serve_trace",
    "ServingStats",
    "SHED_CAUSES",
    "StatsReport",
    "TrafficSpec",
    "batched_config",
    "generate_trace",
    "merge_shed_causes",
    "shape_key",
    "trace_summary",
]
