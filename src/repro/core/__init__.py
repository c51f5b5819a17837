"""The paper's contribution: the performance-analysis harness.

One module per evaluation artifact —

==================  =====================================
Paper artifact      Module
==================  =====================================
Fig. 2              :mod:`~repro.core.hotspot_layers`
Fig. 3 (a-e)        :mod:`~repro.core.runtime_comparison`
Fig. 4              :mod:`~repro.core.hotspot_kernels`
Fig. 5 (a-e)        :mod:`~repro.core.memory_comparison`
Table I / Fig. 6    :mod:`~repro.core.gpu_metrics`
Table II            :mod:`~repro.core.gpu_metrics`
Fig. 7              :mod:`~repro.core.transfer_overhead`
==================  =====================================

plus :mod:`~repro.core.advisor` (the "assist practitioners
identifying the implementations that best serve their CNN computation
needs" goal, encoding the paper's summary recommendations as a
queryable decision procedure), :mod:`~repro.core.report` (ASCII
rendering), :mod:`~repro.core.experiments` (the experiment registry
DESIGN.md indexes) and :mod:`~repro.core.ledger` (the paper's claims
as numbers, each checked against its band).
"""

from .evalcache import EvalCache, EvalRecord, evaluate, get_cache
from .hotspot_layers import hotspot_layer_analysis, ModelBreakdown
from .runtime_comparison import runtime_sweep, SweepResult
from .hotspot_kernels import hotspot_kernel_analysis, KernelBreakdown
from .memory_comparison import memory_sweep
from .gpu_metrics import gpu_metric_profile, table2_resources, MetricRow
from .transfer_overhead import transfer_overhead_profile, TransferRow
from .advisor import Advisor, Recommendation
from .experiments import EXPERIMENTS, run_experiment
from .ablations import ABLATIONS, AblationResult, run_all as run_ablations
from .training_cost import TrainingEstimate, estimate_training
from .sensitivity import device_comparison, headlines
from .memory_timeline import MemoryTimeline, memory_timeline
from .layer_advisor import oracle_mix, per_layer_choices
from .batch_advisor import batch_capacities, max_batch
from .full_report import generate_report, write_report
from .validation import audit_all, audit_implementation
from . import evalcache, export, report

__all__ = [
    "EvalCache",
    "EvalRecord",
    "evaluate",
    "get_cache",
    "evalcache",
    "hotspot_layer_analysis",
    "ModelBreakdown",
    "runtime_sweep",
    "SweepResult",
    "hotspot_kernel_analysis",
    "KernelBreakdown",
    "memory_sweep",
    "gpu_metric_profile",
    "table2_resources",
    "MetricRow",
    "transfer_overhead_profile",
    "TransferRow",
    "Advisor",
    "Recommendation",
    "EXPERIMENTS",
    "run_experiment",
    "ABLATIONS",
    "AblationResult",
    "run_ablations",
    "TrainingEstimate",
    "estimate_training",
    "device_comparison",
    "headlines",
    "MemoryTimeline",
    "memory_timeline",
    "oracle_mix",
    "per_layer_choices",
    "batch_capacities",
    "max_batch",
    "generate_report",
    "write_report",
    "audit_all",
    "audit_implementation",
    "export",
    "report",
]
