"""Calibration-regression harness.

The reproduction's value lives in its calibrated shapes; any edit to
the simulator or calibration tables can silently drift them.  This
module snapshots the headline quantities into a JSON baseline and
diffs future runs against it — the maintainer's guard rail (and the
``tests/test_regression.py`` fixture's backing store).

Quantities tracked (all dimensionless or in ms/MB):

* base-config runtime per implementation;
* fbfft/cuDNN kernel-size crossover;
* CorrMM/cuDNN filter-count crossover;
* peak memory per implementation at batch 512;
* Fig. 6 occupancy per implementation at Conv1;
* Theano-CorrMM's Conv2 transfer fraction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..config import BASE_CONFIG, TABLE1_CONFIGS
from ..core.gpu_metrics import gpu_metric_profile
from ..core.runtime_comparison import runtime_sweep
from ..core.transfer_overhead import transfer_overhead_profile
from ..frameworks.registry import all_implementations
from .evalcache import evaluate, evaluate_fitting


def capture_headlines() -> Dict[str, float]:
    """Measure the tracked quantities."""
    head: Dict[str, float] = {}
    for impl in all_implementations():
        if impl.supports(BASE_CONFIG):
            head[f"base_ms/{impl.name}"] = round(
                evaluate(impl, BASE_CONFIG).time_s * 1000, 4)
            big = BASE_CONFIG.scaled(batch=512)
            head[f"mem512_mb/{impl.name}"] = round(
                evaluate_fitting(impl, big).peak_memory_bytes / 2**20, 1)

    kernel = runtime_sweep("kernel")
    head["crossover_k"] = float(next(
        k for i, k in enumerate(kernel.xs)
        if kernel.times["fbfft"][i] < kernel.times["cuDNN"][i]))

    filters = runtime_sweep("filters")
    head["crossover_f"] = float(next(
        f for i, f in enumerate(filters.xs)
        if filters.times["Theano-CorrMM"][i] < filters.times["cuDNN"][i]))

    for row in gpu_metric_profile(configs={"Conv1": TABLE1_CONFIGS["Conv1"]}):
        head[f"occupancy_conv1/{row.implementation}"] = round(
            row.summary.achieved_occupancy, 4)

    for row in transfer_overhead_profile(
            configs={"Conv2": TABLE1_CONFIGS["Conv2"]}):
        if row.implementation == "Theano-CorrMM":
            head["corrmm_conv2_transfer"] = round(row.transfer_fraction, 4)
    return head


@dataclass(frozen=True)
class Drift:
    """One quantity that moved beyond tolerance."""

    key: str
    baseline: float
    current: float

    @property
    def relative(self) -> float:
        if self.baseline == 0:
            return float("inf") if self.current else 0.0
        return abs(self.current - self.baseline) / abs(self.baseline)


def compare(baseline: Dict[str, float], current: Dict[str, float],
            rel_tolerance: float = 0.05) -> List[Drift]:
    """Quantities that drifted more than ``rel_tolerance`` (plus any
    added/removed keys, reported as drifts from/to 0)."""
    if rel_tolerance < 0:
        raise ValueError(f"rel_tolerance must be >= 0, got {rel_tolerance}")
    drifts: List[Drift] = []
    for key in sorted(set(baseline) | set(current)):
        b = baseline.get(key, 0.0)
        c = current.get(key, 0.0)
        d = Drift(key=key, baseline=b, current=c)
        if key not in baseline or key not in current or \
                d.relative > rel_tolerance:
            drifts.append(d)
    return drifts


def save_baseline(path: str, head: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Capture (or accept) headlines and write them as the baseline."""
    head = head if head is not None else capture_headlines()
    with open(path, "w") as fh:
        json.dump(head, fh, indent=1, sort_keys=True)
    return head


def load_baseline(path: str) -> Dict[str, float]:
    with open(path) as fh:
        return json.load(fh)


def check_against(path: str, rel_tolerance: float = 0.05) -> List[Drift]:
    """Measure now and diff against the stored baseline."""
    return compare(load_baseline(path), capture_headlines(),
                   rel_tolerance=rel_tolerance)
