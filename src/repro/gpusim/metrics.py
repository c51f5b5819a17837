"""Metric definitions and runtime-weighted aggregation.

Section V-C of the paper evaluates each implementation by profiling
its *top kernels* and taking "a weighted average of those top kernels
to get the final estimate of performance metrics for that
implementation.  The weight of each kernel is determined by the
percentage of its runtime in the whole implementation."  This module
implements exactly that aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Sequence

#: The five metrics (and IPC) of Fig. 6, in the paper's order.
METRIC_NAMES = (
    "achieved_occupancy",
    "ipc",
    "warp_execution_efficiency",
    "gld_efficiency",
    "gst_efficiency",
    "shared_efficiency",
)

#: The two hardware-counter events the paper collects.
EVENT_NAMES = (
    "shared_load_bank_conflicts",
    "shared_store_bank_conflicts",
)


@dataclass(frozen=True)
class MetricSummary:
    """Runtime-weighted metric estimate for one implementation/config."""

    runtime_s: float
    achieved_occupancy: float
    ipc: float
    warp_execution_efficiency: float
    gld_efficiency: float
    gst_efficiency: float
    shared_efficiency: float
    shared_load_bank_conflicts: int
    shared_store_bank_conflicts: int

    def as_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def weighted_summary(timings: Sequence["KernelTiming"],  # noqa: F821
                     top_n: int = None) -> MetricSummary:
    """Aggregate kernel timings into one implementation-level estimate.

    Parameters
    ----------
    timings:
        Per-kernel :class:`~repro.gpusim.timing.KernelTiming` rows, or
        the flat rows of a stored evaluation record.
    top_n:
        Restrict to the N longest-running kernels first (the paper
        profiles "top kernels"); ``None`` uses all of them.
    """
    if not timings:
        raise ValueError("cannot summarise an empty timing list")
    ordered = sorted(timings, key=lambda t: t.time_s, reverse=True)
    if top_n is not None:
        if top_n <= 0:
            raise ValueError(f"top_n must be positive, got {top_n}")
        ordered = ordered[:top_n]
    total = sum(t.time_s for t in ordered)
    # Weighted averages over runtime share.
    def wavg(attr: str) -> float:
        return sum(getattr(t, attr) * t.time_s for t in ordered) / total

    return MetricSummary(
        runtime_s=sum(t.time_s for t in timings),
        achieved_occupancy=wavg("achieved_occupancy"),
        ipc=wavg("ipc"),
        warp_execution_efficiency=wavg("warp_execution_efficiency"),
        gld_efficiency=wavg("gld_efficiency"),
        gst_efficiency=wavg("gst_efficiency"),
        shared_efficiency=wavg("shared_efficiency"),
        shared_load_bank_conflicts=sum(t.shared_load_bank_conflicts for t in ordered),
        shared_store_bank_conflicts=sum(t.shared_store_bank_conflicts for t in ordered),
    )


def runtime_shares(timings: Sequence["KernelTiming"]) -> Dict[str, float]:  # noqa: F821
    """Fraction of total runtime per kernel-role group (Fig. 4)."""
    total = sum(t.time_s for t in timings)
    if total <= 0:
        raise ValueError("timings have no runtime")
    shares: Dict[str, float] = {}
    for t in timings:
        shares[t.role] = shares.get(t.role, 0.0) + t.time_s / total
    return shares


def kernel_shares(timings: Sequence["KernelTiming"]) -> Dict[str, float]:  # noqa: F821
    """Fraction of total runtime per kernel *name* (finer than roles)."""
    total = sum(t.time_s for t in timings)
    if total <= 0:
        raise ValueError("timings have no runtime")
    shares: Dict[str, float] = {}
    for t in timings:
        shares[t.name] = shares.get(t.name, 0.0) + t.time_s / total
    return shares
