"""GPU performance profiling (paper Table I/II + Fig. 6, section V-C).

For each of the five Table-I configurations, profile every
implementation's top kernels and aggregate the five nvprof metrics and
two events exactly as the paper does: "take a weighted average of
those top kernels ... the weight of each kernel is determined by the
percentage of its runtime".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..config import TABLE1_CONFIGS, ConvConfig
from ..frameworks.base import ConvImplementation
from ..frameworks.calibration import TABLE2_RESOURCES
from ..frameworks.registry import all_implementations
from ..gpusim.device import DeviceSpec, K40C
from ..gpusim.metrics import MetricSummary
from . import evalcache
from .evalcache import CacheArg
from .report import table


@dataclass(frozen=True)
class MetricRow:
    """Fig. 6 metrics of one (implementation, config) pair."""

    implementation: str
    config_name: str
    config: ConvConfig
    summary: MetricSummary

    @property
    def runtime_ms(self) -> float:
        return self.summary.runtime_s * 1000.0


def gpu_metric_profile(configs: Optional[Dict[str, ConvConfig]] = None,
                       implementations: Optional[Sequence[ConvImplementation]] = None,
                       top_n: int = 5,
                       device: DeviceSpec = K40C,
                       cache: CacheArg = None) -> List[MetricRow]:
    """Reproduce Fig. 6 over the Table-I configurations.

    Evaluations come from the shared cache; the cached per-kernel rows
    reconstruct the runtime-weighted summary for any ``top_n``.
    """
    configs = configs or TABLE1_CONFIGS
    impls = list(implementations) if implementations else all_implementations()
    rows: List[MetricRow] = []
    for cname, config in configs.items():
        for impl in impls:
            record = evalcache.evaluate(impl, config, device, cache=cache)
            if not record.supported:
                continue
            rows.append(MetricRow(
                implementation=impl.paper_name,
                config_name=cname,
                config=config,
                summary=record.summary(top_n=top_n),
            ))
    return rows


def table2_resources() -> str:
    """Render paper Table II (registers/thread, shared KB/block)."""
    from ..frameworks.registry import all_implementations as _impls

    rows = []
    for impl in _impls():
        res = TABLE2_RESOURCES[impl.name]
        rows.append([impl.paper_name, res.registers_per_thread,
                     res.shared_per_block / 1024.0])
    return table(["Implementation", "Registers", "Shared Memory (KB)"],
                 rows, title="Table II — per-thread registers and "
                             "per-block shared memory", floatfmt="{:.1f}")


def render_metric_rows(rows: Sequence[MetricRow]) -> str:
    """Fig. 6 as a table: one row per (config, implementation)."""
    body = []
    for r in rows:
        s = r.summary
        body.append([
            r.config_name, r.implementation,
            r.runtime_ms,
            s.achieved_occupancy * 100.0,
            s.warp_execution_efficiency * 100.0,
            s.gld_efficiency * 100.0,
            s.gst_efficiency * 100.0,
            s.ipc,
            s.shared_efficiency * 100.0,
        ])
    return table(
        ["Config", "Implementation", "Runtime(ms)", "Occupancy(%)",
         "WEE(%)", "gld(%)", "gst(%)", "IPC", "Shared(%)"],
        body, title="Fig. 6 — GPU performance profiling (runtime-weighted "
                    "top kernels)")
