"""CPU-GPU data-transfer overhead (paper Fig. 7, section V-D).

For the five Table-I configurations, measure the share of each
implementation's iteration time spent on *exposed* transfers (copies
that asynchronous prefetching could not hide).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..config import TABLE1_CONFIGS, ConvConfig
from ..frameworks.base import ConvImplementation
from ..frameworks.registry import all_implementations
from ..gpusim.device import DeviceSpec, K40C
from .evalcache import evaluate
from .report import table


@dataclass(frozen=True)
class TransferRow:
    """Transfer overhead of one (implementation, config) pair."""

    implementation: str
    config_name: str
    config: ConvConfig
    transfer_fraction: float     # of total iteration time
    transfer_time_s: float       # exposed transfer time
    total_time_s: float


def transfer_overhead_profile(configs: Optional[Dict[str, ConvConfig]] = None,
                              implementations: Optional[Sequence[ConvImplementation]] = None,
                              device: DeviceSpec = K40C) -> List[TransferRow]:
    """Reproduce Fig. 7."""
    configs = configs or TABLE1_CONFIGS
    impls = list(implementations) if implementations else all_implementations()
    rows: List[TransferRow] = []
    for cname, config in configs.items():
        for impl in impls:
            if not impl.supports(config):
                continue
            record = evaluate(impl, config, device)
            rows.append(TransferRow(
                implementation=impl.paper_name,
                config_name=cname,
                config=config,
                transfer_fraction=record.transfer_fraction,
                transfer_time_s=record.exposed_transfer_s,
                total_time_s=record.time_s,
            ))
    return rows


def render_transfer_rows(rows: Sequence[TransferRow]) -> str:
    """Fig. 7 as a table: configs x implementations, percent of
    runtime spent on exposed transfers."""
    by_config: Dict[str, Dict[str, float]] = {}
    impls: List[str] = []
    for r in rows:
        by_config.setdefault(r.config_name, {})[r.implementation] = (
            r.transfer_fraction * 100.0)
        if r.implementation not in impls:
            impls.append(r.implementation)
    body = []
    for cname, vals in by_config.items():
        body.append([cname] + [vals.get(i, float("nan")) for i in impls])
    return table(["Config"] + impls, body,
                 title="Fig. 7 — data-transfer overhead (% of iteration)",
                 floatfmt="{:.1f}")
