"""Peak-memory comparison (paper Fig. 5, section V-B).

Replays each implementation's allocation plan through the device
allocator for the same five sweeps as the runtime comparison and
records the peak footprint — the number ``nvidia-smi`` showed the
paper's authors.  Configurations an implementation cannot run (shape
limits) or cannot *fit* (OOM — "abnormal memory usage can lead to
program crush") record ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..config import SWEEPS, ConvConfig, sweep_configs
from ..frameworks.base import ConvImplementation
from ..frameworks.registry import all_implementations
from ..gpusim.device import DeviceSpec, K40C
from . import evalcache
from .evalcache import CacheArg
from .report import series
from .runtime_comparison import _X_OF


@dataclass
class MemorySweepResult:
    """All implementations' peaks over one sweep."""

    sweep: str
    xs: List[int]
    configs: List[ConvConfig]
    peaks: Dict[str, List[Optional[int]]]
    ooms: Dict[str, List[bool]]

    def render(self) -> str:
        columns = {
            name: [None if p is None else p / 2**20 for p in col]
            for name, col in self.peaks.items()
        }
        return series(self.sweep, self.xs, columns,
                      title=f"Fig. 5 ({self.sweep} sweep) — peak GPU memory [MB]",
                      floatfmt="{:.0f}")


def memory_sweep(sweep: str,
                 implementations: Optional[Sequence[ConvImplementation]] = None,
                 device: DeviceSpec = K40C,
                 cache: CacheArg = None) -> MemorySweepResult:
    """Run one of the five Fig. 5 sweeps.

    Shares evaluation records with the runtime and metric pipelines
    through :mod:`repro.core.evalcache` — a sweep that Fig. 3 already
    visited re-derives nothing.
    """
    if sweep not in SWEEPS:
        raise KeyError(f"unknown sweep {sweep!r}; options: {sorted(SWEEPS)}")
    impls = list(implementations) if implementations else all_implementations()
    configs = sweep_configs(sweep)
    xs = [_X_OF[sweep](c) for c in configs]
    records = {impl.paper_name: [evalcache.evaluate(impl, cfg, device,
                                                    cache=cache)
                                 for cfg in configs]
               for impl in impls}
    peaks = {name: [r.peak_memory_bytes for r in col]
             for name, col in records.items()}
    ooms = {name: [r.oom for r in col] for name, col in records.items()}
    return MemorySweepResult(sweep=sweep, xs=xs, configs=configs,
                             peaks=peaks, ooms=ooms)
