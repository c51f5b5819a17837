"""Hotspot-kernel analysis (paper Fig. 4, section V-A).

For one configuration — the paper uses the base tuple
``(64, 128, 64, 11, 1)`` — profile each implementation's kernel plan
and group kernels "who have the same functionalities into one"
(GEMM, im2col, col2im, FFT, transpose, CGEMM, direct conv, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..config import BASE_CONFIG, ConvConfig
from ..frameworks.base import ConvImplementation
from ..frameworks.registry import all_implementations
from ..gpusim.device import DeviceSpec, K40C
from ..gpusim.kernels import KernelRole
from ..gpusim.metrics import kernel_shares, runtime_shares
from .evalcache import evaluate
from .report import bar_breakdown

#: The canonical kernel-role taxonomy every layer of the repo shares:
#: Fig-4 groupings here, trace leaves in :mod:`repro.obs.analyze`, and
#: the per-role drift attribution in :mod:`repro.obs.diff` all key on
#: these exact strings.  A role outside this tuple is a taxonomy bug.
CANONICAL_ROLES = tuple(role.value for role in KernelRole)


@dataclass(frozen=True)
class KernelBreakdown:
    """Runtime shares of one implementation's kernels."""

    implementation: str
    config: ConvConfig
    #: kernel-role group -> runtime fraction.
    role_shares: Dict[str, float]
    #: individual kernel name -> runtime fraction.
    kernel_shares: Dict[str, float]
    total_time_s: float

    def dominant_role(self) -> str:
        return max(self.role_shares, key=lambda k: self.role_shares[k])

    def render(self) -> str:
        return bar_breakdown(
            self.kernel_shares,
            title=f"Fig. 4 — {self.implementation} at {self.config.tuple5} "
                  f"({self.total_time_s * 1000:.1f} ms)")


def hotspot_kernel_analysis(config: ConvConfig = BASE_CONFIG,
                            implementations: Optional[Sequence[ConvImplementation]] = None,
                            device: DeviceSpec = K40C) -> List[KernelBreakdown]:
    """Reproduce Fig. 4 for every implementation that supports
    ``config``."""
    impls = list(implementations) if implementations else all_implementations()
    results = []
    for impl in impls:
        if not impl.supports(config):
            continue
        record = evaluate(impl, config, device)
        results.append(KernelBreakdown(
            implementation=impl.paper_name,
            config=config,
            role_shares=runtime_shares(record.kernels),
            kernel_shares=kernel_shares(record.kernels),
            total_time_s=record.gpu_time_s,
        ))
    return results
