"""Largest-batch advisor.

A practical question the paper's memory study (Fig. 5) sets up but
does not answer: *what is the biggest mini-batch each implementation
can actually train at on the 12 GB card?*  Binary search over the
allocator's OOM boundary answers it exactly, and explains, e.g., why
fbfft users of the era trained with smaller batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..config import ConvConfig
from ..errors import DeviceOOMError
from ..frameworks.base import ConvImplementation
from ..frameworks.registry import all_implementations
from ..gpusim.device import DeviceSpec, K40C
from .report import table


def fits(impl: ConvImplementation, config: ConvConfig,
         device: DeviceSpec = K40C) -> bool:
    """Can the configuration's working set live on the device?"""
    if not impl.supports(config):
        return False
    try:
        impl.peak_memory_bytes(config, device)
        return True
    except DeviceOOMError:
        return False


def max_batch(impl: ConvImplementation, template: ConvConfig,
              device: DeviceSpec = K40C, limit: int = 65536,
              granularity: int = 32) -> Optional[int]:
    """Largest batch (multiple of ``granularity``) that fits.

    ``granularity`` defaults to 32 so the answer also satisfies
    cuda-convnet2's shape rule.  Returns ``None`` when even one
    granule does not fit or the shape is unsupported.
    """
    if granularity <= 0:
        raise ValueError(f"granularity must be positive, got {granularity}")
    if limit < granularity:
        raise ValueError("limit smaller than granularity")
    lo = granularity
    if not fits(impl, template.scaled(batch=lo), device):
        return None
    hi = lo
    while hi < limit and fits(impl, template.scaled(batch=min(hi * 2, limit)),
                              device):
        hi = min(hi * 2, limit)
        if hi == limit:
            break
    if hi >= limit:
        return limit - limit % granularity
    # Binary search in (hi, 2*hi]: largest fitting multiple.
    lo_fit, hi_fail = hi, min(hi * 2, limit)
    while hi_fail - lo_fit > granularity:
        mid = (lo_fit + hi_fail) // 2
        mid -= mid % granularity
        if mid <= lo_fit:
            break
        if fits(impl, template.scaled(batch=mid), device):
            lo_fit = mid
        else:
            hi_fail = mid
    return lo_fit


@dataclass(frozen=True)
class BatchCapacity:
    implementation: str
    max_batch: Optional[int]


def batch_capacities(template: ConvConfig,
                     implementations: Optional[Sequence[ConvImplementation]] = None,
                     device: DeviceSpec = K40C) -> List[BatchCapacity]:
    """Largest trainable batch per implementation for one layer
    geometry."""
    impls = list(implementations) if implementations else all_implementations()
    return [BatchCapacity(impl.paper_name,
                          max_batch(impl, template, device))
            for impl in impls]


def render_capacities(template: ConvConfig,
                      rows: Sequence[BatchCapacity]) -> str:
    body = [[r.implementation,
             "-" if r.max_batch is None else r.max_batch] for r in rows]
    return table(["Implementation", "Max batch"], body,
                 title=f"Largest trainable mini-batch at "
                       f"i={template.input_size}, f={template.filters}, "
                       f"k={template.kernel_size}, c={template.channels} "
                       f"on 12 GB")
