"""Cross-device and parameter sensitivity analysis.

The paper's conclusion: "a deep understanding of the algorithm and
hardware characteristic is extremely important to accelerate these
implementations".  This module quantifies that sensitivity — it
re-runs the headline comparisons on other modelled GPUs (K20X, the
Maxwell TITAN X / M40) and under synthetic perturbations of individual
device characteristics, reporting which of the paper's conclusions are
robust and which flip:

* the fbfft-vs-cuDNN kernel-size crossover moves with the
  FLOPs-to-bandwidth ratio (fbfft is transpose/bandwidth-heavy);
* the memory rankings (Fig. 5) are device-independent — they are
  algorithmic;
* absolute runtimes scale with peak FLOPs, so the Fig. 3 orderings
  survive any proportional scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from ..config import BASE_CONFIG, sweep_configs
from ..frameworks.registry import all_implementations, get_implementation
from ..gpusim.device import K20X, K40C, M40, TITAN_X, DeviceSpec
from .evalcache import evaluate, evaluate_fitting
from .report import table


@dataclass(frozen=True)
class DeviceHeadlines:
    """The headline results on one device."""

    device: str
    base_winner: str
    base_fbfft_vs_cudnn: float      # cuDNN time / fbfft time at base
    kernel_crossover: Optional[int]  # first k where fbfft beats cuDNN
    memory_low: str
    memory_high: str


def headlines(device: DeviceSpec) -> DeviceHeadlines:
    """Compute the headline comparisons on one device."""
    impls = all_implementations()
    times = {}
    peaks = {}
    for impl in impls:
        if impl.supports(BASE_CONFIG):
            record = evaluate_fitting(impl, BASE_CONFIG, device)
            times[impl.paper_name] = record.time_s
            peaks[impl.paper_name] = record.peak_memory_bytes
    winner = min(times, key=times.get)

    fbfft = get_implementation("fbfft")
    cudnn = get_implementation("cudnn")
    crossover = None
    for cfg in sweep_configs("kernel"):
        if (evaluate(fbfft, cfg, device).time_s
                < evaluate(cudnn, cfg, device).time_s):
            crossover = cfg.kernel_size
            break
    return DeviceHeadlines(
        device=device.name,
        base_winner=winner,
        base_fbfft_vs_cudnn=times["cuDNN"] / times["fbfft"],
        kernel_crossover=crossover,
        memory_low=min(peaks, key=peaks.get),
        memory_high=max(peaks, key=peaks.get),
    )


def device_comparison(devices: Optional[Sequence[DeviceSpec]] = None
                      ) -> List[DeviceHeadlines]:
    """Headlines across the device zoo.

    Defaults to the four cards of the sensitivity study (the paper's
    K40c, its K20X predecessor and the two Maxwell parts), not the
    whole catalogue in :data:`~repro.gpusim.device.DEVICES`.
    """
    devices = list(devices) if devices else [K40C, K20X, TITAN_X, M40]
    return [headlines(d) for d in devices]


def render_device_comparison(rows: Sequence[DeviceHeadlines]) -> str:
    body = [[r.device, r.base_winner, f"{r.base_fbfft_vs_cudnn:.2f}x",
             r.kernel_crossover if r.kernel_crossover is not None else "-",
             r.memory_low, r.memory_high] for r in rows]
    return table(
        ["Device", "Base winner", "cuDNN/fbfft", "k crossover",
         "Least memory", "Most memory"],
        body,
        title="Headline results across modelled GPUs (base config "
              f"{BASE_CONFIG.tuple5})")


@dataclass(frozen=True)
class PerturbationResult:
    """Effect of scaling one device characteristic."""

    parameter: str
    scale: float
    base_winner: str
    kernel_crossover: Optional[int]


_PERTURBABLE = {
    "memory_bandwidth": "memory_bandwidth",
    "clock_hz": "clock_hz",
    "pcie_pageable_bandwidth": "pcie_pageable_bandwidth",
}


def perturb(parameter: str, scale: float,
            base: DeviceSpec = K40C) -> PerturbationResult:
    """Scale one device characteristic and recompute the headlines."""
    if parameter not in _PERTURBABLE:
        raise KeyError(
            f"unknown parameter {parameter!r}; options: {sorted(_PERTURBABLE)}"
        )
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    device = replace(base, **{parameter: getattr(base, parameter) * scale})
    h = headlines(device)
    return PerturbationResult(parameter=parameter, scale=scale,
                              base_winner=h.base_winner,
                              kernel_crossover=h.kernel_crossover)


def bandwidth_sensitivity(scales: Sequence[float] = (0.5, 1.0, 2.0, 4.0)
                          ) -> List[PerturbationResult]:
    """How the kernel-size crossover responds to DRAM bandwidth —
    fbfft is bandwidth-hungry, so more bandwidth pulls the crossover
    earlier."""
    return [perturb("memory_bandwidth", s) for s in scales]
