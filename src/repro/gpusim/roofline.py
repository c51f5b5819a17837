"""Roofline analysis of kernel executions.

The paper's section V-C repeatedly reasons in roofline terms —
"whether the problem can be computed in a high degree of parallel",
memory- vs compute-bound kernels, the efficiency of exploiting "the
computing power of GPUs".  This module makes that analysis a
first-class artifact: given profiled kernel timings it computes each
kernel's arithmetic intensity, its attained performance, its position
relative to the device's roofline (the memory-bandwidth slope and the
peak-FLOP ceiling), and aggregate utilisation numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from .device import DeviceSpec
from .timing import KernelTiming


@dataclass(frozen=True)
class RooflinePoint:
    """One kernel's position in the roofline plane."""

    name: str
    arithmetic_intensity: float   # FLOPs per DRAM byte
    attained_flops: float         # FLOP/s achieved
    roof_flops: float             # ceiling at this intensity
    bound: str                    # 'memory' or 'compute' side of ridge

    @property
    def utilisation(self) -> float:
        """Fraction of the roofline ceiling actually attained."""
        return self.attained_flops / self.roof_flops if self.roof_flops else 0.0


def ridge_point(device: DeviceSpec) -> float:
    """Arithmetic intensity at which the device turns compute-bound:
    peak FLOPs / peak bandwidth (FLOPs per byte)."""
    return device.peak_flops / device.memory_bandwidth


def roofline_ceiling(device: DeviceSpec, intensity: float) -> float:
    """The roofline: min(peak, intensity * bandwidth)."""
    if intensity < 0:
        raise ValueError(f"intensity must be non-negative, got {intensity}")
    return min(device.peak_flops, intensity * device.memory_bandwidth)


def analyse(device: DeviceSpec, timings: Sequence[KernelTiming]) -> List[RooflinePoint]:
    """Place every profiled kernel on the device's roofline."""
    points: List[RooflinePoint] = []
    for t in timings:
        spec = t.spec
        total_bytes = spec.total_bytes
        total_flops = spec.total_flops
        if total_flops <= 0 and total_bytes <= 0:
            continue
        intensity = (total_flops / total_bytes) if total_bytes > 0 else float("inf")
        attained = total_flops / t.time_s if total_flops > 0 else 0.0
        roof = (device.peak_flops if total_bytes == 0
                else roofline_ceiling(device, min(intensity, 1e9)))
        side = "compute" if intensity >= ridge_point(device) else "memory"
        points.append(RooflinePoint(
            name=spec.name,
            arithmetic_intensity=intensity,
            attained_flops=attained,
            roof_flops=roof,
            bound=side,
        ))
    return points


@dataclass(frozen=True)
class UtilisationSummary:
    """Aggregate device-exploitation numbers for a kernel set."""

    total_time_s: float
    total_flops: float
    total_bytes: float
    flops_utilisation: float      # of peak FLOPs, time-averaged
    bandwidth_utilisation: float  # of peak bandwidth, time-averaged
    compute_bound_time_fraction: float


def summarise(device: DeviceSpec, timings: Sequence[KernelTiming]) -> UtilisationSummary:
    """How well did this kernel set exploit the device overall?"""
    if not timings:
        raise ValueError("cannot summarise an empty timing list")
    total_time = sum(t.time_s for t in timings)
    total_flops = sum(t.spec.total_flops for t in timings)
    total_bytes = sum(t.spec.total_bytes for t in timings)
    compute_time = sum(t.time_s for t in timings if t.bound == "compute")
    return UtilisationSummary(
        total_time_s=total_time,
        total_flops=total_flops,
        total_bytes=total_bytes,
        flops_utilisation=total_flops / (total_time * device.peak_flops),
        bandwidth_utilisation=total_bytes / (total_time * device.memory_bandwidth),
        compute_bound_time_fraction=compute_time / total_time,
    )


def render(device: DeviceSpec, points: Sequence[RooflinePoint]) -> str:
    """ASCII roofline report."""
    lines = [
        f"roofline of {device.name}: peak {device.peak_flops / 1e12:.2f} "
        f"TFLOP/s, {device.memory_bandwidth / 1e9:.0f} GB/s, ridge at "
        f"{ridge_point(device):.1f} FLOP/byte",
    ]
    for p in sorted(points, key=lambda p: -p.attained_flops):
        ai = ("inf" if p.arithmetic_intensity == float("inf")
              else f"{p.arithmetic_intensity:8.2f}")
        lines.append(
            f"  {p.name:32s} AI={ai} FLOP/B  "
            f"{p.attained_flops / 1e9:9.1f} GFLOP/s "
            f"({p.utilisation * 100:5.1f} % of its roof, {p.bound}-side)"
        )
    return "\n".join(lines)
