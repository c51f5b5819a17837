"""Multi-GPU data-parallel scaling model.

The paper notes that most of the benchmarked frameworks "support one
or multiple GPUs" but evaluates a single K40c.  This extension models
the obvious next question — how the measured single-GPU iteration
times scale under synchronous data parallelism — using the same
first-order machinery as the rest of the simulator:

* each of ``n`` GPUs processes ``batch / n`` images (strong scaling)
  or the full per-GPU batch (weak scaling);
* after the backward pass, weight gradients are all-reduced.  On a
  2016-era PCIe box without NVLink/NCCL-rings this is modelled as a
  ring all-reduce over the PCIe links: ``2 * (n-1)/n * bytes`` moved
  per GPU at the (shared) host-bridge bandwidth;
* cuda-convnet2's "one weird trick" observation falls out naturally:
  convolutional layers (few parameters, much compute) scale well,
  FC-heavy models are gradient-bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ShapeError
from .device import DeviceSpec, K40C


@dataclass(frozen=True)
class ScalingPoint:
    """Predicted behaviour at one GPU count."""

    gpus: int
    compute_time_s: float
    allreduce_time_s: float
    iteration_time_s: float
    speedup: float
    efficiency: float


def ring_allreduce_time(param_bytes: int, gpus: int,
                        link_bandwidth: float,
                        latency_s: float = 10e-6,
                        steps_factor: int = 2) -> float:
    """Time of one ring all-reduce of ``param_bytes`` per GPU.

    Each GPU sends ``(gpus - 1) / gpus * param_bytes`` in each of the
    reduce-scatter and all-gather phases (``steps_factor = 2``), at
    ``link_bandwidth`` bytes/s, paying a per-step latency.
    """
    if param_bytes < 0:
        raise ShapeError(f"param_bytes must be non-negative, got {param_bytes}")
    if gpus <= 0:
        raise ShapeError(f"gpus must be positive, got {gpus}")
    if gpus == 1 or param_bytes == 0:
        return 0.0
    per_phase = (gpus - 1) / gpus * param_bytes
    steps = steps_factor * (gpus - 1)
    return steps_factor * per_phase / link_bandwidth + steps * latency_s


def strong_scaling(single_gpu_time_s: float, param_bytes: int, gpus: int,
                   device: DeviceSpec = K40C,
                   parallel_fraction: float = 0.98) -> ScalingPoint:
    """Fixed global batch split across ``gpus`` devices.

    ``parallel_fraction`` is the share of the single-GPU iteration that
    parallelises over images (launch overheads and small kernels do
    not — an Amdahl term).
    """
    if single_gpu_time_s <= 0:
        raise ShapeError("single_gpu_time_s must be positive")
    if not (0.0 < parallel_fraction <= 1.0):
        raise ShapeError("parallel_fraction must be in (0,1]")
    if gpus <= 0:
        raise ShapeError(f"gpus must be positive, got {gpus}")
    serial = single_gpu_time_s * (1.0 - parallel_fraction)
    compute = serial + single_gpu_time_s * parallel_fraction / gpus
    comm = ring_allreduce_time(param_bytes, gpus,
                               device.pcie_pinned_bandwidth)
    total = compute + comm
    speedup = single_gpu_time_s / total
    return ScalingPoint(gpus=gpus, compute_time_s=compute,
                        allreduce_time_s=comm, iteration_time_s=total,
                        speedup=speedup, efficiency=speedup / gpus)


def weak_scaling(single_gpu_time_s: float, param_bytes: int, gpus: int,
                 device: DeviceSpec = K40C) -> ScalingPoint:
    """Per-GPU batch held constant; the global batch grows with
    ``gpus``.  Throughput speedup = gpus / (1 + comm/compute)."""
    if single_gpu_time_s <= 0:
        raise ShapeError("single_gpu_time_s must be positive")
    if gpus <= 0:
        raise ShapeError(f"gpus must be positive, got {gpus}")
    comm = ring_allreduce_time(param_bytes, gpus,
                               device.pcie_pinned_bandwidth)
    total = single_gpu_time_s + comm
    speedup = gpus * single_gpu_time_s / total
    return ScalingPoint(gpus=gpus, compute_time_s=single_gpu_time_s,
                        allreduce_time_s=comm, iteration_time_s=total,
                        speedup=speedup, efficiency=speedup / gpus)
