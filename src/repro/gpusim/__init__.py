"""Analytic GPU performance-model substrate.

This subpackage stands in for the Tesla K40c + CUDA 7.5 + nvprof stack
the paper measured on.  It is a first-order mechanistic model, not a
cycle-accurate simulator: each GPU kernel is described by a
:class:`~repro.gpusim.kernels.KernelSpec` (FLOPs, global/shared memory
traffic, launch geometry, per-thread register and per-block shared
memory usage, and memory-access patterns), and the components here turn
that description into the quantities nvprof reports:

* :mod:`~repro.gpusim.occupancy` — the CUDA occupancy calculation
  (compute-capability 3.5 rules) → *achieved occupancy*;
* :mod:`~repro.gpusim.coalescing` — the 128-byte transaction model →
  *gld/gst efficiency*;
* :mod:`~repro.gpusim.banks` — the 32-bank shared-memory model →
  *shared efficiency* and bank-conflict events;
* :mod:`~repro.gpusim.divergence` — SIMT lane masking → *warp
  execution efficiency*;
* :mod:`~repro.gpusim.timing` — a roofline engine with
  occupancy-dependent latency hiding → kernel *runtime* and *IPC*;
* :mod:`~repro.gpusim.allocator` — the allocation rule
  (:func:`~repro.gpusim.allocator.replay`: 512-byte rounding, then a
  capacity and a pressure check per buffer) and a device's peak
  footprint → the Fig. 5 memory-usage numbers and OOM behaviour;
* :mod:`~repro.gpusim.transfer` — the PCIe bus, pinned/pageable
  bandwidth, and the closed-form async copy/compute overlap
  (:func:`~repro.gpusim.transfer.exposed_transfer_time`) → the Fig. 7
  transfer overheads (a discrete-event two-stream simulation in the
  test suite cross-checks that formula);
* :mod:`~repro.gpusim.profiler` — an nvprof-like session that records
  per-kernel metric rows and aggregates them runtime-weighted, the
  method section V-C describes.
"""

from .device import DEVICES, DeviceSpec, K20X, K40C, M40, TITAN_X
from .coalescing import WarpAccess
from .banks import SharedAccess
from .divergence import DivergenceProfile
from .kernels import KernelSpec, LaunchConfig, KernelRole
from .occupancy import OccupancyResult, occupancy
from .timing import KernelTiming, time_kernel
from .allocator import DeviceAllocator
from .transfer import TransferEngine, TransferKind
from .profiler import Profiler
from .roofline import RooflinePoint, analyse as roofline_analyse, ridge_point
from .multigpu import ScalingPoint, strong_scaling, weak_scaling
from .energy import EnergyReport, iteration_energy

__all__ = [
    "DeviceSpec",
    "K40C",
    "K20X",
    "TITAN_X",
    "M40",
    "DEVICES",
    "WarpAccess",
    "SharedAccess",
    "DivergenceProfile",
    "KernelSpec",
    "LaunchConfig",
    "KernelRole",
    "OccupancyResult",
    "occupancy",
    "KernelTiming",
    "time_kernel",
    "DeviceAllocator",
    "TransferEngine",
    "TransferKind",
    "Profiler",
    "RooflinePoint",
    "roofline_analyse",
    "ridge_point",
    "ScalingPoint",
    "strong_scaling",
    "weak_scaling",
    "EnergyReport",
    "iteration_energy",
]
