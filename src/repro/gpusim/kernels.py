"""Kernel descriptions consumed by the timing engine and profiler.

A :class:`KernelSpec` is the analytic-model analogue of one CUDA
kernel launch: how much work it does (FLOPs, bytes), how it is shaped
(grid/block), what per-thread resources it holds (registers, shared
memory — the paper's Table II), and how it touches memory (coalescing
and bank patterns).  The framework adapters in
:mod:`repro.frameworks` build lists of these — *kernel plans* — for
each convolution configuration, naming the kernels exactly as the
paper's Fig. 4 does (``sgemm``, ``im2col_gpu_kernel``,
``filterActs_YxX_color``, ``decimateInFrequency`` ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional, Sequence, Tuple

from .coalescing import WarpAccess, COALESCED_FLOAT
from .banks import SharedAccess
from .divergence import DivergenceProfile, UNIFORM


class KernelRole(Enum):
    """Functional grouping of kernels, matching how the paper's Fig. 4
    clusters "similar kernels who have the same functionalities"."""

    GEMM = "GEMM"
    IM2COL = "im2col"
    COL2IM = "col2im"
    FFT = "FFT"
    FFT_INVERSE = "FFT inverse"
    TRANSPOSE = "transpose"
    CGEMM = "CGEMM"
    DIRECT_CONV = "direct conv"
    POINTWISE = "pointwise"
    REDUCE = "reduce"
    DATA_PREP = "data prep"
    MEMCPY = "memcpy"
    OTHER = "other"


@dataclass(frozen=True)
class LaunchConfig:
    """Grid/block geometry of one launch."""

    grid_blocks: int
    block_threads: int

    def __post_init__(self) -> None:
        if self.grid_blocks <= 0:
            raise ValueError(f"grid_blocks must be positive, got {self.grid_blocks}")
        if self.block_threads <= 0:
            raise ValueError(f"block_threads must be positive, got {self.block_threads}")

    @property
    def total_threads(self) -> int:
        return self.grid_blocks * self.block_threads

    @property
    def warps(self) -> int:
        return self.grid_blocks * math.ceil(self.block_threads / 32)


@dataclass(frozen=True)
class KernelSpec:
    """Analytic description of one kernel launch.

    Work is described by ``flops`` (floating-point operations retired)
    and the *requested* global traffic ``gmem_read_bytes`` /
    ``gmem_write_bytes``; the coalescing model inflates requested
    traffic into transactions.  ``compute_efficiency`` is the fraction
    of issue slots the kernel's instruction mix can use at full
    occupancy (e.g. a cuBLAS GEMM tile sustains ~0.6-0.85 of peak; a
    gather kernel much less) — it is *per-kernel instruction mix*, not
    a fudge factor, and comes from the calibration tables with
    provenance notes.
    """

    name: str
    role: KernelRole
    flops: float
    gmem_read_bytes: float
    gmem_write_bytes: float
    launch: LaunchConfig
    regs_per_thread: int = 32
    shared_per_block: int = 0
    compute_efficiency: float = 0.7
    load_pattern: WarpAccess = COALESCED_FLOAT
    store_pattern: WarpAccess = COALESCED_FLOAT
    shared_accesses: Tuple[SharedAccess, ...] = ()
    divergence: DivergenceProfile = UNIFORM
    #: Average non-FLOP instructions issued per FLOP instruction
    #: (address math, loads/stores, control) — feeds the IPC estimate.
    overhead_instr_ratio: float = 0.6
    #: Shared-memory bytes moved per global byte of useful traffic;
    #: only used to decide whether bank conflicts gate the kernel.
    shared_traffic_bytes: float = 0.0
    #: How many times this identical launch repeats (e.g. per-image
    #: im2col loops in Caffe launch once per batch element).
    repeats: int = 1
    #: Fraction of peak DRAM bandwidth the kernel sustains for timing
    #: purposes.  ``None`` derives it from the access patterns; set it
    #: explicitly for kernels whose poorly-coalesced *requests* are
    #: largely absorbed by the L1/texture cache (im2col-style gathers),
    #: where the nvprof efficiency metric is low but DRAM traffic is
    #: close to compulsory.
    timing_bandwidth_fraction: Optional[float] = None

    def __post_init__(self) -> None:
        if self.flops < 0 or self.gmem_read_bytes < 0 or self.gmem_write_bytes < 0:
            raise ValueError("work quantities must be non-negative")
        if self.flops == 0 and self.gmem_read_bytes == 0 and self.gmem_write_bytes == 0:
            raise ValueError(f"kernel {self.name!r} does no work")
        if not (0.0 < self.compute_efficiency <= 1.0):
            raise ValueError("compute_efficiency must be in (0,1]")
        if self.regs_per_thread < 0 or self.shared_per_block < 0:
            raise ValueError("resource usage must be non-negative")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.overhead_instr_ratio < 0:
            raise ValueError("overhead_instr_ratio must be >= 0")
        if self.timing_bandwidth_fraction is not None and not (
                0.0 < self.timing_bandwidth_fraction <= 1.0):
            raise ValueError("timing_bandwidth_fraction must be in (0,1]")

    @property
    def total_flops(self) -> float:
        return self.flops * self.repeats

    @property
    def total_bytes(self) -> float:
        return (self.gmem_read_bytes + self.gmem_write_bytes) * self.repeats

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per requested global byte (one launch)."""
        total = self.gmem_read_bytes + self.gmem_write_bytes
        return self.flops / total if total > 0 else math.inf

    def scaled(self, **changes) -> "KernelSpec":
        """Copy with fields replaced (kernel plans reuse templates)."""
        return replace(self, **changes)


def grid_for(items: int, per_block: int) -> int:
    """Blocks needed to cover ``items`` work items, ``per_block`` each."""
    if items <= 0:
        raise ValueError(f"items must be positive, got {items}")
    if per_block <= 0:
        raise ValueError(f"per_block must be positive, got {per_block}")
    return math.ceil(items / per_block)


def replay_cost_s(device) -> float:
    """Simulated cost of recovering one transiently-faulted launch.

    The ECC single-bit-error class of fault is recoverable: the driver
    scrubs the affected region and replays the launch.  The recovery
    therefore costs one ECC scrub/replay window
    (:attr:`~repro.gpusim.device.DeviceSpec.ecc_retry_cost_s`) plus the
    re-launch overhead.  The fault-injection plane charges this to the
    virtual clock for every injected transient fault.
    """
    return device.ecc_retry_cost_s + device.kernel_launch_overhead_s
