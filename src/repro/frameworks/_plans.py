"""Shared kernel-spec builders for the implementation adapters.

Each helper assembles a :class:`~repro.gpusim.kernels.KernelSpec` for
one kind of kernel (GEMM tile, im2col/col2im, pointwise, transpose,
FFT stage), wiring in the implementation's Table-II resources, access
patterns and calibration curves.  The seven adapters compose their
Fig. 4 kernel plans from these.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from ..gpusim.banks import SharedAccess
from ..gpusim.coalescing import WarpAccess
from ..gpusim.divergence import DivergenceProfile
from ..gpusim.kernels import KernelRole, KernelSpec, LaunchConfig, grid_for
from .calibration import (
    ACCESS_PATTERNS,
    DIVERGENCE,
    ITEMSIZE,
    SHARED_PATTERNS,
    GemmCalibration,
    ResourceUsage,
)
from .gemm_model import gemm_efficiency, gemm_grid_blocks


def gemm_spec(name: str, res: ResourceUsage, cal: GemmCalibration,
              m: int, n: int, k: int, repeats: int = 1,
              role: KernelRole = KernelRole.GEMM,
              shared_key: str = "gemm",
              load_key: str = "gemm_load", store_key: str = "gemm_store",
              divergence_key: str = "default",
              complex_: bool = False) -> KernelSpec:
    """A tiled (m x k) @ (k x n) GEMM launch (8 real FLOPs per MAC when
    ``complex_``)."""
    flops_per_mac = 8 if complex_ else 2
    flops = float(flops_per_mac) * m * n * k
    eff = gemm_efficiency(cal, m, n, k)
    item = ITEMSIZE * (2 if complex_ else 1)
    read = float(m * k + k * n) * item
    write = float(m * n) * item
    grid = gemm_grid_blocks(cal, m, n)
    # Shared-memory staging traffic: every operand element passes
    # through the tile buffers once per K-panel.
    smem_traffic = read * 2.0
    return KernelSpec(
        name=name,
        role=role,
        flops=flops,
        gmem_read_bytes=read,
        gmem_write_bytes=write,
        launch=LaunchConfig(grid_blocks=grid, block_threads=res.block_threads),
        regs_per_thread=res.registers_per_thread,
        shared_per_block=res.shared_per_block,
        compute_efficiency=eff,
        load_pattern=ACCESS_PATTERNS[load_key],
        store_pattern=ACCESS_PATTERNS[store_key],
        shared_accesses=SHARED_PATTERNS[shared_key],
        divergence=DIVERGENCE[divergence_key],
        shared_traffic_bytes=smem_traffic,
        repeats=repeats,
        # GEMM tiles stream operands through L2/shared; the strided
        # *requests* (metric) are mostly cache-served.
        timing_bandwidth_fraction=0.7,
    )


def im2col_spec(name: str, res: ResourceUsage, col_bytes: float,
                image_bytes: float, repeats: int = 1) -> KernelSpec:
    """One im2col launch: gather the receptive fields of one image into
    the column buffer.

    The *requested* load pattern is the badly-strided gather (that is
    what drags the unrolling implementations' gld efficiency down to
    11-16 % in Fig. 6) but the texture/L1 path serves most replays, so
    the DRAM-timing fraction stays moderate.
    """
    threads = res.block_threads
    return KernelSpec(
        name=name,
        role=KernelRole.IM2COL,
        flops=0.0,
        # DRAM sees each input byte roughly once (the k^2-fold re-reads
        # hit the texture/L1 path) and the column buffer written once;
        # the badly-strided *request* pattern still sets the metric.
        gmem_read_bytes=image_bytes,
        gmem_write_bytes=col_bytes,
        launch=LaunchConfig(grid_blocks=grid_for(int(col_bytes / ITEMSIZE), threads),
                            block_threads=threads),
        regs_per_thread=max(res.registers_per_thread // 2, 16),
        shared_per_block=0,
        compute_efficiency=0.5,
        load_pattern=ACCESS_PATTERNS["im2col_load"],
        store_pattern=ACCESS_PATTERNS["im2col_store"],
        divergence=DIVERGENCE["default"],
        repeats=repeats,
        timing_bandwidth_fraction=0.85,
    )


def col2im_spec(name: str, res: ResourceUsage, col_bytes: float,
                image_bytes: float, repeats: int = 1) -> KernelSpec:
    """Adjoint scatter of the column gradient back into image layout."""
    threads = res.block_threads
    return KernelSpec(
        name=name,
        role=KernelRole.COL2IM,
        flops=col_bytes / ITEMSIZE,       # one add per column element
        gmem_read_bytes=col_bytes,
        gmem_write_bytes=image_bytes,     # folded accumulation lands once
        launch=LaunchConfig(grid_blocks=grid_for(int(col_bytes / ITEMSIZE), threads),
                            block_threads=threads),
        regs_per_thread=max(res.registers_per_thread // 2, 16),
        shared_per_block=0,
        compute_efficiency=0.3,
        load_pattern=ACCESS_PATTERNS["col2im_load"],
        store_pattern=ACCESS_PATTERNS["col2im_store"],
        divergence=DIVERGENCE["default"],
        repeats=repeats,
        timing_bandwidth_fraction=0.8,
    )


def pointwise_spec(name: str, res: ResourceUsage, nbytes: float,
                   role: KernelRole = KernelRole.POINTWISE,
                   flops_per_element: float = 1.0,
                   repeats: int = 1) -> KernelSpec:
    """Streaming elementwise kernel (bias add, activation, scaling)."""
    elements = nbytes / ITEMSIZE
    threads = min(res.block_threads, 256)
    return KernelSpec(
        name=name,
        role=role,
        flops=elements * flops_per_element,
        gmem_read_bytes=nbytes,
        gmem_write_bytes=nbytes,
        launch=LaunchConfig(grid_blocks=grid_for(int(elements), threads * 4),
                            block_threads=threads),
        regs_per_thread=24,
        shared_per_block=0,
        compute_efficiency=0.5,
        load_pattern=ACCESS_PATTERNS["stream_load"],
        store_pattern=ACCESS_PATTERNS["stream_store"],
        divergence=DIVERGENCE["default"],
        repeats=repeats,
    )


def transpose_spec(name: str, res: ResourceUsage, nbytes: float,
                   shared_key: str = "gemm",
                   divergence_key: str = "default",
                   timing_fraction: float = 0.7,
                   repeats: int = 1) -> KernelSpec:
    """Layout shuffle: read + write every element once, staged through
    shared-memory tiles."""
    threads = res.block_threads
    return KernelSpec(
        name=name,
        role=KernelRole.TRANSPOSE,
        flops=0.0,
        gmem_read_bytes=nbytes,
        gmem_write_bytes=nbytes,
        launch=LaunchConfig(grid_blocks=grid_for(int(nbytes / ITEMSIZE), threads),
                            block_threads=threads),
        regs_per_thread=max(res.registers_per_thread // 2, 8),
        # Transpose tiles only need a small staging buffer, so they
        # run at higher occupancy than the implementation's main
        # kernels.
        shared_per_block=min(res.shared_per_block, 4096),
        compute_efficiency=0.5,
        load_pattern=ACCESS_PATTERNS["stream_load"],
        store_pattern=ACCESS_PATTERNS["stream_store"],
        shared_accesses=SHARED_PATTERNS[shared_key],
        divergence=DIVERGENCE[divergence_key],
        shared_traffic_bytes=nbytes * 2.0,
        repeats=repeats,
        timing_bandwidth_fraction=timing_fraction,
    )


def fft_spec(name: str, res: ResourceUsage, flops: float, nbytes: float,
             transforms: int, efficiency: float,
             inverse: bool = False,
             load_key: str = "fbfft_load", store_key: str = "fbfft_store",
             shared_key: str = "fbfft",
             divergence_key: str = "default") -> KernelSpec:
    """A batch of 2-D FFT butterflies (forward or inverse)."""
    return KernelSpec(
        name=name,
        role=KernelRole.FFT_INVERSE if inverse else KernelRole.FFT,
        flops=flops,
        gmem_read_bytes=nbytes,
        gmem_write_bytes=nbytes,
        launch=LaunchConfig(grid_blocks=max(transforms, 1),
                            block_threads=res.block_threads),
        regs_per_thread=res.registers_per_thread,
        shared_per_block=res.shared_per_block,
        compute_efficiency=efficiency,
        load_pattern=ACCESS_PATTERNS[load_key],
        store_pattern=ACCESS_PATTERNS[store_key],
        shared_accesses=SHARED_PATTERNS[shared_key],
        divergence=DIVERGENCE[divergence_key],
        shared_traffic_bytes=nbytes,
    )
