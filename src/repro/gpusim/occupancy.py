"""CUDA occupancy calculation.

Occupancy — the ratio of resident warps to the SM's maximum — is the
paper's first profiling metric (section V-C-1).  It is limited by three
resources, exactly as the paper's summary states: *register usage,
shared memory usage and block size*.  This module implements the
compute-capability 3.5 allocation rules from NVIDIA's occupancy
calculator:

* registers are allocated per warp, rounded up to the device's
  allocation granularity;
* shared memory is allocated per block, rounded up to its granularity;
* an SM holds at most ``max_blocks_per_sm`` blocks and
  ``max_warps_per_sm`` warps.

The paper's Table II (registers/thread, shared bytes/block for each
implementation) feeds straight into this calculation and yields the
occupancy ranges Fig. 6 reports — e.g. cuda-convnet2's 116
registers/thread caps it at ~25 % theoretical occupancy, matching the
observed 14–22 %.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .device import DeviceSpec


@dataclass(frozen=True)
class OccupancyResult:
    """Outcome of the occupancy calculation for one launch shape."""

    #: Resident blocks per SM.
    blocks_per_sm: int
    #: Resident warps per SM.
    warps_per_sm: int
    #: warps_per_sm / device.max_warps_per_sm, in (0, 1].
    theoretical: float
    #: Which resource capped the block count:
    #: 'blocks' | 'warps' | 'registers' | 'shared'.
    limiter: str

    def __post_init__(self) -> None:
        assert 0.0 <= self.theoretical <= 1.0


def _register_block_limit(device: DeviceSpec, regs_per_thread: int,
                          warps_per_block: int) -> int:
    """Blocks/SM permitted by the register file (warp-granular alloc)."""
    if regs_per_thread == 0:
        return device.max_blocks_per_sm
    regs_per_warp = regs_per_thread * device.warp_size
    # Round up to the allocation unit.
    regs_per_warp = math.ceil(regs_per_warp / device.register_alloc_unit) \
        * device.register_alloc_unit
    warps_limit = device.registers_per_sm // regs_per_warp
    return warps_limit // warps_per_block


def _shared_block_limit(device: DeviceSpec, shared_per_block: int) -> int:
    """Blocks/SM permitted by shared memory."""
    if shared_per_block == 0:
        return device.max_blocks_per_sm
    alloc = math.ceil(shared_per_block / device.shared_alloc_unit) \
        * device.shared_alloc_unit
    return device.shared_memory_per_sm // alloc


def occupancy(device: DeviceSpec, threads_per_block: int,
              regs_per_thread: int = 0, shared_per_block: int = 0) -> OccupancyResult:
    """Compute theoretical occupancy for a launch configuration.

    Raises ``ValueError`` for configurations that cannot launch at all
    (block too large, more registers per thread than addressable, more
    shared memory than a block may use).
    """
    if threads_per_block <= 0:
        raise ValueError(f"threads_per_block must be positive, got {threads_per_block}")
    if threads_per_block > device.max_threads_per_block:
        raise ValueError(
            f"block of {threads_per_block} threads exceeds device limit "
            f"{device.max_threads_per_block}"
        )
    if regs_per_thread < 0 or shared_per_block < 0:
        raise ValueError("resource usage must be non-negative")
    if regs_per_thread > device.max_registers_per_thread:
        raise ValueError(
            f"{regs_per_thread} registers/thread exceeds device limit "
            f"{device.max_registers_per_thread}"
        )
    if shared_per_block > device.max_shared_per_block:
        raise ValueError(
            f"{shared_per_block} B shared/block exceeds device limit "
            f"{device.max_shared_per_block}"
        )

    warps_per_block = math.ceil(threads_per_block / device.warp_size)

    limits = {
        "blocks": device.max_blocks_per_sm,
        "warps": device.max_warps_per_sm // warps_per_block,
        "registers": _register_block_limit(device, regs_per_thread, warps_per_block),
        "shared": _shared_block_limit(device, shared_per_block),
    }
    limiter = min(limits, key=lambda k: limits[k])
    blocks = limits[limiter]
    if blocks == 0:
        # Resources admit less than one whole block per SM; the kernel
        # still runs (one block at a time) in real hardware only if a
        # single block fits, which the guards above ensure for shared
        # memory; registers can still exclude it.
        raise ValueError(
            f"launch cannot fit one block per SM (limited by {limiter}): "
            f"threads={threads_per_block}, regs={regs_per_thread}, "
            f"shared={shared_per_block}"
        )
    warps = blocks * warps_per_block
    # Warps may exceed the SM warp cap when block-count is the limiter
    # only via rounding; clamp defensively.
    warps = min(warps, device.max_warps_per_sm)
    return OccupancyResult(
        blocks_per_sm=blocks,
        warps_per_sm=warps,
        theoretical=warps / device.max_warps_per_sm,
        limiter=limiter,
    )


def achieved_occupancy(device: DeviceSpec, theoretical: float,
                       grid_blocks: int, blocks_per_sm: int) -> float:
    """Estimate *achieved* occupancy from the theoretical bound.

    Real kernels achieve less than the theoretical occupancy because of
    launch tails (the final wave of blocks only partially fills the
    SMs) and scheduling jitter.  We model the tail exactly — the mean
    occupancy over all waves of the grid — and apply a small constant
    scheduling derate.
    """
    if grid_blocks <= 0:
        raise ValueError(f"grid_blocks must be positive, got {grid_blocks}")
    wave_capacity = blocks_per_sm * device.sm_count
    full_waves, tail = divmod(grid_blocks, wave_capacity)
    if full_waves == 0:
        mean_fill = tail / wave_capacity
    elif tail == 0:
        mean_fill = 1.0
    else:
        # Time-weighted: full waves run at 100 % fill, the tail wave at
        # tail/wave_capacity fill for roughly one wave duration.
        mean_fill = (full_waves + (tail / wave_capacity) ** 2) / (full_waves + tail / wave_capacity)
    scheduling_derate = 0.92  # empirical steady-state scheduler efficiency
    value = theoretical * mean_fill * scheduling_derate
    return max(min(value, 1.0), 1e-4)


def optimal_block_size(device: DeviceSpec, regs_per_thread: int = 0,
                       shared_per_block: int = 0,
                       candidates=(64, 128, 192, 256, 384, 512, 768, 1024)
                       ) -> int:
    """Block size maximising theoretical occupancy for a resource
    budget (ties break toward smaller blocks — finer-grained tails).

    The paper's section V-C-1 summary: "Occupancy is limited by three
    potential factors: register usage, shared memory usage and block
    size. It is important that GPU-based CNN implementations carefully
    balance these factors."  This helper is that balancing act as a
    function.
    """
    best_block, best_occ = None, -1.0
    for block in candidates:
        try:
            occ = occupancy(device, block, regs_per_thread,
                            shared_per_block).theoretical
        except ValueError:
            continue
        if occ > best_occ + 1e-12:
            best_block, best_occ = block, occ
    if best_block is None:
        raise ValueError(
            f"no candidate block size can launch with regs={regs_per_thread}, "
            f"shared={shared_per_block}"
        )
    return best_block
