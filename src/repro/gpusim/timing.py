"""Roofline timing engine.

Turns a :class:`~repro.gpusim.kernels.KernelSpec` into a runtime and
the nvprof metric set of paper section V-C.  The model is first-order
mechanistic:

* the kernel's sustained compute rate is ``peak * compute_efficiency *
  utilisation``, where utilisation saturates with the product of
  resident warps (from the occupancy calculator) and per-thread ILP
  (proxied by register usage — this is why cuda-convnet2 performs well
  at 14–22 % occupancy, the "higher occupancy does not mean better
  performance" observation of section V-C-1);
* the memory rate is peak DRAM bandwidth derated by the coalescing
  model (transactions vs requested bytes);
* shared-memory traffic is serialised by the bank-conflict degree;
* the kernel takes the maximum of the three phase times (they overlap
  on real hardware) plus a fixed launch overhead;
* divergent control flow inflates issued instructions
  (:func:`~repro.gpusim.divergence.divergence_slowdown`).

IPC is then *derived* from issued warp-instructions over elapsed
cycles, so compute-bound, well-coalesced kernels show high IPC and
memory-bound ones low IPC, as in Fig. 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .banks import conflict_degree, shared_efficiency
from .coalescing import access_efficiency, effective_bandwidth_fraction
from .device import DeviceSpec
from .divergence import divergence_slowdown, warp_execution_efficiency
from .kernels import KernelSpec
from .memo import memoized
from .occupancy import achieved_occupancy, occupancy


class SimClock:
    """Deterministic virtual clock for simulated sessions.

    The serving subsystem (:mod:`repro.serve`) advances this clock by
    the simulated kernel/transfer times produced here, so a whole
    traffic run is reproducible to the bit from its seed — no wall
    time is ever read.  Time only moves forward.
    """

    def __init__(self, start_s: float = 0.0):
        if start_s < 0:
            raise ValueError(f"start_s must be non-negative, got {start_s}")
        self._now = float(start_s)
        self._observer = None

    @property
    def now_s(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def set_observer(self, fn) -> None:
        """Attach (or with ``None`` detach) a time observer.

        ``fn(old_s, new_s)`` fires after every advance that actually
        moves the clock.  The fault-injection plane uses this to
        trigger events scheduled at absolute simulated times (e.g.
        plan-cache corruption) without the scheduler polling.
        """
        self._observer = fn

    @property
    def observed(self) -> bool:
        """Whether a time observer is attached."""
        return self._observer is not None

    def advance(self, dt_s: float) -> float:
        """Move forward by ``dt_s`` seconds; returns the new time."""
        if dt_s < 0:
            raise ValueError(f"cannot advance by negative time {dt_s}")
        old = self._now
        self._now += dt_s
        if self._observer is not None and self._now > old:
            self._observer(old, self._now)
        return self._now

    def advance_to(self, t_s: float) -> float:
        """Move forward to absolute time ``t_s`` (no-op if already
        past it — the clock never rewinds)."""
        old = self._now
        self._now = max(self._now, float(t_s))
        if self._observer is not None and self._now > old:
            self._observer(old, self._now)
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimClock(t={self._now:.6f}s)"


#: Resident-warp x ILP product at which the SM pipelines saturate.
#: GK110 needs ~30 independent instruction streams to cover its
#: arithmetic latency (9-11 cycles) across 4 schedulers.
_SATURATION_PARALLELISM = 30.0

#: Extra parallelism demand for covering DRAM latency, relative to
#: arithmetic latency.
_MEMORY_LATENCY_FACTOR = 1.6


@dataclass(frozen=True)
class KernelTiming:
    """Runtime and metrics of one kernel launch (all launches if the
    spec repeats)."""

    spec: KernelSpec
    time_s: float
    compute_time_s: float
    memory_time_s: float
    shared_time_s: float
    bound: str  # 'compute' | 'memory' | 'shared'
    theoretical_occupancy: float
    achieved_occupancy: float
    warp_execution_efficiency: float
    gld_efficiency: float
    gst_efficiency: float
    shared_efficiency: float
    ipc: float
    #: nvprof-style events.
    shared_load_bank_conflicts: int
    shared_store_bank_conflicts: int

    def __post_init__(self) -> None:
        assert self.time_s > 0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def role(self) -> str:
        """The Fig. 4 role group, as a string."""
        return self.spec.role.value


def _utilisation(warps_resident: float, regs_per_thread: int,
                 demand: float) -> float:
    """Fraction of peak rate sustainable with this much parallelism.

    ILP grows with register usage (more registers → deeper unrolled
    independent chains), clamped to [1, 4].
    """
    ilp = min(max(regs_per_thread / 32.0, 1.0), 4.0)
    parallelism = warps_resident * ilp
    return min(1.0, parallelism / demand)


@memoized(maxsize=131072)
def time_kernel(device: DeviceSpec, spec: KernelSpec) -> KernelTiming:
    """Time one kernel spec on ``device`` and derive its metrics.

    Pure in ``(device, spec)`` — both frozen dataclasses — so results
    are memoized (see :mod:`repro.gpusim.memo`): identical launches
    repeated across sweep points, figure pipelines and serving batches
    cost one dictionary lookup after the first evaluation.
    """
    occ = occupancy(device, spec.launch.block_threads,
                    spec.regs_per_thread, spec.shared_per_block)
    ach = achieved_occupancy(device, occ.theoretical,
                             spec.launch.grid_blocks, occ.blocks_per_sm)
    warps_resident = ach * device.max_warps_per_sm

    wee = warp_execution_efficiency(spec.divergence, device.warp_size)
    div_slow = divergence_slowdown(spec.divergence)

    # --- compute phase ----------------------------------------------------
    compute_util = _utilisation(warps_resident, spec.regs_per_thread,
                                _SATURATION_PARALLELISM)
    sustained_flops = (device.peak_flops * spec.compute_efficiency
                       * compute_util * wee)
    compute_t = spec.flops * div_slow / sustained_flops if spec.flops else 0.0

    # --- global memory phase ----------------------------------------------
    mem_util = _utilisation(warps_resident, spec.regs_per_thread,
                            _SATURATION_PARALLELISM * _MEMORY_LATENCY_FACTOR)
    if spec.timing_bandwidth_fraction is not None:
        read_frac = write_frac = spec.timing_bandwidth_fraction
    else:
        read_frac = effective_bandwidth_fraction(device, spec.load_pattern)
        write_frac = effective_bandwidth_fraction(device, spec.store_pattern)
    read_bw = device.memory_bandwidth * read_frac * mem_util
    write_bw = device.memory_bandwidth * write_frac * mem_util
    mem_t = 0.0
    if spec.gmem_read_bytes:
        mem_t += spec.gmem_read_bytes / read_bw
    if spec.gmem_write_bytes:
        mem_t += spec.gmem_write_bytes / write_bw

    # --- shared memory phase ----------------------------------------------
    shared_t = 0.0
    smem_eff = shared_efficiency(device, spec.shared_accesses)
    conflicted = spec.shared_accesses and spec.shared_traffic_bytes
    degree = max(conflict_degree(device, a)
                 for a in spec.shared_accesses) if conflicted else 1
    if conflicted:
        smem_peak = (device.sm_count * device.shared_banks
                     * device.bank_width_bytes * device.clock_hz * 2.0)  # 64-bit mode
        shared_t = spec.shared_traffic_bytes * degree / (smem_peak * max(ach, 0.05) * 4)

    body = max(compute_t, mem_t, shared_t)
    if body == compute_t:
        bound = "compute"
    elif body == mem_t:
        bound = "memory"
    else:
        bound = "shared"
    time_one = body + device.kernel_launch_overhead_s
    total = time_one * spec.repeats

    # --- derived metrics ----------------------------------------------------
    gld = access_efficiency(device, spec.load_pattern) if spec.gmem_read_bytes else 0.0
    gst = access_efficiency(device, spec.store_pattern) if spec.gmem_write_bytes else 0.0

    # Issued warp-instructions: FLOP instructions (FMA = 2 FLOPs per
    # lane) plus the overhead mix, inflated by divergence replay.
    flop_warp_instr = spec.flops / (device.warp_size * 2.0)
    mem_warp_instr = (spec.gmem_read_bytes + spec.gmem_write_bytes) / (
        device.warp_size * 4.0)
    warp_instr = (flop_warp_instr * (1.0 + spec.overhead_instr_ratio)
                  + mem_warp_instr) * div_slow
    cycles = max(time_one - device.kernel_launch_overhead_s, 1e-12) * device.clock_hz
    ipc = warp_instr / (cycles * device.sm_count)
    ipc = min(ipc, device.max_ipc_per_sm)

    # Bank-conflict events: replays beyond the first access, counted in
    # 128-byte warp accesses of shared traffic.
    conflicts = 0
    if conflicted:
        accesses = int(spec.shared_traffic_bytes / 128.0)
        conflicts = accesses * (degree - 1)
    load_conf = conflicts // 2
    store_conf = conflicts - load_conf

    return KernelTiming(
        spec=spec,
        time_s=total,
        compute_time_s=compute_t,
        memory_time_s=mem_t,
        shared_time_s=shared_t,
        bound=bound,
        theoretical_occupancy=occ.theoretical,
        achieved_occupancy=ach,
        warp_execution_efficiency=wee,
        gld_efficiency=gld,
        gst_efficiency=gst,
        shared_efficiency=smem_eff,
        ipc=ipc,
        shared_load_bank_conflicts=load_conf,
        shared_store_bank_conflicts=store_conf,
    )
