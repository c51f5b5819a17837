"""Per-kernel timing oracle for the one-pass timing engine.

The simulator times a kernel plan in one loop,
:func:`repro.gpusim.timing.time_plan`, which reads occupancy,
coalescing, bank-conflict and divergence values from per-device
lookup tables and writes column tables.  This module keeps the model
it replaced — one scalar function per kernel that calls every
sub-model directly — so the tests can check that the loop computes
every field of every row to the same bits.
"""

from __future__ import annotations

from typing import Dict

from repro.gpusim.banks import conflict_degree, shared_efficiency
from repro.gpusim.coalescing import access_efficiency, \
    effective_bandwidth_fraction
from repro.gpusim.device import DeviceSpec
from repro.gpusim.divergence import divergence_slowdown, \
    warp_execution_efficiency
from repro.gpusim.kernels import KernelSpec
from repro.gpusim.occupancy import achieved_occupancy, occupancy

#: Resident-warp x ILP product at which the SM pipelines saturate.
SATURATION_PARALLELISM = 30.0

#: Extra parallelism demand for covering DRAM latency.
MEMORY_LATENCY_FACTOR = 1.6


def _utilisation(warps_resident: float, regs_per_thread: int,
                 demand: float) -> float:
    """Fraction of peak rate sustainable with this much parallelism."""
    ilp = min(max(regs_per_thread / 32.0, 1.0), 4.0)
    parallelism = warps_resident * ilp
    return min(1.0, parallelism / demand)


def time_kernel(device: DeviceSpec, spec: KernelSpec) -> Dict[str, object]:
    """One kernel's row: every :data:`repro.gpusim.timing.TABLE_COLUMNS`
    field, by name."""
    occ = occupancy(device, spec.launch.block_threads,
                    spec.regs_per_thread, spec.shared_per_block)
    ach = achieved_occupancy(device, occ.theoretical,
                             spec.launch.grid_blocks, occ.blocks_per_sm)
    warps_resident = ach * device.max_warps_per_sm

    wee = warp_execution_efficiency(spec.divergence, device.warp_size)
    div_slow = divergence_slowdown(spec.divergence)

    # --- compute phase ----------------------------------------------------
    compute_util = _utilisation(warps_resident, spec.regs_per_thread,
                                SATURATION_PARALLELISM)
    sustained_flops = (device.peak_flops * spec.compute_efficiency
                       * compute_util * wee)
    compute_t = spec.flops * div_slow / sustained_flops if spec.flops else 0.0

    # --- global memory phase ----------------------------------------------
    mem_util = _utilisation(warps_resident, spec.regs_per_thread,
                            SATURATION_PARALLELISM * MEMORY_LATENCY_FACTOR)
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
                     * device.bank_width_bytes * device.clock_hz * 2.0)
        shared_t = spec.shared_traffic_bytes * degree / (
            smem_peak * max(ach, 0.05) * 4)

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
    gld = access_efficiency(device, spec.load_pattern) \
        if spec.gmem_read_bytes else 0.0
    gst = access_efficiency(device, spec.store_pattern) \
        if spec.gmem_write_bytes else 0.0
    flop_warp_instr = spec.flops / (device.warp_size * 2.0)
    mem_warp_instr = (spec.gmem_read_bytes + spec.gmem_write_bytes) / (
        device.warp_size * 4.0)
    warp_instr = (flop_warp_instr * (1.0 + spec.overhead_instr_ratio)
                  + mem_warp_instr) * div_slow
    cycles = max(time_one - device.kernel_launch_overhead_s, 1e-12) \
        * device.clock_hz
    ipc = warp_instr / (cycles * device.sm_count)
    ipc = min(ipc, device.max_ipc_per_sm)

    conflicts = 0
    if conflicted:
        accesses = int(spec.shared_traffic_bytes / 128.0)
        conflicts = accesses * (degree - 1)
    load_conf = conflicts // 2
    store_conf = conflicts - load_conf

    return {
        "time_s": total,
        "compute_time_s": compute_t,
        "memory_time_s": mem_t,
        "shared_time_s": shared_t,
        "bound": bound,
        "theoretical_occupancy": occ.theoretical,
        "achieved_occupancy": ach,
        "warp_execution_efficiency": wee,
        "gld_efficiency": gld,
        "gst_efficiency": gst,
        "shared_efficiency": smem_eff,
        "ipc": ipc,
        "shared_load_bank_conflicts": load_conf,
        "shared_store_bank_conflicts": store_conf,
        "name": spec.name,
        "role": spec.role.value,
    }
