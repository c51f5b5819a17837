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

import functools
from collections import namedtuple
from dataclasses import dataclass, fields
from typing import Dict, Sequence

from . import memo
from .banks import conflict_degree, shared_efficiency
from .coalescing import WarpAccess, access_efficiency, \
    effective_bandwidth_fraction
from .device import DeviceSpec
from .divergence import DivergenceProfile, divergence_slowdown, \
    warp_execution_efficiency
from .kernels import KernelSpec
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
_MEMORY_DEMAND = _SATURATION_PARALLELISM * _MEMORY_LATENCY_FACTOR


@dataclass(frozen=True)
class KernelTiming:
    """Runtime and metrics of one kernel launch (all launches if the
    spec repeats): one row of a :class:`KernelTable` with its spec."""

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


#: Columns of a :class:`KernelTable`: every :class:`KernelTiming` field
#: after ``spec``, then the kernel's name and role string.
TABLE_COLUMNS = tuple(f.name for f in fields(KernelTiming))[1:] + (
    "name", "role")

KernelTable = namedtuple("KernelTable", TABLE_COLUMNS)
KernelTable.__doc__ = """The timing rows of a kernel plan as columns: one
tuple per :data:`TABLE_COLUMNS` entry, in launch order.  Tuples of
numbers and strings hold no per-kernel objects, so a table costs the
garbage collector nothing once it has been seen."""

#: The table of a plan that launched nothing.
EMPTY_TABLE = KernelTable(*((),) * len(TABLE_COLUMNS))


# -- per-device lookup tables ------------------------------------------------

class _Table(dict):
    """Values derived from their key on first lookup, by ``derive``."""

    def __init__(self, derive):
        super().__init__()
        self.derive = derive
        self.misses = 0

    def __missing__(self, key):
        self.misses += 1
        value = self[key] = self.derive(key)
        return value


def _occupancy_entry(device: DeviceSpec, shape: tuple) -> tuple:
    """Occupancy, blocks per SM and ILP of (threads, regs, smem)."""
    threads, regs, smem = shape
    occ = occupancy(device, threads, regs, smem)
    # ILP grows with register usage (more registers -> deeper unrolled
    # independent chains), clamped to [1, 4].
    return occ.theoretical, occ.blocks_per_sm, min(max(regs / 32.0, 1.0), 4.0)


def _warp_entry(device: DeviceSpec, access: WarpAccess) -> tuple:
    """nvprof efficiency and DRAM bandwidth fraction of a pattern."""
    return (access_efficiency(device, access),
            effective_bandwidth_fraction(device, access))


def _shared_entry(device: DeviceSpec, accesses: tuple) -> tuple:
    """Shared efficiency and worst conflict degree of an access set."""
    return (shared_efficiency(device, accesses),
            max((conflict_degree(device, a) for a in accesses), default=1))


def _divergence_entry(device: DeviceSpec, profile: DivergenceProfile
                      ) -> tuple:
    """Warp execution efficiency and slowdown of a divergence profile."""
    return (warp_execution_efficiency(profile, device.warp_size),
            divergence_slowdown(profile))


#: Table name -> the function deriving its entries from (device, key).
_DERIVE = {"occupancy": _occupancy_entry, "warp": _warp_entry,
           "shared": _shared_entry, "divergence": _divergence_entry}


class _DeviceTables:
    """One device's :data:`_DERIVE` tables and how many kernels have
    read them; every kernel looks each table up once (``warp`` twice)."""

    def __init__(self, device: DeviceSpec):
        self.kernels = 0
        for name, derive in _DERIVE.items():
            setattr(self, name, _Table(functools.partial(derive, device)))


#: Device spec -> its tables.  The spec is hashed once per plan.
_tables = _Table(_DeviceTables)


def _table_stats(name: str) -> Dict[str, int]:
    tables = [getattr(t, name) for t in _tables.values()]
    lookups = sum(t.kernels for t in _tables.values()) * (
        2 if name == "warp" else 1)
    misses = sum(t.misses for t in tables)
    return {"hits": lookups - misses, "misses": misses,
            "size": sum(map(len, tables))}


for _name in _DERIVE:
    memo.register(f"{__name__}.{_name}", _tables.clear,
                  functools.partial(_table_stats, _name))


# -- the timing loop ---------------------------------------------------------

def time_plan(device: DeviceSpec, specs: Sequence[KernelSpec]) -> KernelTable:
    """Time a kernel plan on ``device`` in one pass; returns its table.

    Each kernel's fields are computed in scalar Python, in one fixed
    order of operations, so a kernel times to the same bits in any
    plan.  Occupancy, coalescing, bank-conflict and divergence values
    come from the device's lookup tables (see :mod:`repro.gpusim.memo`).
    """
    tables = _tables[device]
    tables.kernels += len(specs)
    occ_table, warp_table = tables.occupancy, tables.warp
    shared_table, div_table = tables.shared, tables.divergence
    max_warps, peak_flops = device.max_warps_per_sm, device.peak_flops
    bandwidth, overhead = (device.memory_bandwidth,
                           device.kernel_launch_overhead_s)
    clock_hz, sm_count = device.clock_hz, device.sm_count
    smem_peak = (sm_count * device.shared_banks * device.bank_width_bytes
                 * clock_hz * 2.0)  # 64-bit mode
    flop_lanes, mem_lanes = device.warp_size * 2.0, device.warp_size * 4.0
    max_ipc = device.max_ipc_per_sm
    rows = []
    for spec in specs:
        launch = spec.launch
        shape = (launch.block_threads, spec.regs_per_thread,
                 spec.shared_per_block)
        theoretical, blocks_per_sm, ilp = occ_table[shape]
        ach = achieved_occupancy(device, theoretical, launch.grid_blocks,
                                 blocks_per_sm)
        parallelism = ach * max_warps * ilp
        wee, div_slow = div_table[spec.divergence]

        # --- compute phase ------------------------------------------------
        flops = spec.flops
        compute_util = min(1.0, parallelism / _SATURATION_PARALLELISM)
        sustained_flops = (peak_flops * spec.compute_efficiency
                           * compute_util * wee)
        compute_t = flops * div_slow / sustained_flops if flops else 0.0

        # --- global memory phase --------------------------------------------
        read, write = spec.gmem_read_bytes, spec.gmem_write_bytes
        mem_util = min(1.0, parallelism / _MEMORY_DEMAND)
        gld, read_frac = warp_table[spec.load_pattern]
        gst, write_frac = warp_table[spec.store_pattern]
        if spec.timing_bandwidth_fraction is not None:
            read_frac = write_frac = spec.timing_bandwidth_fraction
        mem_t = 0.0
        if read:
            mem_t += read / (bandwidth * read_frac * mem_util)
        if write:
            mem_t += write / (bandwidth * write_frac * mem_util)

        # --- shared memory phase --------------------------------------------
        accesses, traffic = spec.shared_accesses, spec.shared_traffic_bytes
        smem_eff, degree = shared_table[accesses]
        shared_t, conflicts = 0.0, 0
        if accesses and traffic:
            shared_t = traffic * degree / (smem_peak * max(ach, 0.05) * 4)
            # Bank-conflict events: replays beyond the first access,
            # counted in 128-byte warp accesses of shared traffic.
            conflicts = int(traffic / 128.0) * (degree - 1)

        body = max(compute_t, mem_t, shared_t)
        bound = ("compute" if body == compute_t else
                 "memory" if body == mem_t else "shared")
        time_one = body + overhead

        # --- derived metrics ------------------------------------------------
        # Issued warp-instructions: FLOP instructions (FMA = 2 FLOPs per
        # lane) plus the overhead mix, inflated by divergence replay.
        warp_instr = (flops / flop_lanes * (1.0 + spec.overhead_instr_ratio)
                      + (read + write) / mem_lanes) * div_slow
        cycles = max(time_one - overhead, 1e-12) * clock_hz
        ipc = min(warp_instr / (cycles * sm_count), max_ipc)
        load_conf = conflicts // 2
        rows.append((time_one * spec.repeats, compute_t, mem_t, shared_t,
                     bound, theoretical, ach, wee, gld if read else 0.0,
                     gst if write else 0.0, smem_eff, ipc, load_conf,
                     conflicts - load_conf, spec.name, spec.role.value))
    return KernelTable(*zip(*rows)) if rows else EMPTY_TABLE


def time_kernel(device: DeviceSpec, spec: KernelSpec) -> KernelTiming:
    """Time one kernel spec on ``device``: :func:`time_plan` of a
    one-kernel plan, as a row."""
    table = time_plan(device, (spec,))
    return KernelTiming(spec, *(column[0] for column in table[:-2]))
