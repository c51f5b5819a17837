"""nvprof-like profiling session.

The paper's methodology (section III-B) uses nvprof to collect five
metrics and two events per kernel.  :class:`Profiler` plays that role
for the analytic model: framework adapters *launch* kernel specs into
an active session a plan at a time, and the session times each plan in
one pass of the roofline engine and keeps the specs and one
:class:`~repro.gpusim.timing.KernelTable` of their rows.  The analysis
harness reads those rows from the evaluation record of
:mod:`repro.core.evalcache` and aggregates them with
:mod:`repro.gpusim.metrics`: the runtime-weighted metric estimates of
Fig. 6 and the hotspot shares of Fig. 4.
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import ProfilerError
from ..obs.context import get_obs
from ..obs.hist import ordered_sum
from ..obs.metrics import NullRegistry
from .device import DeviceSpec, K40C, spec_digest
from .kernels import KernelSpec
from .timing import EMPTY_TABLE, KernelTable, KernelTiming, time_plan
from .transfer import TransferEngine, TransferKind, TransferRecord


class Profiler:
    """Collects kernel executions and transfers for one device.

    Use as a context manager around the code that launches kernels::

        prof = Profiler(K40C)
        with prof.session():
            prof.launch(impl.kernel_plan(config))
        print(prof.gpu_time())
    """

    def __init__(self, device: DeviceSpec = K40C):
        self.device = device
        #: The launched specs and their timing table, in launch order.
        self.specs: List[KernelSpec] = []
        self.table: KernelTable = EMPTY_TABLE
        self.transfers = TransferEngine(device)
        self._active = False
        # Device identity label for the per-kernel time counters,
        # computed once (the digest is cached per spec instance, but
        # the f-string is not worth rebuilding per launch).
        self._device_label = f"{device.name}@{spec_digest(device)}"

    # -- session management ----------------------------------------------------

    def session(self) -> "Profiler":
        return self

    def __enter__(self) -> "Profiler":
        if self._active:
            raise ProfilerError("profiler session already active")
        self._active = True
        return self

    def __exit__(self, *exc) -> None:
        self._active = False

    def reset(self) -> None:
        """Drop all recorded executions and transfers."""
        self.specs = []
        self.table = EMPTY_TABLE
        self.transfers.reset()

    # -- recording ----------------------------------------------------------

    def launch(self, specs: Sequence[KernelSpec]) -> KernelTable:
        """Time a kernel plan in one pass and record it; returns the
        plan's own table.

        Works outside a ``with`` block too (nvprof attaches to whole
        processes); the session form exists so tests can assert
        balanced usage.
        """
        table = time_plan(self.device, specs)
        self.specs.extend(specs)
        self.table = table if not self.table.time_s else KernelTable(
            *map(tuple.__add__, self.table, table))
        registry = get_obs().registry
        if isinstance(registry, NullRegistry):
            return table
        # Cumulative simulated seconds per kernel — what the telemetry
        # dashboard's Fig-4-style hotspot panel aggregates.  Launches
        # happen only on evalcache misses (memoized dispatches replay
        # timings without re-launching), so this stays off the hot path.
        for kernel, role, time_s in zip(table.name, table.role,
                                        table.time_s):
            registry.counter("gpusim_kernel_launches_total",
                             role=role).inc()
            registry.counter("gpusim_kernel_time_seconds_total",
                             kernel=kernel, role=role,
                             device=self._device_label).inc(time_s)
        return table

    def record_transfer(self, kind: TransferKind, nbytes: int,
                        pinned: bool = False, async_: bool = False,
                        chunks: int = 1) -> TransferRecord:
        get_obs().registry.counter(
            "gpusim_transfers_total",
            kind=getattr(kind, "value", str(kind))).inc()
        return self.transfers.copy(kind, nbytes, pinned=pinned,
                                   async_=async_, chunks=chunks)

    # -- queries ------------------------------------------------------------

    @property
    def executions(self) -> List[KernelTiming]:
        """One :class:`~repro.gpusim.timing.KernelTiming` row per
        launch, in launch order, built from the specs and the table."""
        return [KernelTiming(spec, *row[:-2])
                for spec, row in zip(self.specs, zip(*self.table))]

    def gpu_time(self) -> float:
        """Total kernel time (excludes transfers), seconds."""
        return ordered_sum(self.table.time_s)
