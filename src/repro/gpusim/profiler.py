"""nvprof-like profiling session.

The paper's methodology (section III-B) uses nvprof to collect five
metrics and two events per kernel.  :class:`Profiler` plays that role
for the analytic model: framework adapters *launch* kernel specs into
an active session, and the session times them through the roofline
engine and keeps one :class:`~repro.gpusim.timing.KernelTiming` row
per launch in :attr:`Profiler.executions`.  The analysis harness reads
those rows from the evaluation record of :mod:`repro.core.evalcache`
and aggregates them with :mod:`repro.gpusim.metrics`: the
runtime-weighted metric estimates of Fig. 6 and the hotspot shares of
Fig. 4.
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import ProfilerError
from ..obs.context import get_obs
from .device import DeviceSpec, K40C, spec_digest
from .kernels import KernelSpec
from .timing import KernelTiming, time_kernel
from .transfer import TransferEngine, TransferKind, TransferRecord


class Profiler:
    """Collects kernel executions and transfers for one device.

    Use as a context manager around the code that launches kernels::

        prof = Profiler(K40C)
        with prof.session():
            impl.launch_forward(config, prof)
        print(prof.gpu_time())
    """

    def __init__(self, device: DeviceSpec = K40C):
        self.device = device
        #: One timing row per launch, in launch order.
        self.executions: List[KernelTiming] = []
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
        self.executions.clear()
        self.transfers.reset()

    # -- recording ----------------------------------------------------------

    def launch(self, spec: KernelSpec) -> KernelTiming:
        """Time a kernel spec and record it.

        Works outside a ``with`` block too (nvprof attaches to whole
        processes); the session form exists so tests can assert
        balanced usage.
        """
        timing = time_kernel(self.device, spec)
        self.executions.append(timing)
        registry = get_obs().registry
        registry.counter("gpusim_kernel_launches_total",
                         role=spec.role.value).inc()
        # Cumulative simulated seconds per kernel — what the telemetry
        # dashboard's Fig-4-style hotspot panel aggregates.  Launches
        # happen only on evalcache misses (memoized dispatches replay
        # timings without re-launching), so this stays off the hot path.
        registry.counter("gpusim_kernel_time_seconds_total",
                         kernel=spec.name, role=spec.role.value,
                         device=self._device_label).inc(timing.time_s)
        return timing

    def launch_all(self, specs: Sequence[KernelSpec]) -> List[KernelTiming]:
        return [self.launch(s) for s in specs]

    def record_transfer(self, kind: TransferKind, nbytes: int,
                        pinned: bool = False, async_: bool = False,
                        chunks: int = 1) -> TransferRecord:
        get_obs().registry.counter(
            "gpusim_transfers_total",
            kind=getattr(kind, "value", str(kind))).inc()
        return self.transfers.copy(kind, nbytes, pinned=pinned,
                                   async_=async_, chunks=chunks)

    # -- queries ------------------------------------------------------------

    def gpu_time(self) -> float:
        """Total kernel time (excludes transfers), seconds."""
        return sum(e.time_s for e in self.executions)
