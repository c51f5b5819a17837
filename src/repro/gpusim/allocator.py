"""Device memory: the allocation rule and the allocator that charges it.

Models cudaMalloc at the granularity the memory-usage study (paper
section V-B, Fig. 5) needs: every buffer of a memory plan counts
against the device's 12 GB, the high-water mark is recorded (that is
what ``nvidia-smi`` reported in the paper), and exceeding capacity
raises :class:`~repro.errors.DeviceOOMError` — the "program crush"
behaviour the paper observed for FFT implementations on adverse
shapes.

:func:`replay` is the rule, written once: buffers round up to a
512-byte granularity like the CUDA driver's suballocator, each one is
checked against the capacity and then against the capacity a
memory-pressure window leaves, and the first one that does not fit
raises with the footprint of the buffers before it.  The Fig. 5 peak
(:meth:`~repro.frameworks.base.ConvImplementation.peak_memory_bytes`),
the allocation timeline (:mod:`repro.core.memory_timeline`) and
:meth:`DeviceAllocator.replay_transient`, which charges each serving
dispatch, all charge memory through it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Tuple

from ..errors import AllocationError, DeviceOOMError, MemoryPressureError
from .device import DeviceSpec


#: cudaMalloc-style allocation granularity, bytes.
ALLOC_GRANULARITY = 512


def replay(plan: Iterable[Tuple[str, int]], in_use: int, capacity: float,
           reserved: int = 0) -> int:
    """Allocate a memory plan's buffers in order; returns the footprint.

    ``plan`` yields ``(tag, size)`` pairs as
    :meth:`~repro.frameworks.base.ConvImplementation.memory_plan` does;
    sizes <= 0 are skipped.  Each buffer is rounded up to
    :data:`ALLOC_GRANULARITY` and added to ``in_use``.  Nothing is
    freed, so the result is the plan's peak.

    The first buffer that does not fit raises
    :class:`~repro.errors.DeviceOOMError` when it exceeds ``capacity``,
    else :class:`~repro.errors.MemoryPressureError` when it exceeds the
    ``capacity - reserved`` a pressure window leaves.  The error's
    ``in_use`` is the footprint of the buffers before it.
    """
    limit = capacity - reserved
    for _tag, size in plan:
        if size > 0:
            rounded = -(-size // ALLOC_GRANULARITY) * ALLOC_GRANULARITY
            if in_use + rounded > limit:
                if in_use + rounded > capacity:
                    raise DeviceOOMError(rounded, in_use, capacity)
                raise MemoryPressureError(rounded, in_use, capacity,
                                          reserved)
            in_use += rounded
    return in_use


class DeviceAllocator:
    """A device's resident baseline and the peak footprint of the
    transient allocation episodes charged on top of it.

    Parameters
    ----------
    device:
        The device whose capacity bounds allocations.
    baseline:
        Bytes considered permanently allocated before the workload runs
        (CUDA context + framework runtime).  The paper's ``nvidia-smi``
        numbers include this; ~100 MB is typical for CUDA 7.5.
    """

    def __init__(self, device: DeviceSpec, baseline: int = 100 * 2**20):
        if baseline < 0:
            raise AllocationError(f"baseline must be non-negative, got {baseline}")
        if baseline > device.global_memory_bytes:
            raise AllocationError("baseline exceeds device capacity")
        self.device = device
        self.baseline = baseline
        self._peak = baseline
        self._pressure: Optional[Callable[[], int]] = None

    def set_pressure(self, fn: Optional[Callable[[], int]]) -> None:
        """Attach (or with ``None`` detach) a memory-pressure source.

        ``fn`` returns the number of bytes currently reserved away from
        the workload (the fault-injection plane's simulated co-tenant /
        fragmentation pressure).  An allocation that would fit the bare
        device but not the pressured one raises
        :class:`~repro.errors.MemoryPressureError` instead of the plain
        :class:`~repro.errors.DeviceOOMError`, so resilient callers can
        distinguish "retry smaller / later" from "will never fit".
        """
        self._pressure = fn

    @property
    def peak(self) -> int:
        """High-water mark of the footprint (the Fig. 5 quantity)."""
        return self._peak

    @property
    def reserved_bytes(self) -> int:
        """Bytes currently withheld by the attached pressure source
        (0 when no source is attached)."""
        if self._pressure is None:
            return 0
        return max(0, int(self._pressure()))

    def replay_transient(self, plan: Iterable[Tuple[str, int]],
                         total: int) -> int:
        """Allocate every buffer of ``plan`` on top of the baseline,
        then free them all; returns the episode's peak.

        ``total`` is the plan's footprint as :func:`replay` computes it
        from zero (the serving scheduler takes it from the ranked
        plan's Fig. 5 peak), so a plan that fits whole is charged
        without walking it.  Any other plan goes through :func:`replay`
        from the baseline and raises its error at the first buffer that
        does not fit.  The peak is charged either way (the prefix's
        footprint on an error).
        """
        start = self.baseline
        capacity = self.device.global_memory_bytes
        reserved = self.reserved_bytes
        if start + total <= capacity - reserved:
            peak = start + total
        else:
            try:
                peak = replay(plan, start, capacity, reserved)
            except DeviceOOMError as err:
                if err.in_use > self._peak:
                    self._peak = err.in_use
                raise
        if peak > self._peak:
            self._peak = peak
        return peak
