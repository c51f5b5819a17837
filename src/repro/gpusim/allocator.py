"""Device memory allocator with peak tracking.

Models cudaMalloc/cudaFree at the granularity the memory-usage study
(paper section V-B, Fig. 5) needs: every live buffer counts against
the device's 12 GB, the high-water mark is recorded (that is what
``nvidia-smi`` reported in the paper), and exceeding capacity raises
:class:`~repro.errors.DeviceOOMError` — the "program crush" behaviour
the paper observed for FFT implementations on adverse shapes.

Allocations are rounded up to a 512-byte granularity like the CUDA
driver's suballocator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional

from ..errors import AllocationError, DeviceOOMError, MemoryPressureError
from .device import DeviceSpec


#: cudaMalloc-style allocation granularity, bytes.  Public so the
#: framework adapters' fast-path peak replay rounds identically.
ALLOC_GRANULARITY = 512
_GRANULARITY = ALLOC_GRANULARITY


@dataclass(frozen=True)
class Buffer:
    """Handle to one live device allocation."""

    handle: int
    size: int
    rounded_size: int
    tag: str


class DeviceAllocator:
    """Tracks live device allocations and the peak footprint.

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
        self._live: Dict[int, Buffer] = {}
        self._next_handle = 1
        self._in_use = baseline
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

    # -- queries -----------------------------------------------------------

    @property
    def in_use(self) -> int:
        """Bytes currently allocated (including the baseline)."""
        return self._in_use

    @property
    def peak(self) -> int:
        """High-water mark of :attr:`in_use` (the Fig. 5 quantity)."""
        return self._peak

    @property
    def free_bytes(self) -> int:
        return self.device.global_memory_bytes - self._in_use

    @property
    def reserved_bytes(self) -> int:
        """Bytes currently withheld by the attached pressure source
        (0 when no source is attached)."""
        if self._pressure is None:
            return 0
        return max(0, int(self._pressure()))

    @property
    def live_buffers(self) -> int:
        return len(self._live)

    def buffers(self) -> Iterator[Buffer]:
        return iter(self._live.values())

    # -- mutation ------------------------------------------------------------

    def alloc(self, size: int, tag: str = "") -> Buffer:
        """Allocate ``size`` bytes; raises :class:`DeviceOOMError` when
        the device cannot hold it."""
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        rounded = math.ceil(size / _GRANULARITY) * _GRANULARITY
        capacity = self.device.global_memory_bytes
        if self._in_use + rounded > capacity:
            raise DeviceOOMError(rounded, self._in_use, capacity)
        reserved = self.reserved_bytes
        if reserved and self._in_use + rounded > capacity - reserved:
            raise MemoryPressureError(rounded, self._in_use, capacity,
                                      reserved)
        buf = Buffer(handle=self._next_handle, size=size,
                     rounded_size=rounded, tag=tag)
        self._next_handle += 1
        self._live[buf.handle] = buf
        self._in_use += rounded
        self._peak = max(self._peak, self._in_use)
        return buf

    def replay_transient(self, rounded_sizes, total_rounded: int) -> None:
        """Replay an alloc-everything-then-free-everything episode.

        The serving dispatch memo records the rounded buffer sizes of a
        batch's memory plan once, then replays them here on every memo
        hit instead of constructing/freeing real :class:`Buffer`
        objects.  Byte-exact with the real loop: same peak high-water
        mark, same error type and fields at the same buffer, same
        OOM-before-pressure check order, and the peak of a partially
        allocated prefix is charged before the error propagates (the
        real loop bumps the peak per successful alloc and the caller
        frees the prefix afterwards).  Net ``in_use`` is unchanged.
        """
        capacity = self.device.global_memory_bytes
        start = self._in_use
        reserved = self.reserved_bytes
        if start + total_rounded <= capacity - reserved:
            peak = start + total_rounded
            if peak > self._peak:
                self._peak = peak
            return
        in_use = start
        for rounded in rounded_sizes:
            if in_use + rounded > capacity:
                if in_use > self._peak:
                    self._peak = in_use
                raise DeviceOOMError(rounded, in_use, capacity)
            if reserved and in_use + rounded > capacity - reserved:
                if in_use > self._peak:
                    self._peak = in_use
                raise MemoryPressureError(rounded, in_use, capacity, reserved)
            in_use += rounded
        if in_use > self._peak:
            self._peak = in_use

    def free(self, buf: Buffer) -> None:
        """Release a live buffer; freeing twice is an error."""
        stored = self._live.pop(buf.handle, None)
        if stored is None:
            raise AllocationError(f"free of unknown or already-freed buffer {buf.handle}")
        self._in_use -= stored.rounded_size

    def free_all(self) -> None:
        """Release every live buffer (end of benchmark iteration)."""
        for buf in list(self._live.values()):
            self.free(buf)

    def reset_peak(self) -> None:
        """Restart peak tracking from the current footprint."""
        self._peak = self._in_use

    # -- context-manager sugar ------------------------------------------------

    def scoped(self, size: int, tag: str = "") -> "_ScopedBuffer":
        """``with allocator.scoped(n):`` allocates for the block only."""
        return _ScopedBuffer(self, size, tag)


class _ScopedBuffer:
    def __init__(self, allocator: DeviceAllocator, size: int, tag: str):
        self._allocator = allocator
        self._size = size
        self._tag = tag
        self.buffer: Optional[Buffer] = None

    def __enter__(self) -> Buffer:
        self.buffer = self._allocator.alloc(self._size, self._tag)
        return self.buffer

    def __exit__(self, *exc) -> None:
        if self.buffer is not None:
            self._allocator.free(self.buffer)
            self.buffer = None
