"""Per-buffer allocator oracle for the allocation rule.

The simulator charges device memory through one function,
:func:`repro.gpusim.allocator.replay`, which walks a memory plan
without buffer handles.  This module keeps the model it replaced —
cudaMalloc/cudaFree with a live-buffer table, a high-water mark, and a
capacity check then a pressure check per allocation — written apart
from it (its own ``math.ceil`` rounding), so the tests can check that
``replay`` and every caller of it charge the same peak and raise the
same error at the same buffer as allocating each buffer and freeing
them all would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.errors import DeviceOOMError, MemoryPressureError

GRANULARITY = 512


@dataclass(frozen=True)
class Buffer:
    """Handle to one live allocation."""

    handle: int
    size: int
    rounded_size: int
    tag: str


class OracleAllocator:
    """Live buffers and the peak footprint of one device."""

    def __init__(self, capacity: int, baseline: int = 0,
                 reserved: int = 0):
        self.capacity = capacity
        self.reserved = reserved
        self.in_use = baseline
        self.peak = baseline
        self._live: Dict[int, Buffer] = {}
        self._next_handle = 1

    def alloc(self, size: int, tag: str = "") -> Buffer:
        rounded = math.ceil(size / GRANULARITY) * GRANULARITY
        if self.in_use + rounded > self.capacity:
            raise DeviceOOMError(rounded, self.in_use, self.capacity)
        if self.reserved and \
                self.in_use + rounded > self.capacity - self.reserved:
            raise MemoryPressureError(rounded, self.in_use, self.capacity,
                                      self.reserved)
        buf = Buffer(self._next_handle, size, rounded, tag)
        self._next_handle += 1
        self._live[buf.handle] = buf
        self.in_use += rounded
        self.peak = max(self.peak, self.in_use)
        return buf

    def free(self, buf: Buffer) -> None:
        self.in_use -= self._live.pop(buf.handle).rounded_size


def episode(plan: Iterable[Tuple[str, int]], capacity: int,
            baseline: int = 0, reserved: int = 0
            ) -> Tuple[int, int, Optional[DeviceOOMError]]:
    """Allocate every buffer of ``plan`` (sizes <= 0 skipped), stopping
    at the first error, then free whatever was allocated.

    Returns ``(peak, in_use afterwards, error or None)``.
    """
    oracle = OracleAllocator(capacity, baseline, reserved)
    buffers = []
    error = None
    try:
        for tag, size in plan:
            if size > 0:
                buffers.append(oracle.alloc(size, tag))
    except DeviceOOMError as err:
        error = err
    finally:
        for buf in buffers:
            oracle.free(buf)
    return oracle.peak, oracle.in_use, error


def error_fields(error: Optional[BaseException]):
    """An error's type and fields, comparable across two runs."""
    return None if error is None else (type(error), vars(error))
