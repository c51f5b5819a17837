"""CPU <-> GPU data-transfer model (PCIe).

Section V-D of the paper measures the share of total runtime each
implementation spends moving data across the PCIe bus and lists the
three standard mitigations its summary recommends: pinned host memory,
asynchronous (overlapped) transfers, and batching many small copies
into large ones.  All three are mechanically represented here:

* pinned vs pageable memory select different sustained bandwidths;
* each copy pays a fixed bus/driver latency, so many small transfers
  are slower than one large one;
* asynchronous copies overlap compute, and
  :func:`exposed_transfer_time` charges only the non-hidden remainder
  in closed form.  A discrete-event two-stream simulation in the test
  suite cross-checks that formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List

from ..obs.hist import ordered_sum
from .device import DeviceSpec


class TransferKind(Enum):
    """Direction of a PCIe copy."""

    H2D = "host-to-device"
    D2H = "device-to-host"


@dataclass(frozen=True)
class TransferRecord:
    """One completed copy."""

    kind: TransferKind
    bytes: int
    pinned: bool
    async_: bool
    time_s: float


class TransferEngine:
    """Times PCIe copies and accumulates per-direction statistics."""

    def __init__(self, device: DeviceSpec):
        self.device = device
        self.records: List[TransferRecord] = []

    def copy_time(self, nbytes: int, pinned: bool = False,
                  chunks: int = 1) -> float:
        """Wall time of copying ``nbytes``, split into ``chunks``
        equal transfers (each paying the per-transfer latency)."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        if chunks <= 0:
            raise ValueError(f"chunks must be positive, got {chunks}")
        if nbytes == 0:
            return 0.0
        bw = (self.device.pcie_pinned_bandwidth if pinned
              else self.device.pcie_pageable_bandwidth)
        return chunks * self.device.pcie_latency_s + nbytes / bw

    def copy(self, kind: TransferKind, nbytes: int, pinned: bool = False,
             async_: bool = False, chunks: int = 1) -> TransferRecord:
        """Record a copy and return its record."""
        t = self.copy_time(nbytes, pinned=pinned, chunks=chunks)
        rec = TransferRecord(kind=kind, bytes=nbytes, pinned=pinned,
                             async_=async_, time_s=t)
        self.records.append(rec)
        return rec

    # -- statistics ------------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        return sum(r.bytes for r in self.records)

    @property
    def total_time(self) -> float:
        return ordered_sum(r.time_s for r in self.records)

    def synchronous_time(self) -> float:
        """Time of copies that block the compute stream."""
        return ordered_sum(r.time_s for r in self.records if not r.async_)

    def asynchronous_time(self) -> float:
        return ordered_sum(r.time_s for r in self.records if r.async_)

    def reset(self) -> None:
        self.records.clear()


def exposed_transfer_time(sync_time: float, async_time: float,
                          compute_time: float, overlap_efficiency: float = 0.95) -> float:
    """Transfer time that actually extends the iteration.

    Synchronous copies are fully exposed.  Asynchronous copies hide
    behind compute up to ``overlap_efficiency`` of the compute time
    (double buffering is never perfect: the first iteration's prologue
    and stream-synchronisation points leak a little).
    """
    if sync_time < 0 or async_time < 0 or compute_time < 0:
        raise ValueError("times must be non-negative")
    if not (0.0 <= overlap_efficiency <= 1.0):
        raise ValueError("overlap_efficiency must be in [0,1]")
    hidden = min(async_time, compute_time * overlap_efficiency)
    return sync_time + (async_time - hidden)
