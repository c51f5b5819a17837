"""Shared-memory bank-conflict model.

Shared memory on Kepler is divided into 32 banks of 4-byte words.
When several lanes of a warp access *different words in the same
bank*, the accesses serialise — an *n*-way bank conflict takes *n*
shared-memory cycles.  Accesses to the *same* word broadcast for free.

nvprof's ``shared_efficiency`` metric is the ratio of requested to
required shared throughput; with 8-byte (or wider) accesses in 64-bit
bank mode a warp can beat the nominal 100 % (the paper observes cuDNN
above 130 %), and heavy conflicts drive it far down (Theano-fft's
8–20 %, the bottleneck section V-C-3 analyses).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .device import DeviceSpec


@dataclass(frozen=True)
class SharedAccess:
    """One warp-wide shared memory access pattern.

    ``stride_words`` is the distance between consecutive lanes'
    addresses in *elements* (units of ``word_bytes``): 1 = contiguous,
    0 = broadcast, larger = strided.  ``word_bytes`` is the access
    width per lane (4, 8 or 16; 8-byte-and-wider accesses use Kepler's
    64-bit bank mode).
    """

    stride_words: int = 1
    word_bytes: int = 4
    active_lanes: int = 32

    def __post_init__(self) -> None:
        if self.stride_words < 0:
            raise ValueError(f"stride_words must be >= 0, got {self.stride_words}")
        if self.word_bytes not in (4, 8, 16):
            raise ValueError(f"word_bytes must be 4/8/16, got {self.word_bytes}")
        if not (1 <= self.active_lanes <= 32):
            raise ValueError(f"active_lanes must be in [1,32], got {self.active_lanes}")


def conflict_degree(device: DeviceSpec, access: SharedAccess) -> int:
    """Maximum number of distinct words mapping to one bank.

    This is the serialisation factor of the access: 1 means
    conflict-free, *n* means the access replays *n* times.  Broadcasts
    (several lanes reading the *same* word) do not conflict.
    """
    banks = device.shared_banks
    # Bank granularity: 4 bytes nominally, 8 bytes in 64-bit mode
    # (selected automatically for wide accesses on Kepler).
    unit = 8 if access.word_bytes >= 8 else device.bank_width_bytes
    phases = max(1, access.word_bytes // unit)
    worst = 1
    for phase in range(phases):
        per_bank: dict = {}
        for lane in range(access.active_lanes):
            byte_addr = (lane * access.stride_words * access.word_bytes
                         + phase * unit)
            u = byte_addr // unit
            bank = u % banks
            per_bank.setdefault(bank, set()).add(u)
        worst = max(worst, max((len(w) for w in per_bank.values()), default=1))
    return worst


def conflict_free_stride(device: DeviceSpec, stride_words: int) -> bool:
    """True when a 4-byte access with this stride has no conflicts —
    i.e. the stride is odd (coprime with the 32 banks) or a broadcast."""
    if stride_words == 0:
        return True
    return math.gcd(stride_words, device.shared_banks) == 1


def shared_efficiency(device: DeviceSpec, accesses: Sequence[SharedAccess]) -> float:
    """Aggregate nvprof-style shared efficiency over a kernel's
    characteristic accesses.

    Each access contributes ``(requested bytes) / (cycles * bank
    throughput)``.  Wide conflict-free accesses exceed 1.0 (up to 2.0
    in 64-bit mode), reproducing cuDNN's >100 % readings.
    """
    if not accesses:
        return 1.0
    total_requested = 0.0
    total_required = 0.0
    # nvprof normalises "required" throughput against the nominal
    # 32-bit bank width; in 64-bit bank mode a conflict-free wide
    # access moves 8 bytes/bank/cycle, which is how kernels built on
    # float2/float4 shared tiles (cuDNN) exceed 100 %.
    nominal_bytes_per_cycle = device.shared_banks * device.bank_width_bytes
    for acc in accesses:
        requested = acc.active_lanes * acc.word_bytes
        degree = conflict_degree(device, acc)
        cycles = degree * max(1, acc.word_bytes // 8)
        total_requested += requested
        total_required += cycles * nominal_bytes_per_cycle
    return total_requested / total_required


def padded_stride(stride_words: int) -> int:
    """The classic bank-conflict fix the paper's summary recommends:
    pad the leading dimension by one word to make the stride odd."""
    return stride_words + 1 if stride_words % 2 == 0 else stride_words
