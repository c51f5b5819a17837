"""Memory-footprint timeline of one training iteration.

Fig. 5 reports a single number per configuration — the peak.  This
extension replays each implementation's allocation *sequence* through
the allocation rule (:func:`~repro.gpusim.allocator.replay`), one
buffer at a time, and records the footprint after every event, so
one can see *when* the peak happens (e.g. fbfft's spectra allocations
stacking up before the first FFT, or the unrolling family's column
buffer appearing per pass) and how far below the 12 GB ceiling each
phase sits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..config import ConvConfig
from ..errors import DeviceOOMError
from ..frameworks.base import ConvImplementation
from ..gpusim.allocator import replay
from ..gpusim.device import DeviceSpec, K40C
from .report import table


@dataclass(frozen=True)
class MemoryEvent:
    """Footprint after one allocation."""

    tag: str
    size_bytes: int
    in_use_bytes: int


@dataclass(frozen=True)
class MemoryTimeline:
    """Allocation-ordered footprint trace of one iteration."""

    implementation: str
    config: ConvConfig
    events: List[MemoryEvent]
    peak_bytes: int
    capacity_bytes: int
    oom: bool

    @property
    def headroom_bytes(self) -> int:
        return self.capacity_bytes - self.peak_bytes

    def peak_event(self) -> MemoryEvent:
        if not self.events:
            raise ValueError("timeline has no events")
        return max(self.events, key=lambda e: e.in_use_bytes)

    def render(self) -> str:
        rows = [[e.tag, f"{e.size_bytes / 2**20:.1f}",
                 f"{e.in_use_bytes / 2**20:.1f}"] for e in self.events]
        title = (f"{self.implementation} at {self.config.tuple5}: peak "
                 f"{self.peak_bytes / 2**20:.0f} MB of "
                 f"{self.capacity_bytes / 2**20:.0f} MB"
                 + (" [OOM]" if self.oom else ""))
        return table(["allocation", "size (MB)", "footprint (MB)"], rows,
                     title=title)


def memory_timeline(impl: ConvImplementation, config: ConvConfig,
                    device: DeviceSpec = K40C) -> MemoryTimeline:
    """Replay one implementation's allocations, event by event."""
    impl.check_config(config)
    capacity = device.global_memory_bytes
    in_use = 0
    events: List[MemoryEvent] = []
    oom = False
    for tag, size in impl.memory_plan(config):
        if size <= 0:
            continue
        try:
            in_use = replay(((tag, size),), in_use, capacity)
        except DeviceOOMError:
            oom = True
            events.append(MemoryEvent(tag=f"{tag} (OOM)", size_bytes=size,
                                      in_use_bytes=in_use))
            break
        events.append(MemoryEvent(tag=tag, size_bytes=size,
                                  in_use_bytes=in_use))
    return MemoryTimeline(
        implementation=impl.paper_name,
        config=config,
        events=events,
        peak_bytes=in_use,
        capacity_bytes=capacity,
        oom=oom,
    )


def dominant_allocation(timeline: MemoryTimeline) -> MemoryEvent:
    """The single largest allocation — what to shrink first when a
    configuration does not fit."""
    if not timeline.events:
        raise ValueError("timeline has no events")
    return max(timeline.events, key=lambda e: e.size_bytes)
