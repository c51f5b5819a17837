"""Discrete-event oracle for the closed-form copy/compute overlap.

``ConvImplementation.profile_iteration`` charges transfers with
:func:`repro.gpusim.transfer.exposed_transfer_time`, a closed form.
This module cross-checks that formula by *simulating* several training
iterations on a two-stream timeline — kernels serialised on the
compute stream, copies on the copy engine, prefetching implementations
issuing iteration *i+1*'s input copy while iteration *i* computes,
synchronous implementations blocking compute on the copy event — and
measuring the steady-state iteration time that emerges.

The stream model is CUDA-style: operations enqueued on different
streams overlap, operations on one stream serialise, and events let a
stream wait on another — enough for the overlap tricks the paper
discusses (Caffe's data prefetching thread, cuDNN's async workspace
staging), without simulating the CUDA driver.

``test_timeline.py`` asserts the two models agree, which is what
licenses the cheap formula in the model; ``tests/gpusim/test_stream.py``
pins the stream semantics themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.config import ConvConfig
from repro.frameworks.base import ConvImplementation
from repro.gpusim.device import DeviceSpec, K40C
from repro.gpusim.profiler import Profiler
from repro.gpusim.transfer import TransferEngine


# ---------------------------------------------------------------------------
# streams and events
# ---------------------------------------------------------------------------

@dataclass
class _Op:
    stream: str
    label: str
    start: float
    end: float


class Stream:
    """One in-order execution queue."""

    def __init__(self, timeline: "Timeline", name: str):
        self._timeline = timeline
        self.name = name
        self._front = 0.0  # completion time of the last enqueued op

    @property
    def front(self) -> float:
        """Time at which the next enqueued op may start."""
        return self._front

    def enqueue(self, duration: float, label: str = "",
                not_before: float = 0.0) -> "Event":
        """Append an operation of ``duration`` seconds; it starts when
        the stream is free and ``not_before`` has passed."""
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        start = max(self._front, not_before)
        end = start + duration
        self._front = end
        self._timeline._ops.append(_Op(self.name, label, start, end))
        return Event(end)

    def wait(self, event: "Event") -> None:
        """Make subsequent ops on this stream start no earlier than the
        event (cudaStreamWaitEvent)."""
        self._front = max(self._front, event.time)


@dataclass(frozen=True)
class Event:
    """Completion marker of an enqueued operation."""

    time: float


class Timeline:
    """A set of streams sharing one clock."""

    def __init__(self) -> None:
        self._streams: Dict[str, Stream] = {}
        self._ops: List[_Op] = []

    def stream(self, name: str) -> Stream:
        """Get or create the named stream."""
        if name not in self._streams:
            self._streams[name] = Stream(self, name)
        return self._streams[name]

    @property
    def makespan(self) -> float:
        """Completion time of the last operation on any stream."""
        return max((op.end for op in self._ops), default=0.0)

    def busy_time(self, stream: str) -> float:
        """Total busy duration of one stream."""
        return sum(op.end - op.start for op in self._ops if op.stream == stream)

    def ops(self) -> List[_Op]:
        return list(self._ops)


# ---------------------------------------------------------------------------
# training iterations on two streams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimelineProfile:
    """Steady-state behaviour measured from the event simulation."""

    implementation: str
    config: ConvConfig
    timeline: Timeline
    iterations: int
    #: Wall time of the whole simulated run.
    makespan_s: float
    #: Steady-state time per iteration (excludes the pipeline fill).
    iteration_time_s: float
    #: Compute-stream busy time per iteration.
    compute_time_s: float

    @property
    def exposed_transfer_s(self) -> float:
        """Per-iteration time not covered by kernel execution."""
        return max(self.iteration_time_s - self.compute_time_s, 0.0)

    @property
    def transfer_fraction(self) -> float:
        if self.iteration_time_s <= 0:
            return 0.0
        return self.exposed_transfer_s / self.iteration_time_s


def iteration_timeline(impl: ConvImplementation, config: ConvConfig,
                       iterations: int = 4,
                       device: DeviceSpec = K40C) -> TimelineProfile:
    """Simulate ``iterations`` training iterations on two streams."""
    if iterations < 2:
        raise ValueError(
            f"need >= 2 iterations for a steady state, got {iterations}"
        )
    impl.check_config(config)

    # Time the kernels once (they repeat identically per iteration).
    prof = Profiler(device)
    kernel_times = [prof.launch(spec).time_s
                    for spec in impl.kernel_plan(config)]
    engine = TransferEngine(device)
    ops = [(op, engine.copy_time(op.bytes, pinned=op.pinned,
                                 chunks=op.chunks))
           for op in impl.transfer_ops(config)]

    tl = Timeline()
    compute = tl.stream("compute")
    copy = tl.stream("copy")

    iter_end_times: List[float] = []
    # Async prefetchers issue the first copy before compute starts.
    prefetch_ready: Event = Event(0.0)
    for op, t in ops:
        if op.async_:
            prefetch_ready = copy.enqueue(t, f"{op.label} (prefetch 0)")

    for it in range(iterations):
        # Synchronous copies of this iteration block the compute
        # stream; asynchronous ones were prefetched during the
        # previous iteration.
        gate = prefetch_ready
        for op, t in ops:
            if not op.async_:
                gate = copy.enqueue(t, f"{op.label} (iter {it})",
                                    not_before=compute.front)
        compute.wait(gate)
        end: Event = Event(compute.front)
        for j, kt in enumerate(kernel_times):
            end = compute.enqueue(kt, f"kernel{j} (iter {it})")
        # Prefetch the next iteration's async copies during compute.
        for op, t in ops:
            if op.async_:
                prefetch_ready = copy.enqueue(
                    t, f"{op.label} (prefetch {it + 1})")
        iter_end_times.append(end.time)

    # Steady state: difference of the last two iteration boundaries.
    steady = iter_end_times[-1] - iter_end_times[-2]
    compute_per_iter = sum(kernel_times)
    return TimelineProfile(
        implementation=impl.paper_name,
        config=config,
        timeline=tl,
        iterations=iterations,
        makespan_s=tl.makespan,
        iteration_time_s=steady,
        compute_time_s=compute_per_iter,
    )
