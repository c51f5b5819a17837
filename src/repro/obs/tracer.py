"""Simulated-time span tracer.

The paper's evidence is nvprof timelines; this is the serving stack's
equivalent.  A :class:`SimTracer` records *spans* — named, nested
intervals of simulated time read from a clock exposing ``now_s``
(usually a :class:`~repro.gpusim.timing.SimClock`) — plus point-in-time
*span events* (fault injections, sheds, admissions).  One served
request produces one coherent tree: scheduler batch → plan lookup →
advisor ranking → evalcache accesses → dispatch with its gpusim kernel
launches as leaves.

Because time is virtual and the serving loop is single-threaded,
context propagation is a plain span stack: ``tracer.span(...)`` opens
a child of whatever span is currently open.  Everything is
deterministic — same trace, same seed, same span tree, byte for byte.

Disabled observability must cost nothing on the hot path (this repo
targets a single-CPU box), so the :data:`NULL_TRACER` singleton
answers every call with shared no-op objects: no allocation, no
branching at call sites.

Full tracing of a million-request run is expensive in host time and
memory, so :class:`TraceSampler`, a :class:`SimTracer` that records
less, keeps only one in every N *units* (the ``serve.batch`` span and
everything nested under it); spans outside any unit — the run root,
admission events, autoscaler actions — are always kept.  Sampling is
a purely observational change: the metrics registry still counts
every request exactly, and the simulated report is byte-identical to
an untraced run.  Call sites distinguish ``tracer.enabled`` (is this
a real tracer at all — drives span bookkeeping like hit-rate
annotations) from ``tracer.recording`` (are spans being kept *right
now* — drives expensive span synthesis like gpusim kernel leaves).
"""

from __future__ import annotations

from typing import Dict, List, Optional


class SpanEvent:
    """A point-in-time annotation on a span (fault strike, shed,
    admission...)."""

    __slots__ = ("name", "t_s", "attrs")

    def __init__(self, name: str, t_s: float, attrs: Dict[str, object]):
        self.name = name
        self.t_s = t_s
        self.attrs = attrs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SpanEvent({self.name!r}, t={self.t_s:.6f}s)"


class Span:
    """One named interval of simulated time, with children and events.

    Created by :meth:`SimTracer.span` and used as a context manager::

        with tracer.span("serve.batch", cat="serve", fill=3) as sp:
            sp.event("fault.transient", attempt=1)
            sp.annotate(outcome="ok")

    ``start_s``/``end_s`` are read from the tracer's clock on enter /
    exit; ``end_s`` is ``None`` while the span is open.
    """

    __slots__ = ("tracer", "name", "cat", "attrs", "sid", "parent_sid",
                 "start_s", "end_s", "children", "events")

    def __init__(self, tracer: "SimTracer", name: str, cat: str,
                 attrs: Dict[str, object]):
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.attrs = attrs
        self.sid = 0                      # assigned on enter
        self.parent_sid: Optional[int] = None
        self.start_s: float = 0.0
        self.end_s: Optional[float] = None
        self.children: List["Span"] = []
        self.events: List[SpanEvent] = []

    # -- recording ---------------------------------------------------------

    def annotate(self, **attrs) -> "Span":
        """Merge attributes into the span (overwrites same keys)."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs) -> None:
        """Attach a point event at the tracer clock's current time."""
        self.events.append(SpanEvent(name, self.tracer.clock.now_s, attrs))

    @property
    def duration_s(self) -> float:
        """Span length (0.0 while still open)."""
        return 0.0 if self.end_s is None else self.end_s - self.start_s

    @property
    def self_s(self) -> float:
        """Time spent in this span but not in any child."""
        return self.duration_s - sum(c.duration_s for c in self.children)

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "Span":
        self.tracer._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._close(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "open" if self.end_s is None else f"{self.duration_s:.6f}s"
        return f"Span({self.name!r}, cat={self.cat!r}, {state})"


class SimTracer:
    """Span recorder over a simulated clock.

    ``clock`` is anything with a ``now_s`` attribute; the serving
    scheduler passes its :class:`~repro.gpusim.timing.SimClock` so
    spans land on the same timeline the batcher and fault plane run
    on.  Finished top-level spans accumulate in :attr:`roots`.

    ``first_sid`` offsets span ids so several tracers can be merged
    into one export without collisions — the cluster gives each
    replica's tracer its own disjoint sid block.

    A saved JSONL log reloads into the same type
    (:func:`repro.obs.analyze.parse_jsonl`): its spans keep their
    recorded sids, and :attr:`source` names the file.
    """

    enabled = True
    #: Spans opened now will actually be kept (always true for a bare
    #: SimTracer; a :class:`TraceSampler` flips it inside dropped units).
    recording = True
    #: Where the forest came from: a reloaded log's path, or this.
    source = "<tracer>"

    def __init__(self, clock, first_sid: int = 1):
        if first_sid < 1:
            raise ValueError(f"first_sid must be >= 1, got {first_sid}")
        self.clock = clock
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self._next_sid = first_sid
        #: Events recorded while no span was open (kept so nothing is
        #: silently dropped; exported as root-level instants).
        self.orphan_events: List[SpanEvent] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, cat: str = "span", **attrs) -> Span:
        """A new span, opened when entered as a context manager."""
        return Span(self, name, cat, attrs)

    def event(self, name: str, **attrs) -> None:
        """Point event on the currently open span (orphan if none)."""
        ev = SpanEvent(name, self.clock.now_s, attrs)
        if self._stack:
            self._stack[-1].events.append(ev)
        else:
            self.orphan_events.append(ev)

    def add_span(self, name: str, cat: str, start_s: float, end_s: float,
                 **attrs) -> Span:
        """Attach an already-timed span (e.g. a gpusim kernel leaf laid
        out inside a dispatch window) under the current span."""
        if end_s < start_s:
            raise ValueError(f"span ends before it starts: "
                             f"[{start_s}, {end_s}]")
        sp = Span(self, name, cat, attrs)
        sp.sid = self._next_sid
        self._next_sid += 1
        sp.start_s = start_s
        sp.end_s = end_s
        self._attach(sp)
        return sp

    # -- queries -----------------------------------------------------------

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    def span_count(self) -> int:
        """Total finished spans across all roots."""
        return sum(1 for _ in self.walk())

    def walk(self, roots: Optional[List[Span]] = None):
        """Yield every finished span under ``roots`` (default: all of
        them) depth-first, each parent before its children, in order.
        An explicit stack, not recursion, so any nesting depth walks."""
        stack = list(reversed(self.roots if roots is None else roots))
        while stack:
            span = stack.pop()
            yield span
            if span.children:
                stack.extend(reversed(span.children))

    def find(self, name: str) -> List[Span]:
        """All finished spans with this name, depth-first order."""
        return [s for s in self.walk() if s.name == name]

    # -- internals ---------------------------------------------------------

    def _open(self, span: Span) -> None:
        span.sid = self._next_sid
        self._next_sid += 1
        span.start_s = self.clock.now_s
        if self._stack:
            span.parent_sid = self._stack[-1].sid
        self._stack.append(span)

    def _close(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._stack.pop()
        span.end_s = self.clock.now_s
        self._attach(span)

    def _attach(self, span: Span) -> None:
        if self._stack:
            span.parent_sid = self._stack[-1].sid
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)


class _NullSpan:
    """Shared do-nothing span: every method returns instantly."""

    __slots__ = ()
    name = ""
    cat = ""
    start_s = 0.0
    end_s = 0.0
    duration_s = 0.0

    def annotate(self, **attrs) -> "_NullSpan":
        return self

    def event(self, name: str, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every call is a no-op on shared objects.

    Kept deliberately allocation-free so instrumentation can stay
    unconditional at call sites — ``with tracer.span(...)`` costs two
    method calls and nothing else when tracing is off.
    """

    __slots__ = ()
    enabled = False
    recording = False
    roots: List[Span] = []
    orphan_events: List[SpanEvent] = []

    def span(self, name: str, cat: str = "span", **attrs) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs) -> None:
        pass

    def add_span(self, name: str, cat: str, start_s: float, end_s: float,
                 **attrs) -> _NullSpan:
        return _NULL_SPAN

    @property
    def current(self) -> None:
        return None

    def span_count(self) -> int:
        return 0

    def walk(self, roots=None):
        return iter(())

    def find(self, name: str) -> List[Span]:
        return []


#: Process-wide disabled tracer (the default everywhere).
NULL_TRACER = NullTracer()


class _GateSpan:
    """Stands in for a dropped unit's root span: records nothing, but
    suppresses the sampler for exactly the unit's dynamic extent."""

    __slots__ = ("_sampler",)
    name = ""
    cat = ""
    start_s = 0.0
    end_s = 0.0
    duration_s = 0.0

    def __init__(self, sampler: "TraceSampler"):
        self._sampler = sampler

    def annotate(self, **attrs) -> "_GateSpan":
        return self

    def event(self, name: str, **attrs) -> None:
        pass

    def __enter__(self) -> "_GateSpan":
        self._sampler._suppressed += 1
        return self

    def __exit__(self, *exc) -> None:
        self._sampler._suppressed -= 1


class TraceSampler(SimTracer):
    """1-in-N unit sampling: a :class:`SimTracer` that records less.

    A *unit* is one span tree rooted at ``unit`` (``serve.batch`` by
    default — one dynamic batch with its plan lookup, dispatch and
    kernel leaves).  The sampler keeps the first unit and every
    ``every``-th after it, deterministically by unit count (no RNG, so
    same-seed runs still produce byte-identical sampled traces), and
    suppresses everything nested inside a dropped unit.  Spans and
    events *outside* any unit are always recorded, so the run root,
    admission/shed events and fault census survive any sampling rate.

    Only the trace thins out: the metrics registry is untouched, every
    counter stays exact, and the simulated report is unchanged (the
    scheduler's byte-identity invariant).  Only recording is
    overridden, so exports and analytics read a sampler as they read
    any tracer.
    """

    def __init__(self, clock, every: int, unit: str = "serve.batch",
                 first_sid: int = 1):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        super().__init__(clock, first_sid)
        self.every = every
        self.unit = unit
        #: Units seen / units whose span tree was kept.
        self.units_total = 0
        self.units_kept = 0
        self._suppressed = 0

    @property
    def recording(self) -> bool:
        """False inside a dropped unit (call sites skip span synthesis
        there)."""
        return self._suppressed == 0

    def span(self, name: str, cat: str = "span", **attrs):
        if self._suppressed:
            return _NULL_SPAN
        if name == self.unit:
            self.units_total += 1
            if (self.units_total - 1) % self.every:
                return _GateSpan(self)
            self.units_kept += 1
        return super().span(name, cat, **attrs)

    def event(self, name: str, **attrs) -> None:
        if not self._suppressed:
            super().event(name, **attrs)

    def add_span(self, name: str, cat: str, start_s: float, end_s: float,
                 **attrs):
        if self._suppressed:
            return _NULL_SPAN
        return super().add_span(name, cat, start_s, end_s, **attrs)

    def stats(self) -> Dict[str, int]:
        return {"units_total": self.units_total,
                "units_kept": self.units_kept,
                "every": self.every}
