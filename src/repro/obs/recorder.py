"""Flight recorder: bounded telemetry rings and incident bundles.

Post-mortems of a chaos run currently mean re-running it with full
tracing and digging through the whole timeline.  A
:class:`FlightRecorder` keeps just enough recent context per replica —
a ring of the last N window snapshots and, on demand, the tail of the
replica's span stream — to dump a *self-contained incident bundle*
the moment something goes wrong: an alert fires, the health plane
evicts a replica, or an SLO violation edge triggers.

A bundle is one sorted-key JSON document holding the trigger, the
recent windows (with their alert state stamped in), the span tail,
and a scorecard slice, so it can be read — or diffed against another
run's bundle — without any other artifact.  Everything is
deterministic: same seed, same incidents, byte-identical bundles.

When the source tracer is a :class:`~repro.obs.tracer.TraceSampler`
that has dropped units, the bundle is marked ``"spans_partial": true``
and carries the sampler's kept/total counts — sampled span streams
must never masquerade as complete evidence (the windows themselves
are registry-fed and stay exact at any sampling rate).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

#: Number of most-recent span-forest roots walked when capturing a
#: span tail (bounds the capture cost on very long traces).
_TAIL_ROOTS = 8


def span_records(tracer, limit: int) -> List[dict]:
    """The last ``limit`` finished spans of a tracer, as the records
    the JSONL trace exporter writes (depth-first order within the
    captured tail)."""
    if tracer is None or not getattr(tracer, "enabled", False):
        return []
    # Imported here: a fleet run loads this module, and needs the
    # exporter only once an incident fires.
    from .export import span_record

    return [span_record(span) for span in
            tracer.walk(tracer.roots[-_TAIL_ROOTS:])][-limit:]


def sampler_stats(tracer) -> Optional[Dict[str, int]]:
    """``TraceSampler.stats()`` when the tracer samples, else None."""
    stats = getattr(tracer, "stats", None)
    if stats is None:
        return None
    doc = stats()
    if isinstance(doc, dict) and "units_total" in doc:
        return doc
    return None


class FlightRecorder:
    """Bounded ring of recent telemetry for one replica (or a whole
    single-server run).

    Subscribe :meth:`observe_window` to a rollups pipeline; call
    :meth:`bundle` at an incident to freeze the current rings into a
    self-contained document.
    """

    def __init__(self, name: str, tracer=None, ring_windows: int = 64,
                 ring_spans: int = 256):
        self.name = name
        self.tracer = tracer
        self.ring_spans = ring_spans
        self.window_ring: deque = deque(maxlen=ring_windows)

    def observe_window(self, doc: dict) -> None:
        self.window_ring.append(doc)

    def bundle(self, reason: str, t_s: float,
               scorecard: Optional[dict] = None,
               alerts: Optional[List[str]] = None, **context) -> dict:
        """One incident bundle: trigger + recent windows + span tail
        + scorecard slice, ready for :func:`write_incident_bundle`."""
        spans = span_records(self.tracer, self.ring_spans)
        doc = {
            "type": "incident",
            "reason": reason,
            "t_s": t_s,
            "recorder": self.name,
            "context": dict(sorted(context.items())),
            "windows": list(self.window_ring),
            "spans": spans,
        }
        stats = sampler_stats(self.tracer)
        if stats is not None:
            doc["sampler"] = stats
            doc["spans_partial"] = stats["units_kept"] < stats["units_total"]
        else:
            doc["spans_partial"] = False
        if scorecard is not None:
            doc["scorecard"] = scorecard
        if alerts is not None:
            doc["alerts_active"] = list(alerts)
        return doc


def write_incident_bundle(path: str, bundle: dict) -> str:
    """Serialise one bundle (sorted keys — byte-deterministic)."""
    from .export import write_json

    return write_json(path, bundle, indent=1)
