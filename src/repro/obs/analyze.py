"""Trace analytics: critical paths, self-time, hotspot attribution.

The source paper's figures are not timelines — they are conclusions
*derived from* timelines (runtime shares per kernel group, crossover
points, transfer fractions).  This module is the same derivation step
for the repo's own traces: it consumes the span forest of a
:class:`~repro.obs.tracer.SimTracer` — live, or reloaded by
:func:`load_jsonl` from the JSONL event log
:func:`~repro.obs.export.write_jsonl` wrote, so analysis works offline
on saved artifacts — and, in one walk of that forest, produces:

* the **critical path** per root span: the longest serial descent,
  each step with its self-time (the nvprof "where did the time go"
  question, answered per request instead of per process);
* **self-time vs child-time aggregates** per span kind, so scheduler
  overhead is separable from the kernel time it encloses;
* a **Fig-4-style hotspot table**: gpusim kernel leaves grouped by
  role (GEMM / im2col / FFT / transpose / ...) per implementation,
  cross-checked against the paper pipeline's canonical role taxonomy
  in :mod:`repro.core.hotspot_kernels`;
* a **fault census**: injected-fault events and the simulated time
  attributable to them (ECC replay cost, backoff, straggler drag) —
  the quantity :mod:`repro.obs.diff` uses to explain run-to-run
  regressions.

Everything here is a pure function of the trace: same JSONL in,
byte-identical report out, asserted by ``tests/obs/test_analyze.py``
and the ``trace-smoke`` CI gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import TraceSchemaError
from .export import SUPPORTED_SCHEMA_VERSIONS
from .tracer import SimTracer, Span, SpanEvent

#: Span names whose attrs identify the implementation running beneath
#: them (dispatch spans); kernel leaves inherit this label.
_IMPL_ATTR = "implementation"


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

_NUMBER = (int, float)
_OR_NULL = type(None)

#: Field -> types of each JSONL record type, as
#: :func:`~repro.obs.export.jsonl_lines` writes them.
_RECORD_FIELDS = {
    "span": {"sid": int, "parent": (int, _OR_NULL), "name": str,
             "cat": str, "start_s": _NUMBER, "end_s": _NUMBER,
             "attrs": (dict, _OR_NULL)},
    "event": {"name": str, "t_s": _NUMBER, "span": (int, _OR_NULL),
              "attrs": (dict, _OR_NULL)},
}
#: Fields a record may leave out (read as null).
_OPTIONAL_FIELDS = ("span", "attrs")


def _fields(rec: dict, where: str) -> dict:
    """``rec``'s fields, each checked against :data:`_RECORD_FIELDS`
    (a bool is not a number); raises :class:`TraceSchemaError` at
    ``where`` (``file:line``) on the first bad one."""
    kind = rec["type"]
    out = {}
    for name, types in _RECORD_FIELDS[kind].items():
        if name not in rec and name not in _OPTIONAL_FIELDS:
            raise TraceSchemaError(f"{where}: {kind} record missing {name!r}")
        value = out[name] = rec.get(name)
        if isinstance(value, bool) or not isinstance(value, types):
            raise TraceSchemaError(
                f"{where}: {kind} field {name!r} has the wrong type: "
                f"{value!r}")
    return out


def parse_jsonl(lines: Sequence[str], source: str = "<memory>") -> SimTracer:
    """Rebuild a tracer's span forest from JSONL event-log lines.

    Each span keeps its recorded sid and parent, and the tracer's
    :attr:`~repro.obs.tracer.SimTracer.source` is ``source``; its clock
    is ``None``, since a reloaded trace is read, not recorded into.

    The first record may be a ``header`` carrying ``schema_version``
    (logs written before versioning are treated as version 1); an
    unknown version raises :class:`~repro.errors.TraceSchemaError`
    rather than silently misreading the log.  So do a record whose
    fields have the wrong types, an event on an unknown span, and a
    span that no root reaches (its parent chain loops), each naming
    ``source:line``.
    """
    records = []
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise TraceSchemaError(
                f"{source}:{i + 1}: not valid JSON: {exc}") from exc
        if not isinstance(rec, dict) or "type" not in rec:
            raise TraceSchemaError(
                f"{source}:{i + 1}: record has no 'type' field")
        records.append((i + 1, rec))
    if records and records[0][1]["type"] == "header":
        version = records.pop(0)[1].get("schema_version")
        if version not in SUPPORTED_SCHEMA_VERSIONS:
            raise TraceSchemaError(
                f"{source}: unsupported trace schema_version {version!r} "
                f"(supported: {list(SUPPORTED_SCHEMA_VERSIONS)})")

    tracer = SimTracer(clock=None)
    tracer.source = source
    nodes: Dict[int, Span] = {}
    order: List[Tuple[int, Span]] = []
    pending_events: List[Tuple[int, int, SpanEvent]] = []
    for lineno, rec in records:
        kind = rec["type"]
        if kind == "span":
            f = _fields(rec, f"{source}:{lineno}")
            span = Span(tracer, f["name"], f["cat"], dict(f["attrs"] or {}))
            span.sid, span.parent_sid = f["sid"], f["parent"]
            span.start_s, span.end_s = f["start_s"], f["end_s"]
            if span.sid in nodes:
                raise TraceSchemaError(
                    f"{source}:{lineno}: duplicate span sid {span.sid}")
            nodes[span.sid] = span
            order.append((lineno, span))
        elif kind == "event":
            f = _fields(rec, f"{source}:{lineno}")
            ev = SpanEvent(f["name"], f["t_s"], dict(f["attrs"] or {}))
            if f["span"] is None:
                tracer.orphan_events.append(ev)
            else:
                pending_events.append((lineno, f["span"], ev))
        elif kind == "header":
            raise TraceSchemaError(
                f"{source}:{lineno}: header must be the first record")
        else:
            raise TraceSchemaError(
                f"{source}:{lineno}: unknown record type {kind!r}")
    for _, span in order:
        parent = nodes.get(span.parent_sid)
        (tracer.roots if parent is None else parent.children).append(span)
    reached = {span.sid for span in tracer.walk()}
    for lineno, span in order:
        if span.sid not in reached:
            raise TraceSchemaError(
                f"{source}:{lineno}: span {span.sid} is reached from no "
                f"root (its parent chain loops)")
    for lineno, sid, ev in pending_events:
        span = nodes.get(sid)
        if span is None:
            raise TraceSchemaError(
                f"{source}:{lineno}: event references unknown span {sid}")
        span.events.append(ev)
    return tracer


def load_jsonl(path: str) -> SimTracer:
    """Load a saved JSONL event log (``repro trace --out x.jsonl``)."""
    with open(path) as fh:
        return parse_jsonl(fh.readlines(), source=path)


# ---------------------------------------------------------------------------
# critical path
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathStep:
    """One hop of a critical path."""

    name: str
    cat: str
    depth: int
    duration_s: float
    self_s: float


def critical_path(root: Span) -> List[PathStep]:
    """The longest serial descent from ``root``.

    At each level the child with the largest duration is followed
    (earliest start breaks ties, deterministically), mirroring how one
    reads an nvprof timeline: start at the request, keep descending
    into whatever dominated it.
    """
    steps: List[PathStep] = []
    node: Optional[Span] = root
    depth = 0
    while node is not None:
        steps.append(PathStep(name=node.name, cat=node.cat, depth=depth,
                              duration_s=node.duration_s,
                              self_s=node.self_s))
        node = max(node.children,
                   key=lambda c: (c.duration_s, -c.start_s),
                   default=None)
        depth += 1
    return steps


# ---------------------------------------------------------------------------
# aggregates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpanStat:
    """Per-span-kind totals across one run."""

    name: str
    cat: str
    count: int
    total_s: float
    self_s: float

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


@dataclass(frozen=True)
class PathStat:
    """Totals of one span path (see :attr:`TraceAnalysis.paths`)."""

    count: int
    total_s: float
    self_s: float


def span_aggregates(tracer: SimTracer) -> List[SpanStat]:
    """Self-time vs total-time per ``(name, cat)``, longest first."""
    return list(analyze_run(tracer).aggregates)


# ---------------------------------------------------------------------------
# hotspot attribution (Fig. 4 over a trace)
# ---------------------------------------------------------------------------

def hotspot_table(tracer: SimTracer) -> Dict[str, Dict[str, float]]:
    """GPU-leaf time per implementation per kernel role.

    Each gpusim leaf is attributed to the innermost ``implementation``
    attribute above it (set by dispatch spans), i.e. the
    implementation that launched it.  Leaves outside any dispatch land
    under ``"(unattributed)"``.
    """
    return analyze_run(tracer).hotspots


def hotspot_shares(table: Dict[str, Dict[str, float]]
                   ) -> Dict[str, Dict[str, float]]:
    """Per-implementation role shares (each implementation sums to 1)."""
    shares: Dict[str, Dict[str, float]] = {}
    for impl, roles in table.items():
        total = sum(roles.values())
        if total > 0:
            shares[impl] = {role: t / total for role, t in roles.items()}
    return shares


def reconcile_hotspots(table: Dict[str, Dict[str, float]]) -> dict:
    """Cross-check trace-derived roles against the paper pipeline.

    The serving trace's kernel leaves and Fig. 4's breakdown both come
    from the same kernel plans, so every role observed in a trace must
    be a member of the canonical taxonomy
    (:data:`repro.core.hotspot_kernels.CANONICAL_ROLES`); an unknown
    role means the two pipelines have drifted apart.
    """
    from ..core.hotspot_kernels import CANONICAL_ROLES

    known = set(CANONICAL_ROLES)
    unknown = sorted({role for roles in table.values()
                      for role in roles} - known)
    return {
        "taxonomy_ok": not unknown,
        "unknown_roles": unknown,
        "canonical_roles": list(CANONICAL_ROLES),
    }


# ---------------------------------------------------------------------------
# fault census
# ---------------------------------------------------------------------------

def fault_census(tracer: SimTracer) -> Tuple[Dict[str, int], float]:
    """Event counts by name, plus simulated seconds attributable to
    fault handling: ECC replay costs, retry backoff, and straggler
    drag (the slowdown-inflated fraction of each hit dispatch)."""
    analysis = analyze_run(tracer)
    return analysis.events, analysis.fault_time_s


def _fault_cost(ev: SpanEvent, span: Span) -> Optional[float]:
    """Simulated seconds one event's fault handling cost, or None."""
    if ev.name == "fault.transient":
        return float(ev.attrs.get("retry_cost_s", 0.0))
    if ev.name == "retry.backoff":
        return float(ev.attrs.get("backoff_s", 0.0))
    if ev.name == "fault.straggler":
        slowdown = float(ev.attrs.get("slowdown", 1.0))
        if slowdown > 1.0:
            return span.duration_s * (1.0 - 1.0 / slowdown)
    return None


# ---------------------------------------------------------------------------
# the full analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceAnalysis:
    """Everything ``repro analyze`` derives from one trace."""

    source: str
    span_count: int
    duration_s: float
    aggregates: Tuple[SpanStat, ...]
    critical: Tuple[PathStep, ...]
    hotspots: Dict[str, Dict[str, float]]       # impl -> role -> seconds
    shares: Dict[str, Dict[str, float]]         # impl -> role -> fraction
    reconciliation: dict
    events: Dict[str, int]
    fault_time_s: float
    plan_lookups: Dict[str, int]                # hits / misses
    batches: Dict[str, float]                   # count / mean_batch / mean_fill
    # What :mod:`repro.obs.diff` aligns two runs by; not printed.
    paths: Dict[str, PathStat]                  # span path -> totals
    launches: Dict[str, Dict[str, int]]         # impl -> role -> leaves
    arrivals: int                               # summed over the roots

    def to_dict(self) -> dict:
        """JSON-ready, deterministically ordered form."""
        return {
            "source": self.source,
            "span_count": self.span_count,
            "duration_s": self.duration_s,
            "aggregates": [
                {"name": a.name, "cat": a.cat, "count": a.count,
                 "total_s": a.total_s, "self_s": a.self_s,
                 "mean_s": a.mean_s}
                for a in self.aggregates],
            "critical_path": [
                {"name": p.name, "cat": p.cat, "depth": p.depth,
                 "duration_s": p.duration_s, "self_s": p.self_s}
                for p in self.critical],
            "hotspots_s": {impl: dict(sorted(roles.items()))
                           for impl, roles in sorted(self.hotspots.items())},
            "hotspot_shares": {impl: dict(sorted(roles.items()))
                               for impl, roles in sorted(self.shares.items())},
            "reconciliation": self.reconciliation,
            "events": dict(sorted(self.events.items())),
            "fault_time_s": self.fault_time_s,
            "plan_lookups": dict(sorted(self.plan_lookups.items())),
            "batches": dict(sorted(self.batches.items())),
        }

    def render(self, top: int = 10) -> str:
        """Human form: aggregates table, critical path, hotspots."""
        from ..core.report import table as text_table

        lines = [f"trace: {self.source}",
                 f"spans: {self.span_count}   "
                 f"simulated duration: {self.duration_s * 1000:.3f} ms"]
        rows = [[a.name, a.cat, str(a.count),
                 f"{a.total_s * 1000:.3f}", f"{a.self_s * 1000:.3f}",
                 f"{a.mean_s * 1000:.4f}"]
                for a in self.aggregates[:top]]
        lines.append("")
        lines.append(text_table(
            ["span", "cat", "count", "total (ms)", "self (ms)", "mean (ms)"],
            rows, title=f"span aggregates (top {min(top, len(self.aggregates))})"))
        lines.append("")
        lines.append("critical path (longest serial descent):")
        for p in self.critical:
            lines.append(f"  {'  ' * p.depth}{p.name:24s} "
                         f"{p.duration_s * 1000:9.3f} ms  "
                         f"(self {p.self_s * 1000:.3f} ms)")
        if self.shares:
            lines.append("")
            lines.append("hotspot roles per implementation (Fig. 4 view):")
            for impl in sorted(self.shares):
                parts = ", ".join(
                    f"{role} {share * 100:.1f}%"
                    for role, share in sorted(self.shares[impl].items(),
                                              key=lambda kv: (-kv[1], kv[0])))
                lines.append(f"  {impl:16s} {parts}")
            if not self.reconciliation["taxonomy_ok"]:
                lines.append("  WARNING: unknown roles "
                             f"{self.reconciliation['unknown_roles']}")
        if self.plan_lookups:
            lines.append("")
            lines.append(f"plan lookups          "
                         f"{self.plan_lookups.get('hits', 0)} hits / "
                         f"{self.plan_lookups.get('misses', 0)} misses")
        if self.batches.get("count"):
            lines.append(f"batches               {int(self.batches['count'])} "
                         f"(mean size {self.batches['mean_batch']:.2f}, "
                         f"mean fill {self.batches['mean_fill']:.2f})")
        if self.events:
            lines.append("")
            lines.append("events                " + " ".join(
                f"{name}:{count}"
                for name, count in sorted(self.events.items())))
        if self.fault_time_s:
            lines.append(f"fault-attributed time {self.fault_time_s * 1000:.3f} ms")
        return "\n".join(lines)


def analyze_run(tracer: SimTracer) -> TraceAnalysis:
    """Derive the full analysis from one live or reloaded tracer, in
    one walk of its span forest."""
    aggregates: Dict[Tuple[str, str], List[float]] = {}
    paths: Dict[str, List[float]] = {}
    hotspots: Dict[str, Dict[str, float]] = {}
    launches: Dict[str, Dict[str, int]] = {}
    events: Dict[str, int] = {}
    fault_time = 0.0
    plans = hits = 0
    sizes: List[float] = []
    fills: List[float] = []
    span_count = 0
    #: sid -> (span path, innermost implementation) of each parent.
    context: Dict[int, Tuple[str, str]] = {}
    for span in tracer.walk():
        span_count += 1
        prefix, impl = context.get(span.parent_sid, ("", "(unattributed)"))
        label = span.attrs.get(_IMPL_ATTR)
        label = span.name if label is None else f"{span.name}[{label}]"
        path = f"{prefix}/{label}" if prefix else label
        impl = str(span.attrs.get(_IMPL_ATTR, impl))
        if span.children:
            context[span.sid] = (path, impl)
        duration, self_s = span.duration_s, span.self_s
        for row in (aggregates.setdefault((span.name, span.cat),
                                          [0, 0.0, 0.0]),
                    paths.setdefault(path, [0, 0.0, 0.0])):
            row[0] += 1
            row[1] += duration
            row[2] += self_s
        if span.cat == "gpu":
            role = str(span.attrs.get("role", "other"))
            roles = hotspots.setdefault(impl, {})
            roles[role] = roles.get(role, 0.0) + duration
            counts = launches.setdefault(impl, {})
            counts[role] = counts.get(role, 0) + 1
        for ev in span.events:
            events[ev.name] = events.get(ev.name, 0) + 1
            cost = _fault_cost(ev, span)
            if cost is not None:
                fault_time += cost
        if span.name == "serve.plan":
            plans += 1
            hits += bool(span.attrs.get("hit"))
        elif span.name == "serve.batch":
            sizes.append(float(span.attrs.get("batch", 0)))
            fills.append(float(span.attrs.get("fill", 0)))
    for ev in tracer.orphan_events:
        events[ev.name] = events.get(ev.name, 0) + 1

    roots = tracer.roots
    stats = [SpanStat(name=name, cat=cat, count=int(c), total_s=t, self_s=s)
             for (name, cat), (c, t, s) in aggregates.items()]
    stats.sort(key=lambda st: (-st.total_s, st.name))
    longest_root = max(roots, key=lambda r: (r.duration_s, -r.start_s),
                       default=None)
    return TraceAnalysis(
        source=tracer.source,
        span_count=span_count,
        duration_s=(max(r.end_s for r in roots)
                    - min(r.start_s for r in roots)) if roots else 0.0,
        aggregates=tuple(stats),
        critical=tuple(critical_path(longest_root))
        if longest_root is not None else (),
        hotspots=hotspots,
        shares=hotspot_shares(hotspots),
        reconciliation=reconcile_hotspots(hotspots),
        events=events,
        fault_time_s=fault_time,
        plan_lookups={"hits": hits, "misses": plans - hits} if plans else {},
        batches={"count": float(len(sizes)),
                 "mean_batch": sum(sizes) / len(sizes) if sizes else 0.0,
                 "mean_fill": sum(fills) / len(fills) if fills else 0.0},
        paths={k: PathStat(int(c), t, s) for k, (c, t, s) in paths.items()},
        launches=launches,
        arrivals=sum(int(r.attrs.get("arrivals", 0)) for r in roots),
    )
