"""Trace analytics: critical paths, self-time, hotspot attribution.

The source paper's figures are not timelines — they are conclusions
*derived from* timelines (runtime shares per kernel group, crossover
points, transfer fractions).  This module is the same derivation step
for the repo's own traces: it consumes a span tree recorded by
:class:`~repro.obs.tracer.SimTracer` — live, or reloaded from the
JSONL event log :func:`~repro.obs.export.write_jsonl` wrote, so
analysis works offline on saved artifacts — and produces:

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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import TraceSchemaError
from .export import SCHEMA_VERSION, SUPPORTED_SCHEMA_VERSIONS
from .tracer import SimTracer

#: Span names whose attrs identify the implementation running beneath
#: them (dispatch spans); kernel leaves inherit this label.
_IMPL_ATTR = "implementation"


@dataclass
class TraceEvent:
    """A point-in-time event reloaded from a trace."""

    name: str
    t_s: float
    attrs: Dict[str, object]


@dataclass
class TraceSpan:
    """One span reloaded from (or adapted out of) a trace.

    The offline twin of :class:`repro.obs.tracer.Span`: same fields,
    no tracer or clock attached, children linked by the loader.
    """

    sid: int
    parent: Optional[int]
    name: str
    cat: str
    start_s: float
    end_s: float
    attrs: Dict[str, object]
    children: List["TraceSpan"] = field(default_factory=list)
    events: List[TraceEvent] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def self_s(self) -> float:
        """Time spent in this span but not in any child."""
        return self.duration_s - sum(c.duration_s for c in self.children)


class TraceRun:
    """A loaded span forest: the unit every analysis consumes."""

    def __init__(self, roots: List[TraceSpan],
                 orphan_events: List[TraceEvent],
                 schema_version: int = SCHEMA_VERSION,
                 source: str = "<memory>"):
        self.roots = roots
        self.orphan_events = orphan_events
        self.schema_version = schema_version
        self.source = source

    def walk(self):
        """Yield every span depth-first, roots in order."""
        def visit(span: TraceSpan):
            yield span
            for child in span.children:
                yield from visit(child)
        for root in self.roots:
            yield from visit(root)

    def find(self, name: str) -> List[TraceSpan]:
        return [s for s in self.walk() if s.name == name]

    def span_count(self) -> int:
        return sum(1 for _ in self.walk())

    @property
    def duration_s(self) -> float:
        """Wall (simulated) extent of the forest."""
        if not self.roots:
            return 0.0
        return (max(r.end_s for r in self.roots)
                - min(r.start_s for r in self.roots))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TraceRun({self.span_count()} spans, "
                f"{self.duration_s:.6f}s, source={self.source!r})")


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


def from_tracer(tracer: SimTracer) -> TraceRun:
    """Adapt a live tracer's span forest without re-serialising."""
    nodes: Dict[int, TraceSpan] = {}
    roots: List[TraceSpan] = []
    for span in tracer.walk():
        node = TraceSpan(sid=span.sid, parent=span.parent_sid,
                         name=span.name, cat=span.cat,
                         start_s=span.start_s,
                         end_s=span.end_s if span.end_s is not None else span.start_s,
                         attrs=dict(span.attrs),
                         events=[TraceEvent(e.name, e.t_s, dict(e.attrs))
                                 for e in span.events])
        nodes[node.sid] = node
        parent = nodes.get(node.parent) if node.parent is not None else None
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    orphans = [TraceEvent(e.name, e.t_s, dict(e.attrs))
               for e in tracer.orphan_events]
    return TraceRun(roots, orphans, source="<tracer>")


def parse_jsonl(lines: Sequence[str], source: str = "<memory>") -> TraceRun:
    """Rebuild a span forest from JSONL event-log lines.

    The first record may be a ``header`` carrying ``schema_version``
    (logs written before versioning are treated as version 1); an
    unknown version raises :class:`~repro.errors.TraceSchemaError`
    rather than silently misreading the log.  So do a record whose
    fields have the wrong types, an event on an unknown span, and a
    span that no root reaches (its parent chain loops), each naming
    ``source:line``.
    """
    version = SCHEMA_VERSION
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
        header = records.pop(0)[1]
        version = header.get("schema_version")
        if version not in SUPPORTED_SCHEMA_VERSIONS:
            raise TraceSchemaError(
                f"{source}: unsupported trace schema_version {version!r} "
                f"(supported: {list(SUPPORTED_SCHEMA_VERSIONS)})")

    nodes: Dict[int, TraceSpan] = {}
    orphans: List[TraceEvent] = []
    pending_events: List[Tuple[int, int, TraceEvent]] = []
    order: List[Tuple[int, TraceSpan]] = []
    for lineno, rec in records:
        kind = rec["type"]
        if kind == "span":
            f = _fields(rec, f"{source}:{lineno}")
            node = TraceSpan(sid=f["sid"], parent=f["parent"],
                             name=f["name"], cat=f["cat"],
                             start_s=f["start_s"], end_s=f["end_s"],
                             attrs=dict(f["attrs"] or {}))
            if node.sid in nodes:
                raise TraceSchemaError(
                    f"{source}:{lineno}: duplicate span sid {node.sid}")
            nodes[node.sid] = node
            order.append((lineno, node))
        elif kind == "event":
            f = _fields(rec, f"{source}:{lineno}")
            ev = TraceEvent(f["name"], f["t_s"], dict(f["attrs"] or {}))
            if f["span"] is None:
                orphans.append(ev)
            else:
                pending_events.append((lineno, f["span"], ev))
        elif kind == "header":
            raise TraceSchemaError(
                f"{source}:{lineno}: header must be the first record")
        else:
            raise TraceSchemaError(
                f"{source}:{lineno}: unknown record type {kind!r}")
    roots: List[TraceSpan] = []
    for _, node in order:
        parent = nodes.get(node.parent) if node.parent is not None else None
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    reached = set()
    stack = list(roots)
    while stack:
        span = stack.pop()
        reached.add(span.sid)
        stack.extend(span.children)
    for lineno, node in order:
        if node.sid not in reached:
            raise TraceSchemaError(
                f"{source}:{lineno}: span {node.sid} is reached from no "
                f"root (its parent chain loops)")
    for lineno, sid, ev in pending_events:
        span = nodes.get(sid)
        if span is None:
            raise TraceSchemaError(
                f"{source}:{lineno}: event references unknown span {sid}")
        span.events.append(ev)
    return TraceRun(roots, orphans, schema_version=version, source=source)


def load_jsonl(path: str) -> TraceRun:
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


def critical_path(root: TraceSpan) -> List[PathStep]:
    """The longest serial descent from ``root``.

    At each level the child with the largest duration is followed
    (earliest start breaks ties, deterministically), mirroring how one
    reads an nvprof timeline: start at the request, keep descending
    into whatever dominated it.
    """
    steps: List[PathStep] = []
    node: Optional[TraceSpan] = root
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


def span_aggregates(run: TraceRun) -> List[SpanStat]:
    """Self-time vs total-time per ``(name, cat)``, longest first."""
    acc: Dict[Tuple[str, str], List[float]] = {}
    for span in run.walk():
        key = (span.name, span.cat)
        row = acc.setdefault(key, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.duration_s
        row[2] += span.self_s
    stats = [SpanStat(name=name, cat=cat, count=int(c), total_s=t, self_s=s)
             for (name, cat), (c, t, s) in acc.items()]
    stats.sort(key=lambda st: (-st.total_s, st.name))
    return stats


# ---------------------------------------------------------------------------
# hotspot attribution (Fig. 4 over a trace)
# ---------------------------------------------------------------------------

def hotspot_table(run: TraceRun) -> Dict[str, Dict[str, float]]:
    """GPU-leaf time per implementation per kernel role.

    Walks the tree carrying the innermost ``implementation`` attribute
    (set by dispatch spans) so each gpusim leaf is attributed to the
    implementation that launched it.  Leaves outside any dispatch land
    under ``"(unattributed)"``.
    """
    table: Dict[str, Dict[str, float]] = {}

    def visit(span: TraceSpan, impl: str) -> None:
        impl = str(span.attrs.get(_IMPL_ATTR, impl))
        if span.cat == "gpu":
            role = str(span.attrs.get("role", "other"))
            roles = table.setdefault(impl, {})
            roles[role] = roles.get(role, 0.0) + span.duration_s
        for child in span.children:
            visit(child, impl)

    for root in run.roots:
        visit(root, "(unattributed)")
    return table


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

def fault_census(run: TraceRun) -> Tuple[Dict[str, int], float]:
    """Event counts by name, plus simulated seconds attributable to
    fault handling: ECC replay costs, retry backoff, and straggler
    drag (the slowdown-inflated fraction of each hit dispatch)."""
    counts: Dict[str, int] = {}
    fault_time = 0.0
    for span in run.walk():
        for ev in span.events:
            counts[ev.name] = counts.get(ev.name, 0) + 1
            if ev.name == "fault.transient":
                fault_time += float(ev.attrs.get("retry_cost_s", 0.0))
            elif ev.name == "retry.backoff":
                fault_time += float(ev.attrs.get("backoff_s", 0.0))
            elif ev.name == "fault.straggler":
                slowdown = float(ev.attrs.get("slowdown", 1.0))
                if slowdown > 1.0:
                    fault_time += span.duration_s * (1.0 - 1.0 / slowdown)
    for ev in run.orphan_events:
        counts[ev.name] = counts.get(ev.name, 0) + 1
    return counts, fault_time


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


def analyze_run(run: TraceRun) -> TraceAnalysis:
    """Derive the full analysis from one loaded trace."""
    table = hotspot_table(run)
    events, fault_time = fault_census(run)
    plans = run.find("serve.plan")
    hits = sum(1 for p in plans if p.attrs.get("hit"))
    batch_spans = run.find("serve.batch")
    batch_sizes = [float(b.attrs.get("batch", 0)) for b in batch_spans]
    batch_fills = [float(b.attrs.get("fill", 0)) for b in batch_spans]
    longest_root = max(run.roots, key=lambda r: (r.duration_s, -r.start_s),
                       default=None)
    return TraceAnalysis(
        source=run.source,
        span_count=run.span_count(),
        duration_s=run.duration_s,
        aggregates=tuple(span_aggregates(run)),
        critical=tuple(critical_path(longest_root))
        if longest_root is not None else (),
        hotspots=table,
        shares=hotspot_shares(table),
        reconciliation=reconcile_hotspots(table),
        events=events,
        fault_time_s=fault_time,
        plan_lookups={"hits": hits, "misses": len(plans) - hits}
        if plans else {},
        batches={"count": float(len(batch_spans)),
                 "mean_batch": (sum(batch_sizes) / len(batch_sizes)
                                if batch_sizes else 0.0),
                 "mean_fill": (sum(batch_fills) / len(batch_fills)
                               if batch_fills else 0.0)},
    )
