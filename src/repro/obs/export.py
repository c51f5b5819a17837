"""Exporters: Chrome-trace/Perfetto JSON, JSONL event log, metrics.

The unified timeline this module writes is the cross-layer view:
serving-side spans (scheduler, plan lookups, advisor rankings,
evalcache accesses) and gpusim kernel leaves land in one document as
separate Perfetto *processes*, with fault injections as instant events
on the affected rows.  :func:`profiler_trace` lays a bare
:class:`~repro.gpusim.profiler.Profiler` session on the same gpusim
rows, the nvprof-timeline view of one simulated iteration.

All output is deterministic: events are emitted in depth-first span
order, sorted per row by ``(ts, -dur)`` (the Chrome convention for
nested complete events), and serialised with sorted keys — two
same-seed runs produce byte-identical files.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from .metrics import MetricsRegistry
from .tracer import SimTracer, Span

#: Version stamped into the JSONL event log's header record and the
#: metrics-snapshot files.  Bump it when a record's shape changes so
#: the analyzer (:mod:`repro.obs.analyze`) rejects logs it would
#: misread instead of producing silently wrong reports.
SCHEMA_VERSION = 1

#: Versions the loaders accept (logs written before versioning carry
#: no header and are treated as version 1).
SUPPORTED_SCHEMA_VERSIONS = (1,)

#: Span category → (pid, process name, tid, thread name).  Everything
#: serving-side shares one process; gpusim kernel leaves get their own
#: so the GPU row reads like an nvprof timeline under the scheduler row.
_ROWS: Dict[str, Tuple[int, str, int, str]] = {
    "serve": (1, "serve", 1, "scheduler"),
    "advisor": (1, "serve", 1, "scheduler"),
    "evalcache": (1, "serve", 1, "scheduler"),
    "faults": (1, "serve", 1, "scheduler"),
    "gpu": (2, "gpusim", 1, "compute"),
    "memcpy": (2, "gpusim", 2, "copy engine"),
}
_DEFAULT_ROW = (1, "serve", 1, "scheduler")


def _row(cat: str) -> Tuple[int, str, int, str]:
    return _ROWS.get(cat, _DEFAULT_ROW)


def metadata_events(rows: Dict[int, Tuple[str, Dict[int, str]]]) -> List[dict]:
    """Perfetto ``M`` rows naming processes and threads.

    ``rows`` maps pid → (process name, {tid: thread name}).
    """
    events: List[dict] = []
    for pid in sorted(rows):
        process, tids = rows[pid]
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": process}})
        for tid in sorted(tids):
            events.append({"name": "thread_name", "ph": "M", "pid": pid,
                           "tid": tid, "args": {"name": tids[tid]}})
    return events


def ensure_monotonic(events: List[dict], step_us: float = 1e-3) -> List[dict]:
    """Sort timed events per ``(pid, tid)`` row and force strictly
    increasing timestamps (equal or regressing ``ts`` is nudged forward
    by ``step_us``).

    For flat rows — back-to-back kernels, transfer engines — this is
    exactly what Perfetto's JSON importer wants; rows with *nested*
    complete events should use :func:`sort_events` instead, which
    preserves containment.  Metadata (``M``) events pass through
    untouched, ahead of the timeline.
    """
    meta = [e for e in events if e.get("ph") == "M"]
    timed = [e for e in events if e.get("ph") != "M"]
    timed.sort(key=lambda e: (e["pid"], e["tid"], e["ts"]))
    last: Dict[Tuple[int, int], float] = {}
    out: List[dict] = []
    for e in timed:
        row = (e["pid"], e["tid"])
        ts = e["ts"]
        floor = last.get(row)
        if floor is not None and ts <= floor:
            ts = floor + step_us
            e = dict(e, ts=ts)
        last[row] = ts
        out.append(e)
    return meta + out


def sort_events(events: List[dict]) -> List[dict]:
    """Chrome ordering for rows that may nest: per row by
    ``(ts, -dur)`` so an enclosing span precedes the spans it
    contains.  Metadata rows stay in front."""
    meta = [e for e in events if e.get("ph") == "M"]
    timed = sorted((e for e in events if e.get("ph") != "M"),
                   key=lambda e: (e["pid"], e["tid"], e["ts"],
                                  -e.get("dur", 0.0)))
    return meta + timed


# ---------------------------------------------------------------------------
# bare profiler session → trace document
# ---------------------------------------------------------------------------

def profiler_trace(profiler) -> dict:
    """The Chrome-trace document for one
    :class:`~repro.gpusim.profiler.Profiler` session.

    Kernels are laid out in launch order on the compute row (they
    execute back-to-back on one stream, as in the benchmarked
    frameworks); transfers go on the copy-engine row, async copies
    overlapped from time zero, synchronous ones appended after the
    kernels they block.  :func:`ensure_monotonic` nudges zero-duration
    launches forward rather than letting timestamps collide, which
    Perfetto's importer rejects.
    """
    pid, process, compute_tid, compute = _ROWS["gpu"]
    _, _, copy_tid, copy = _ROWS["memcpy"]
    events: List[dict] = []
    t = 0.0
    for timing in profiler.executions:
        events.append({
            "name": timing.name,
            "cat": "kernel",
            "ph": "X",
            "pid": pid,
            "tid": compute_tid,
            "ts": t * 1e6,                      # microseconds
            "dur": timing.time_s * 1e6,
            "args": {
                "bound": timing.bound,
                "achieved_occupancy": round(timing.achieved_occupancy, 4),
                "ipc": round(timing.ipc, 3),
                "gld_efficiency": round(timing.gld_efficiency, 4),
                "shared_efficiency": round(timing.shared_efficiency, 4),
                "flops": timing.spec.total_flops,
                "repeats": timing.spec.repeats,
            },
        })
        t += timing.time_s

    async_t, sync_t = 0.0, t
    for rec in profiler.transfers.records:
        if rec.async_:
            start, async_t = async_t, async_t + rec.time_s
        else:
            start, sync_t = sync_t, sync_t + rec.time_s
        events.append({
            "name": rec.kind.value,
            "cat": "memcpy",
            "ph": "X",
            "pid": pid,
            "tid": copy_tid,
            "ts": start * 1e6,
            "dur": rec.time_s * 1e6,
            "args": {"bytes": rec.bytes, "pinned": rec.pinned,
                     "async": rec.async_},
        })
    rows = {pid: (process, {compute_tid: compute, copy_tid: copy})}
    return {
        "traceEvents": metadata_events(rows) + ensure_monotonic(events),
        "displayTimeUnit": "ms",
        "otherData": {
            "device": profiler.device.name,
            "kernels": len(profiler.executions),
            "gpu_time_s": profiler.gpu_time(),
        },
    }


# ---------------------------------------------------------------------------
# span forest → trace events
# ---------------------------------------------------------------------------

def _span_event(span: Span) -> dict:
    pid, _, tid, _ = _row(span.cat)
    return {
        "name": span.name,
        "cat": span.cat,
        "ph": "X",
        "pid": pid,
        "tid": tid,
        "ts": span.start_s * 1e6,          # microseconds
        "dur": span.duration_s * 1e6,
        "args": dict(span.attrs),
    }


def _instant(name: str, cat: str, t_s: float, attrs: dict,
             pid: int, tid: int) -> dict:
    return {"name": name, "cat": cat, "ph": "i", "s": "t",
            "pid": pid, "tid": tid, "ts": t_s * 1e6,
            "args": dict(attrs)}


def span_events(tracer: SimTracer) -> List[dict]:
    """Flatten a tracer's span forest into Chrome trace events
    (complete ``X`` events for spans, instant ``i`` events for span
    events), depth-first."""
    events: List[dict] = []
    for span in tracer.walk():
        pid, _, tid, _ = _row(span.cat)
        events.append(_span_event(span))
        for ev in span.events:
            events.append(_instant(ev.name, span.cat, ev.t_s, ev.attrs,
                                   pid, tid))
    pid, _, tid, _ = _DEFAULT_ROW
    for ev in tracer.orphan_events:
        events.append(_instant(ev.name, "orphan", ev.t_s, ev.attrs,
                               pid, tid))
    return events


# -- cluster exports: one Perfetto process per replica ----------------------

#: pid of the cluster router/autoscaler row in merged fleet exports.
CLUSTER_PID = 1
#: pid of the first replica row; replica ``i`` lands on this + ``i``.
REPLICA_PID_BASE = 10

#: Thread layout inside one remapped replica (or router) process:
#: serving-side categories share the scheduler thread, gpusim rows get
#: their own — the same reading order as the single-server export.
_REMAP_TIDS: Dict[str, Tuple[int, str]] = {
    "gpu": (2, "compute"),
    "memcpy": (3, "copy engine"),
}
_REMAP_DEFAULT_TID = (1, "scheduler")


def remapped_span_events(tracer: SimTracer, pid: int) -> List[dict]:
    """Flatten one tracer's span forest with every event forced onto
    Perfetto process ``pid`` — how each cluster replica (and the
    router itself) gets its own trace row in a merged export."""
    events: List[dict] = []
    for span in tracer.walk():
        tid, _ = _REMAP_TIDS.get(span.cat, _REMAP_DEFAULT_TID)
        e = _span_event(span)
        e["pid"], e["tid"] = pid, tid
        events.append(e)
        for ev in span.events:
            events.append(_instant(ev.name, span.cat, ev.t_s, ev.attrs,
                                   pid, tid))
    for ev in tracer.orphan_events:
        events.append(_instant(ev.name, "orphan", ev.t_s, ev.attrs,
                               pid, _REMAP_DEFAULT_TID[0]))
    return events


def cluster_chrome_trace(router_tracer: SimTracer,
                         replica_tracers: List[Tuple[str, SimTracer]],
                         registry: Optional[MetricsRegistry] = None,
                         **meta) -> dict:
    """One Chrome-trace document for a whole fleet run.

    The router/autoscaler timeline lands on pid :data:`CLUSTER_PID`
    (process ``cluster``); replica ``i`` of ``replica_tracers`` (an
    ordered ``[(name, tracer), ...]``) lands on its own process at pid
    ``REPLICA_PID_BASE + i`` — each replica is one Perfetto row group
    with scheduler/compute threads, exactly the acceptance shape.
    """
    events = remapped_span_events(router_tracer, CLUSTER_PID)
    processes: Dict[int, str] = {CLUSTER_PID: "cluster"}
    span_total = router_tracer.span_count()
    for i, (name, tracer) in enumerate(replica_tracers):
        pid = REPLICA_PID_BASE + i
        events.extend(remapped_span_events(tracer, pid))
        processes[pid] = name
        span_total += tracer.span_count()
    rows: Dict[int, Tuple[str, Dict[int, str]]] = {}
    tid_names = dict([_REMAP_DEFAULT_TID] + list(_REMAP_TIDS.values()))
    for e in events:
        pid, tid = e["pid"], e["tid"]
        thread = "router" if pid == CLUSTER_PID else \
            tid_names.get(tid, f"tid{tid}")
        rows.setdefault(pid, (processes[pid], {}))[1].setdefault(tid, thread)
    other = dict(sorted(meta.items()))
    other["spans"] = span_total
    other["replicas"] = [name for name, _ in replica_tracers]
    if registry is not None:
        other["metrics"] = registry.snapshot()
    return {
        "traceEvents": metadata_events(rows) + sort_events(events),
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_cluster_chrome_trace(path: str, router_tracer: SimTracer,
                               replica_tracers: List[Tuple[str, SimTracer]],
                               registry: Optional[MetricsRegistry] = None,
                               **meta) -> str:
    """Serialise :func:`cluster_chrome_trace` to ``path``."""
    text = json.dumps(cluster_chrome_trace(router_tracer, replica_tracers,
                                           registry, **meta),
                      indent=1, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text


def _used_rows(events: List[dict]) -> Dict[int, Tuple[str, Dict[int, str]]]:
    rows: Dict[int, Tuple[str, Dict[int, str]]] = {}
    names = {(pid, tid): (process, thread)
             for pid, process, tid, thread in _ROWS.values()}
    for e in events:
        pid, tid = e["pid"], e["tid"]
        process, thread = names.get((pid, tid), (f"pid{pid}", f"tid{tid}"))
        rows.setdefault(pid, (process, {}))[1].setdefault(tid, thread)
    return rows


def chrome_trace(tracer: SimTracer,
                 registry: Optional[MetricsRegistry] = None,
                 **meta) -> dict:
    """The full Chrome-trace document for one traced run.

    ``meta`` lands in ``otherData`` next to span/event totals; when a
    registry is given, its snapshot is embedded there too, so one file
    carries the timeline *and* the end-of-run metric state.
    """
    events = span_events(tracer)
    other = dict(sorted(meta.items()))
    other["spans"] = tracer.span_count()
    other["events"] = sum(len(s.events) for s in tracer.walk()) \
        + len(tracer.orphan_events)
    if registry is not None:
        other["metrics"] = registry.snapshot()
    return {
        "traceEvents": metadata_events(_used_rows(events))
        + sort_events(events),
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(path: str, tracer: SimTracer,
                       registry: Optional[MetricsRegistry] = None,
                       **meta) -> str:
    """Serialise :func:`chrome_trace` to ``path``; returns the JSON."""
    text = json.dumps(chrome_trace(tracer, registry, **meta),
                      indent=1, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text


# ---------------------------------------------------------------------------
# JSONL structured event log
# ---------------------------------------------------------------------------

def _jsonl_header() -> str:
    return json.dumps({"type": "header", "format": "repro-trace",
                       "schema_version": SCHEMA_VERSION}, sort_keys=True)


def _tracer_jsonl(tracer: SimTracer) -> List[str]:
    """One tracer's span/event records (no header), depth-first."""
    lines: List[str] = []
    for span in tracer.walk():
        lines.append(json.dumps(
            {"type": "span", "sid": span.sid, "parent": span.parent_sid,
             "name": span.name, "cat": span.cat, "start_s": span.start_s,
             "end_s": span.end_s, "attrs": dict(span.attrs)},
            sort_keys=True))
        for ev in span.events:
            lines.append(json.dumps(
                {"type": "event", "span": span.sid, "name": ev.name,
                 "t_s": ev.t_s, "attrs": dict(ev.attrs)}, sort_keys=True))
    for ev in tracer.orphan_events:
        lines.append(json.dumps(
            {"type": "event", "span": None, "name": ev.name,
             "t_s": ev.t_s, "attrs": dict(ev.attrs)}, sort_keys=True))
    return lines


def jsonl_lines(tracer: SimTracer) -> List[str]:
    """One JSON object per span and per span event, depth-first —
    the grep-able form of the same tree.  The first line is a header
    record carrying :data:`SCHEMA_VERSION` so offline loaders can
    refuse logs written by an incompatible exporter."""
    return [_jsonl_header()] + _tracer_jsonl(tracer)


def cluster_jsonl_lines(router_tracer: SimTracer,
                        replica_tracers: List[Tuple[str, SimTracer]]
                        ) -> List[str]:
    """One JSONL log for a whole fleet: the router's records followed
    by each replica's, under a single header.  Span ids are already
    disjoint (each replica's tracer gets its own ``first_sid`` block),
    so the analyzer loads the merged log as one multi-root forest."""
    lines = [_jsonl_header()] + _tracer_jsonl(router_tracer)
    for _, tracer in replica_tracers:
        lines.extend(_tracer_jsonl(tracer))
    return lines


def write_jsonl(path: str, tracer: SimTracer) -> int:
    """Write the JSONL event log; returns the line count."""
    lines = jsonl_lines(tracer)
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")
    return len(lines)


def write_cluster_jsonl(path: str, router_tracer: SimTracer,
                        replica_tracers: List[Tuple[str, SimTracer]]) -> int:
    """Write the merged fleet JSONL event log; returns the line count."""
    lines = cluster_jsonl_lines(router_tracer, replica_tracers)
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")
    return len(lines)


# ---------------------------------------------------------------------------
# metrics snapshots
# ---------------------------------------------------------------------------

def render_metrics(registry: MetricsRegistry) -> str:
    """Plain-text snapshot (the ``--metrics`` console form)."""
    return registry.render()


def write_metrics(path: str, registry: MetricsRegistry) -> str:
    """Deterministic JSON snapshot of a registry; returns the JSON.

    The file carries ``schema_version`` next to the counter / gauge /
    histogram sections; :func:`load_metrics_snapshot` checks it.
    """
    doc = dict(registry.snapshot(), schema_version=SCHEMA_VERSION)
    text = json.dumps(doc, indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text


def cluster_metrics_doc(fleet_registry: MetricsRegistry,
                        replica_registries: List[Tuple[str, MetricsRegistry]]
                        ) -> dict:
    """One metrics document for a whole fleet: the fleet registry's
    snapshot (router / autoscaler / SLO series) under ``fleet``, each
    replica's private registry under ``replicas[<name>]``."""
    return {
        "schema_version": SCHEMA_VERSION,
        "fleet": fleet_registry.snapshot(),
        "replicas": {name: registry.snapshot()
                     for name, registry in replica_registries},
    }


def write_cluster_metrics(path: str, fleet_registry: MetricsRegistry,
                          replica_registries: List[Tuple[str,
                                                         MetricsRegistry]]
                          ) -> str:
    """Serialise :func:`cluster_metrics_doc` to ``path`` (stable key
    order — same-seed runs write byte-identical files)."""
    text = json.dumps(cluster_metrics_doc(fleet_registry,
                                          replica_registries),
                      indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text


def load_metrics_snapshot(path: str) -> dict:
    """Load a metrics snapshot written by :func:`write_metrics`.

    Also accepts a Chrome-trace document with an embedded snapshot
    (``otherData.metrics``).  Unknown ``schema_version`` values raise
    :class:`~repro.errors.TraceSchemaError`; files written before
    versioning (no field) load as version 1.
    """
    from ..errors import TraceSchemaError

    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TraceSchemaError(f"{path}: not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and "otherData" in doc:
        if not isinstance(doc["otherData"], dict):
            raise TraceSchemaError(f"{path}: otherData is not an object")
        doc = doc["otherData"].get("metrics")
        if doc is None:
            raise TraceSchemaError(
                f"{path}: Chrome trace has no embedded metrics snapshot")
    if not isinstance(doc, dict) or "counters" not in doc:
        raise TraceSchemaError(f"{path}: not a metrics snapshot")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise TraceSchemaError(
            f"{path}: unsupported metrics schema_version {version!r} "
            f"(supported: {list(SUPPORTED_SCHEMA_VERSIONS)})")
    for name in ("counters", "gauges", "histograms"):
        section = doc.get(name, {})
        if not isinstance(section, dict):
            raise TraceSchemaError(f"{path}: {name} is not an object")
        for series, value in section.items():
            # A histogram exports a summary object of numbers.
            summary = name == "histograms"
            if summary != isinstance(value, dict) or not all(
                    map(_is_number, value.values() if summary else [value])):
                raise TraceSchemaError(f"{path}: {name} entry {series!r} "
                                       f"has a malformed value {value!r}")
    return doc


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)
