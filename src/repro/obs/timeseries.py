"""Windowed telemetry rollups over the live metrics registry.

The paper's figures are *post-hoc* attributions of GPU time; the obs
plane so far (tracer, analyzer, SLO engine) keeps that shape — it
answers questions about a *finished* run.  :class:`Rollups` is the
continuous counterpart: a time-series pipeline that folds the metrics
registry and the completion stream into fixed-width windows of
simulated time, so a fleet run can be watched (and alerted on, and
flight-recorded) *while it happens*.

Design constraints, in order:

1. **Never perturb the simulation.**  Rollups take no clock, add no
   event horizons and write nothing into the registries they read.
   The serving/cluster loops call :meth:`Rollups.poll` at times they
   were stopping anyway; window boundaries are exact regardless,
   because attribution is by *virtual* time, not poll time:

   * completions are bucketed by their ``finish_s`` (pushed at
     dispatch time, which always precedes the window flush);
   * counter deltas are folded when a poll first lands in a *new*
     window — at that moment every unfolded increment happened inside
     the previous window (the loops are event-driven: nothing ticks
     between stops), so the delta belongs to it exactly.

   A run with rollups enabled therefore produces a byte-identical
   report to one without.

2. **Exact under trace sampling.**  Every serving-plane counter
   (offered / completed / shed / rejected / plan-cache traffic) and
   every latency percentile is fed from the registry and the
   completion stream, which ``--trace-sample`` never thins.  One
   engine-plane counter may legitimately differ between sampling
   rates: a kept batch lays out its gpusim kernel leaves from an
   evaluation-cache lookup, and a sampled-out batch skips that
   lookup, so the ``evalcache_requests_total`` hits follow the number
   of kept batches (the report stays byte-identical either way).

3. **Byte-deterministic exports.**  The JSONL window log and the
   OpenMetrics-style text render are sorted-key serialisations of the
   window documents; two same-seed runs write identical bytes.

Sources are attached by the wiring layer (``Server`` for a single
scheduler, ``cluster.telemetry.FleetTelemetry`` for a fleet):

* :meth:`add_source` — a :class:`~repro.obs.metrics.MetricsRegistry`
  whose counter deltas land in each window's ``counters`` section;
* :meth:`add_probe` — a callable returning cumulative numeric stats
  (plan-cache, dispatch-memo, evalcache hit/miss counts), windowed by
  delta like counters;
* :meth:`add_state_probe` — a callable returning a point-in-time
  state map (replica health states), recorded as-of each flush;
* :meth:`observe_completion` — one served request with its batch's
  start and finish times and its tenant / shape / device / replica
  labels, aggregated into per-dimension latency summaries
  (p50/p95/p99 via :func:`~repro.obs.hist.summarize`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from .hist import summarize
from .metrics import MetricsRegistry

#: Version stamped into window-log headers (and checked on load).
TELEMETRY_SCHEMA_VERSION = 1

#: Header ``format`` field of a window log.
WINDOW_LOG_FORMAT = "repro-telemetry"


@lru_cache(maxsize=1024)
def shape_label(key: Tuple[int, ...]) -> str:
    """Canonical rollup label of one request shape.

    Mirrors :func:`repro.core.evalcache.config_key` minus the batch
    dimension (a serving shape is batch-free until the batcher forms
    one): ``i224.f64.k3.s1.c3.p1``.  Memoized: every served request
    is labeled, over a few distinct shapes.
    """
    i, f, k, s, c, p = key
    return f"i{i}.f{f}.k{k}.s{s}.c{c}.p{p}"


@dataclass(frozen=True)
class TelemetryConfig:
    """Switchboard for the live-telemetry plane.

    ``None`` anywhere a config accepts one of these means *off* — the
    default everywhere, preserving byte-identical artifacts for
    existing runs.
    """

    #: Rollup window width in simulated seconds.
    window_s: float = 1.0
    #: Flight-recorder ring: window snapshots retained per recorder.
    ring_windows: int = 64
    #: Flight-recorder ring: most recent spans captured per bundle.
    ring_spans: int = 256
    #: Hard cap on incident bundles per run (excess is counted, not kept).
    max_incidents: int = 32
    #: Evaluate burn-rate alert rules over the windows (cluster runs).
    alerts: bool = True
    #: Override the default alert rule set (``None`` → defaults).
    alert_rules: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError(
                f"window_s must be positive, got {self.window_s}")
        for field in ("ring_windows", "ring_spans", "max_incidents"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1, "
                                 f"got {getattr(self, field)}")


class Rollups:
    """Fixed-width windowed aggregation of a live run.

    Driven entirely by :meth:`poll` / :meth:`finalize` calls from the
    owning loop; finished windows accumulate in :attr:`windows` (plain
    dicts, the unit of export) and fan out to :meth:`on_window`
    listeners — the alert manager and flight recorders subscribe there.
    """

    def __init__(self, window_s: float = 1.0):
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        self.window_s = window_s
        self.windows: List[dict] = []
        self.completions_observed = 0
        self._listeners: List[Callable[[dict], None]] = []
        # (name, registry, device) + last counter snapshot per source.
        self._sources: List[Tuple[str, MetricsRegistry, Optional[str]]] = []
        self._snapshots: Dict[str, Dict[str, float]] = {}
        # (name, fn, device) + last value snapshot per probe.
        self._probes: List[Tuple[str, Callable[[], Dict[str, float]],
                                 Optional[str]]] = []
        self._probe_snapshots: Dict[str, Dict[str, float]] = {}
        self._state_probes: List[Tuple[str, Callable[[], dict]]] = []
        # wi -> source -> series -> delta  (counter folds awaiting flush)
        self._pending_counters: Dict[int, Dict[str, Dict[str, float]]] = {}
        self._pending_probes: Dict[int, Dict[str, Dict[str, float]]] = {}
        # wi -> dimension -> label -> [latency_s, ...]
        self._pending_lat: Dict[int, Dict[str, Dict[str, List[float]]]] = {}
        self._pending_wait: Dict[int, List[float]] = {}
        self._next_index = 0          # next window index to flush
        self._fold_wi: Optional[int] = None   # window of unfolded ticks

    # -- wiring ------------------------------------------------------------

    def add_source(self, name: str, registry: MetricsRegistry,
                   device: Optional[str] = None) -> None:
        """Attach a registry; deltas accrue from this point on."""
        self._sources.append((name, registry, device))
        self._snapshots[name] = registry.counters()

    def add_probe(self, name: str, fn: Callable[[], Dict[str, float]],
                  device: Optional[str] = None) -> None:
        """Attach a cumulative host-side stats callable (hit/miss
        counts); windowed by delta exactly like registry counters."""
        self._probes.append((name, fn, device))
        self._probe_snapshots[name] = dict(fn())

    def add_state_probe(self, name: str, fn: Callable[[], dict]) -> None:
        """Attach a point-in-time state callable, recorded per window."""
        self._state_probes.append((name, fn))

    def on_window(self, fn: Callable[[dict], None]) -> None:
        """Call ``fn(window_doc)`` as each window flushes, in
        subscription order (the alert manager subscribes first so its
        verdict lands inside the document other listeners see)."""
        self._listeners.append(fn)

    # -- ingestion ---------------------------------------------------------

    def window_index(self, t_s: float) -> int:
        return int(t_s // self.window_s)

    def observe_completion(self, request, start_s: float, finish_s: float,
                           tenant: Optional[str] = None,
                           shape: Optional[str] = None,
                           device: Optional[str] = None,
                           replica: Optional[str] = None) -> None:
        """Bucket one served request into the window of ``finish_s``:
        its latency is ``finish_s`` less its arrival, and its queue
        wait ``start_s`` less its arrival (``start_s`` and
        ``finish_s`` bound the batch it rode in)."""
        wi = self.window_index(finish_s)
        lat = self._pending_lat.get(wi)
        if lat is None:
            lat = self._pending_lat[wi] = {"tenant": {}, "shape": {},
                                           "device": {}, "replica": {}}
        latency = finish_s - request.t_s
        if tenant is None:
            tenant = request.model
        if shape is None:
            shape = shape_label(request.key)
        lat["tenant"].setdefault(tenant, []).append(latency)
        lat["shape"].setdefault(shape, []).append(latency)
        if device is not None:
            lat["device"].setdefault(device, []).append(latency)
        if replica is not None:
            lat["replica"].setdefault(replica, []).append(latency)
        self._pending_wait.setdefault(wi, []).append(
            start_s - request.t_s)
        self.completions_observed += 1

    # -- the poll/fold/flush machinery -------------------------------------

    def poll(self, now_s: float) -> None:
        """Fold and flush everything owed as of simulated time ``now_s``.

        Call after all processing for ``now_s`` in the owning loop (so
        the registry reflects every event at ``now_s`` no later than
        the *next* poll, which is when its window can first flush).
        """
        wi_now = self.window_index(now_s)
        if self._fold_wi is None:
            self._fold_wi = wi_now
        elif wi_now > self._fold_wi:
            self._fold(self._fold_wi)
            self._fold_wi = wi_now
        while self._next_index < wi_now:
            self._flush(self._next_index, partial=False)
            self._next_index += 1

    def finalize(self, now_s: float) -> None:
        """Flush through the window containing ``now_s`` (the last one
        marked ``partial`` when the run ended inside it)."""
        wi_now = self.window_index(now_s)
        if self._fold_wi is not None:
            self._fold(self._fold_wi)
            self._fold_wi = None
        while self._next_index < wi_now:
            self._flush(self._next_index, partial=False)
            self._next_index += 1
        end_s = (wi_now + 1) * self.window_s
        if now_s > wi_now * self.window_s or self._has_pending(wi_now):
            self._flush(wi_now, partial=now_s < end_s, end_s=now_s)
            self._next_index = wi_now + 1

    def _has_pending(self, wi: int) -> bool:
        return (wi in self._pending_counters or wi in self._pending_probes
                or wi in self._pending_lat)

    def _fold(self, wi: int) -> None:
        """Attribute all registry/probe deltas since the last fold to
        window ``wi`` (every unfolded tick happened inside it)."""
        for name, registry, _device in self._sources:
            # Counters only: histogram summaries cost O(run length).
            current = registry.counters()
            last = self._snapshots[name]
            delta = {series: value - last.get(series, 0.0)
                     for series, value in current.items()
                     if value != last.get(series, 0.0)}
            if delta:
                self._pending_counters.setdefault(wi, {})[name] = delta
            self._snapshots[name] = current
        for name, fn, _device in self._probes:
            current = dict(fn())
            last = self._probe_snapshots[name]
            delta = {key: value - last.get(key, 0.0)
                     for key, value in current.items()
                     if isinstance(value, (int, float))
                     and value != last.get(key, 0.0)}
            if delta:
                self._pending_probes.setdefault(wi, {})[name] = delta
            self._probe_snapshots[name] = current

    def _flush(self, wi: int, partial: bool,
               end_s: Optional[float] = None) -> None:
        lat = self._pending_lat.pop(wi, {})
        latency = {}
        completed = 0
        for dim in sorted(lat):
            buckets = lat[dim]
            if not buckets:
                continue
            latency[dim] = {label: summarize(values)
                            for label, values in sorted(buckets.items())}
            if dim == "tenant":
                completed = sum(len(v) for v in buckets.values())
        span_s = (end_s if end_s is not None
                  else (wi + 1) * self.window_s) - wi * self.window_s
        doc = {
            "type": "window",
            "index": wi,
            "start_s": wi * self.window_s,
            "end_s": end_s if end_s is not None else (wi + 1) * self.window_s,
            "completed": completed,
            "qps": completed / span_s if span_s > 0 else 0.0,
            "counters": self._pending_counters.pop(wi, {}),
            "probes": self._pending_probes.pop(wi, {}),
            "latency": latency,
        }
        waits = self._pending_wait.pop(wi, None)
        if waits:
            doc["queue_wait"] = summarize(waits)
        state = {name: fn() for name, fn in self._state_probes}
        if state:
            doc["state"] = state
        if partial:
            doc["partial"] = True
        self.windows.append(doc)
        for fn in self._listeners:
            fn(doc)

    # -- queries -----------------------------------------------------------

    def device_of(self, source: str) -> Optional[str]:
        """Device label of a source/probe (``name@digest``), if any."""
        for name, _registry, device in self._sources:
            if name == source:
                return device
        for name, _fn, device in self._probes:
            if name == source:
                return device
        return None

    def counter_total(self, metric: str,
                      windows: Optional[List[dict]] = None) -> float:
        """Sum of one counter's deltas (any label set, any source)
        across ``windows`` (default: all flushed windows)."""
        total = 0.0
        for doc in self.windows if windows is None else windows:
            total += window_counter_total(doc, metric)
        return total

    def report(self) -> dict:
        """Summary for embedding in run reports."""
        return {
            "window_s": self.window_s,
            "windows": len(self.windows),
            "completions_observed": self.completions_observed,
            "sources": sorted(name for name, _r, _d in self._sources),
        }


def _series_base(series: str) -> str:
    return series.split("{", 1)[0]


def window_counter_total(doc: dict, metric: str) -> float:
    """Sum of one counter's deltas in one window document, across all
    sources and label sets."""
    total = 0.0
    for deltas in doc.get("counters", {}).values():
        for series, value in deltas.items():
            if _series_base(series) == metric:
                total += value
    return total


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def window_log_header(window_s: float) -> str:
    return json.dumps({"type": "header", "format": WINDOW_LOG_FORMAT,
                       "schema_version": TELEMETRY_SCHEMA_VERSION,
                       "window_s": window_s}, sort_keys=True)


def window_log_lines(rollups: Rollups) -> List[str]:
    """The JSONL window log: a header record then one sorted-key JSON
    object per window — the replayable form of the whole run's
    telemetry (the dashboard renders from it)."""
    lines = [window_log_header(rollups.window_s)]
    lines.extend(json.dumps(doc, sort_keys=True) for doc in rollups.windows)
    return lines


def write_window_log(path: str, rollups: Rollups) -> int:
    """Write the JSONL window log; returns the line count."""
    # Imported here: the serving loop loads this module, not the
    # exporter.
    from .export import write_lines

    return write_lines(path, window_log_lines(rollups))


def load_window_log(path: str) -> Tuple[dict, List[dict]]:
    """Load ``(header, windows)`` from a window log written by
    :func:`write_window_log`; refuses foreign or future formats."""
    from ..errors import TraceSchemaError

    with open(path) as fh:
        raw = [line for line in (l.strip() for l in fh) if line]
    if not raw:
        raise TraceSchemaError(f"{path}: empty window log")
    try:
        header = json.loads(raw[0])
        docs = [json.loads(line) for line in raw[1:]]
    except (json.JSONDecodeError, RecursionError) as exc:
        raise TraceSchemaError(f"{path}: not valid JSONL: {exc}") from exc
    for lineno, doc in enumerate([header] + docs, start=1):
        if not isinstance(doc, dict):
            raise TraceSchemaError(
                f"{path}: line {lineno} is not a JSON object: {doc!r}")
    if header.get("format") != WINDOW_LOG_FORMAT:
        raise TraceSchemaError(
            f"{path}: not a telemetry window log "
            f"(format={header.get('format')!r})")
    version = header.get("schema_version")
    if version != TELEMETRY_SCHEMA_VERSION:
        raise TraceSchemaError(
            f"{path}: unsupported window-log schema_version {version!r}")
    return header, [d for d in docs if d.get("type") == "window"]


def _inject_label(series: str, key: str, value: str) -> str:
    if "{" in series:
        name, rest = series.split("{", 1)
        # A series that already carries this label key (e.g. the
        # device-labeled evalcache counters) keeps its own value.
        if any(part.startswith(f'{key}="')
               for part in rest[:-1].split(",")):
            return series
        return f'{name}{{{key}="{value}",{rest}'
    return f'{series}{{{key}="{value}"}}'


def render_openmetrics(rollups: Rollups) -> str:
    """OpenMetrics-style text: cumulative counters per source (with a
    ``source`` label injected) plus the latest window's latency
    summaries as ``repro_latency_seconds`` gauges.  Deterministic:
    same rollup state, same bytes, ``# EOF`` terminated."""
    lines: List[str] = []
    for name in sorted(rollups._snapshots):
        device = rollups.device_of(name)
        for series in sorted(rollups._snapshots[name]):
            value = rollups._snapshots[name][series]
            labeled = _inject_label(series, "source", name)
            if device is not None:
                labeled = _inject_label(labeled, "device", device)
            lines.append(f"{labeled} {value:g}")
    if rollups.windows:
        last = rollups.windows[-1]
        lines.append(f'repro_window_index {last["index"]}')
        lines.append(f'repro_window_qps {last["qps"]:g}')
        for dim in sorted(last.get("latency", {})):
            for label in sorted(last["latency"][dim]):
                summary = last["latency"][dim][label]
                for stat in ("p50", "p95", "p99"):
                    lines.append(
                        f'repro_latency_seconds{{dim="{dim}",'
                        f'key="{label}",stat="{stat}"}} '
                        f'{summary[stat]:g}')
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(path: str, rollups: Rollups) -> str:
    """Serialise :func:`render_openmetrics` to ``path``."""
    text = render_openmetrics(rollups)
    with open(path, "w") as fh:
        fh.write(text)
    return text
