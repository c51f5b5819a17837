"""Labeled metrics registry.

One sink for every subsystem's counters instead of per-module private
dicts: the serving stats (:class:`repro.serve.stats.ServingStats` is a
view over a registry), the shared evaluation cache, the fault plane
and the gpusim profiler all publish here.  Three metric kinds:

* :class:`Counter` — monotonic totals (``serve_retries_total``);
* :class:`Gauge` — last-value samples (``serve_peak_memory_bytes``);
* :class:`Histogram` — raw observations summarised on snapshot with
  the shared percentile math (``serve_latency_seconds``).

Naming convention: ``<subsystem>_<noun>[_<unit>][_total]``, lowercase
with underscores; dimensions go into labels
(``serve_sheds_total{cause="timeout"}``), never into the name.

Snapshots are deterministically ordered — metrics sorted by name then
label string — so two identical runs export byte-identical files, the
property every determinism test in this repo leans on.  The
:data:`NULL_REGISTRY` singleton hands out one shared no-op metric so
disabled observability costs a method call and nothing else.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

from .hist import ordered_sum, summarize

#: A normalised label set: ``(("cause", "timeout"), ...)`` sorted by key.
LabelSet = Tuple[Tuple[str, str], ...]


def _labels(labels: Dict[str, object]) -> LabelSet:
    if not labels:
        # The unlabeled case dominates the serving hot path; skip the
        # generator + sort machinery for it.
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _series_name(name: str, labels: LabelSet) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        if n < 0:
            raise ValueError(f"counters only go up; inc({n})")
        self.value += n

    def set(self, value: float) -> None:
        """Jump to an externally tracked total (e.g. adopting a
        subsystem's own counter at the end of a run)."""
        self.value = value

    def snapshot_value(self) -> float:
        return self.value


class Gauge:
    """A point-in-time sample that can move both ways."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1) -> None:
        self.value += n

    def dec(self, n: float = 1) -> None:
        self.value -= n

    def snapshot_value(self) -> float:
        return self.value


class Histogram:
    """Raw-observation histogram summarised on snapshot.

    Simulated runs observe at most a few hundred thousand values, so
    keeping the raw list (and summarising with the exact shared
    percentile math) beats maintaining bucket boundaries.
    """

    __slots__ = ("observations",)
    kind = "histogram"

    def __init__(self) -> None:
        self.observations: List[float] = []

    def observe(self, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(
                f"histogram observations must be finite, got {value}")
        self.observations.append(value)

    def observe_many(self, values: Iterable[float]) -> None:
        """Bulk :meth:`observe` (the serving stats' streaming path);
        same finiteness contract, one ``extend`` instead of n appends."""
        values = list(values)
        if not all(map(math.isfinite, values)):
            bad = next(v for v in values if not math.isfinite(v))
            raise ValueError(
                f"histogram observations must be finite, got {bad}")
        self.observations.extend(values)

    @property
    def count(self) -> int:
        return len(self.observations)

    @property
    def sum(self) -> float:
        return ordered_sum(self.observations)

    def snapshot_value(self) -> Dict[str, float]:
        return summarize(self.observations)


class MetricsRegistry:
    """Holds every metric series of one run, keyed by name + labels."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelSet], object] = {}

    # -- access (create on first use) --------------------------------------

    def _get(self, cls, name: str, labels: Dict[str, object]):
        key = (name, _labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls()
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested as {cls.kind}")
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def series(self, name: str) -> List[Tuple[Dict[str, str], object]]:
        """Every (labels, metric) of one metric name, label-sorted.

        This is how the serving stats rebuild their per-cause /
        per-implementation dict views from the registry.
        """
        return [(dict(labels), metric)
                for (n, labels), metric in sorted(self._metrics.items(),
                                                  key=lambda kv: kv[0])
                if n == name]

    def value(self, name: str, **labels) -> float:
        """Current value of one series (0 if never touched)."""
        metric = self._metrics.get((name, _labels(labels)))
        return 0 if metric is None else metric.snapshot_value()

    # -- export ------------------------------------------------------------

    def _sorted(self) -> Iterable[Tuple[str, object]]:
        for (name, labels), metric in sorted(self._metrics.items()):
            yield _series_name(name, labels), metric

    def snapshot(self) -> Dict[str, dict]:
        """JSON-ready export, deterministically ordered by series name."""
        out: Dict[str, dict] = {"counters": {}, "gauges": {},
                                "histograms": {}}
        for series, metric in self._sorted():
            out[metric.kind + "s"][series] = metric.snapshot_value()
        return out

    def counters(self) -> Dict[str, float]:
        """:meth:`snapshot`'s counters, without summarising histograms."""
        return {series: metric.value for series, metric in self._sorted()
                if metric.kind == "counter"}

    def render(self) -> str:
        """Plain-text snapshot, one series per line."""
        lines = []
        for series, metric in self._sorted():
            if metric.kind == "histogram":
                s = metric.snapshot_value()
                lines.append(
                    f"{series:55s} count={s['count']} mean={s['mean']:.6g} "
                    f"p50={s['p50']:.6g} p95={s['p95']:.6g} "
                    f"p99={s['p99']:.6g} max={s['max']:.6g}")
            else:
                value = metric.snapshot_value()
                text = f"{value:g}" if isinstance(value, float) else str(value)
                lines.append(f"{series:55s} {text}")
        return "\n".join(lines)


class _NullMetric:
    """Shared sink for every metric call when observability is off."""

    __slots__ = ()
    kind = "null"
    value = 0
    count = 0
    sum = 0.0
    observations: List[float] = []

    def inc(self, n: float = 1) -> None:
        pass

    def dec(self, n: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values: Iterable[float]) -> None:
        # Must never touch the class-level shared `observations` list.
        pass

    def snapshot_value(self) -> float:
        return 0


_NULL_METRIC = _NullMetric()


class NullRegistry:
    """The disabled registry: every series is one shared no-op metric."""

    __slots__ = ()

    def counter(self, name: str, **labels) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, **labels) -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, **labels) -> _NullMetric:
        return _NULL_METRIC

    def __len__(self) -> int:
        return 0

    def series(self, name: str) -> List[Tuple[Dict[str, str], object]]:
        return []

    def value(self, name: str, **labels) -> float:
        return 0

    def snapshot(self) -> Dict[str, dict]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def render(self) -> str:
        return ""


#: Process-wide disabled registry (the default outside serving runs).
NULL_REGISTRY = NullRegistry()
