"""Simulated-time SLO engine.

Declarative service-level objectives evaluated over metrics snapshots
(:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dicts — live from
a running registry, or loaded from a saved file).  A verdict is a pure
function of ``(snapshot, rules)``: same inputs, byte-identical report,
so a failing rule can gate CI the way the claims ledger
(``repro regression``) does.

Rule kinds:

* ``latency_p50`` / ``latency_p95`` / ``latency_p99`` / ``latency_mean``
  / ``latency_max`` — the named statistic of the
  ``serve_latency_seconds`` histogram must not exceed ``threshold``
  (seconds);
* ``queue_wait_p99`` — same, over ``serve_queue_wait_seconds``;
* ``histogram_stat`` — the general form: ``metric`` + ``stat`` +
  ``threshold`` for any histogram the registry carries;
* ``shed_rate`` — the fraction of offered requests that never
  completed (rejections, timeouts, memory sheds, fault sheds) must not
  exceed ``threshold``;
* ``error_budget_burn`` — the same failure fraction expressed as a
  multiple of an allowed ``budget``: burn = failed_fraction / budget,
  and the rule fails when burn exceeds ``threshold`` (canonically 1.0
  = the budget is spent).

For *live* runs, :class:`SLOMonitor` polls the registry on a fixed
simulated-time cadence inside the scheduler loop (see
:class:`repro.serve.scheduler.ServerConfig`'s ``slo`` field), records
``slo.violation`` events into the trace on each ok→fail transition,
and counts them under ``slo_violations_total{rule=...}``.  Polling is
driven by the virtual clock only, so a monitored run stays exactly as
deterministic as an unmonitored one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Rule kinds that are sugar for a histogram statistic check.
_HISTOGRAM_SUGAR: Dict[str, Tuple[str, str]] = {
    "latency_p50": ("serve_latency_seconds", "p50"),
    "latency_p95": ("serve_latency_seconds", "p95"),
    "latency_p99": ("serve_latency_seconds", "p99"),
    "latency_mean": ("serve_latency_seconds", "mean"),
    "latency_max": ("serve_latency_seconds", "max"),
    "queue_wait_p99": ("serve_queue_wait_seconds", "p99"),
}

_KINDS = tuple(sorted(_HISTOGRAM_SUGAR)) + (
    "histogram_stat", "shed_rate", "error_budget_burn")

_STATS = ("count", "sum", "min", "mean", "max", "p50", "p95", "p99")


@dataclass(frozen=True)
class SLORule:
    """One declarative objective.

    ``threshold`` is the ceiling the measured value must stay at or
    under.  ``metric``/``stat`` apply to ``histogram_stat`` rules;
    ``budget`` (an allowed failure fraction, e.g. ``0.001``) applies
    to ``error_budget_burn``.
    """

    name: str
    kind: str
    threshold: float
    metric: str = ""
    stat: str = "p99"
    budget: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"rule {self.name!r}: unknown kind {self.kind!r} "
                f"(known: {', '.join(_KINDS)})")
        if self.kind == "histogram_stat":
            if not self.metric:
                raise ValueError(
                    f"rule {self.name!r}: histogram_stat needs a metric")
            if self.stat not in _STATS:
                raise ValueError(
                    f"rule {self.name!r}: unknown stat {self.stat!r} "
                    f"(known: {', '.join(_STATS)})")
        if self.kind == "error_budget_burn" and self.budget <= 0:
            raise ValueError(
                f"rule {self.name!r}: error_budget_burn needs a positive "
                f"budget (allowed failure fraction)")


def _series_total(section: Dict[str, float], name: str) -> float:
    """Sum a counter across its label sets (``name`` + ``name{...}``)."""
    return sum(v for k, v in section.items()
               if k == name or k.startswith(name + "{"))


def _failed_fraction(snapshot: dict) -> Tuple[float, float, float]:
    counters = snapshot.get("counters", {})
    offered = _series_total(counters, "serve_requests_offered_total")
    completed = _series_total(counters, "serve_requests_completed_total")
    if offered <= 0:
        return 0.0, offered, completed
    return max(0.0, 1.0 - completed / offered), offered, completed


def _histogram_stat(snapshot: dict, metric: str, stat: str) -> Optional[float]:
    summary = snapshot.get("histograms", {}).get(metric)
    if summary is None:
        return None
    return float(summary.get(stat, 0.0))


@dataclass(frozen=True)
class SLOVerdict:
    """One rule's outcome against one snapshot."""

    rule: SLORule
    value: Optional[float]    # None: the metric is absent from the snapshot
    ok: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.rule.name, "kind": self.rule.kind,
                "threshold": self.rule.threshold, "value": self.value,
                "ok": self.ok, "detail": self.detail}


def evaluate_rule(rule: SLORule, snapshot: dict) -> SLOVerdict:
    """Check one rule against one metrics snapshot (pure)."""
    if rule.kind in _HISTOGRAM_SUGAR or rule.kind == "histogram_stat":
        metric, stat = _HISTOGRAM_SUGAR.get(rule.kind,
                                            (rule.metric, rule.stat))
        value = _histogram_stat(snapshot, metric, stat)
        if value is None:
            return SLOVerdict(rule, None, True,
                              f"{metric} absent from snapshot; vacuously ok")
        ok = value <= rule.threshold
        return SLOVerdict(rule, value, ok,
                          f"{metric} {stat} = {value:.6g} "
                          f"{'<=' if ok else '>'} {rule.threshold:.6g}")
    if rule.kind == "shed_rate":
        frac, offered, completed = _failed_fraction(snapshot)
        ok = frac <= rule.threshold
        return SLOVerdict(rule, frac, ok,
                          f"shed rate = {frac:.6g} "
                          f"({offered:.0f} offered, {completed:.0f} "
                          f"completed) {'<=' if ok else '>'} "
                          f"{rule.threshold:.6g}")
    # error_budget_burn
    frac, offered, completed = _failed_fraction(snapshot)
    burn = frac / rule.budget
    ok = burn <= rule.threshold
    return SLOVerdict(rule, burn, ok,
                      f"error budget burn = {burn:.6g}x "
                      f"(failure fraction {frac:.6g} over budget "
                      f"{rule.budget:.6g}) {'<=' if ok else '>'} "
                      f"{rule.threshold:.6g}")


@dataclass(frozen=True)
class SLOReport:
    """The full pass/fail verdict: every rule against one snapshot."""

    verdicts: Tuple[SLOVerdict, ...]
    source: str = "<registry>"

    @property
    def passed(self) -> bool:
        return all(v.ok for v in self.verdicts)

    @property
    def failing(self) -> Tuple[SLOVerdict, ...]:
        return tuple(v for v in self.verdicts if not v.ok)

    def to_dict(self) -> dict:
        return {"source": self.source, "passed": self.passed,
                "rules": [v.to_dict() for v in self.verdicts]}

    def render(self) -> str:
        lines = [f"SLO check over {self.source}"]
        for v in self.verdicts:
            mark = "PASS" if v.ok else "FAIL"
            lines.append(f"  [{mark}] {v.rule.name}: {v.detail}")
        lines.append(f"verdict: {'PASS' if self.passed else 'FAIL'} "
                     f"({len(self.verdicts) - len(self.failing)}/"
                     f"{len(self.verdicts)} rules ok)")
        return "\n".join(lines)


def evaluate_slo(snapshot: dict, rules: Tuple[SLORule, ...],
                 source: str = "<registry>") -> SLOReport:
    """Evaluate every rule against one snapshot (pure function)."""
    return SLOReport(verdicts=tuple(evaluate_rule(r, snapshot)
                                    for r in rules), source=source)


# ---------------------------------------------------------------------------
# rules files
# ---------------------------------------------------------------------------

#: Each rule field's type in a rules document (a bool is not a number).
_RULE_FIELDS = {"name": str, "kind": str, "threshold": (int, float),
                "metric": str, "stat": str, "budget": (int, float)}


def parse_rules(doc: object) -> Tuple[SLORule, ...]:
    """Build rules from a JSON document: either a list of rule objects
    or ``{"rules": [...]}``.  Unknown or missing keys, a field of the
    wrong type and unknown kinds raise :class:`ValueError`."""
    if isinstance(doc, dict):
        doc = doc.get("rules")
    if not isinstance(doc, list) or not doc:
        raise ValueError("rules document must be a non-empty list "
                         "(or {'rules': [...]})")
    rules = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise ValueError(f"rule #{i}: expected an object, got "
                             f"{type(entry).__name__}")
        unknown = set(entry) - set(_RULE_FIELDS)
        if unknown:
            raise ValueError(f"rule #{i}: unknown keys "
                             f"{sorted(unknown)}")
        missing = {"name", "kind", "threshold"} - set(entry)
        if missing:
            raise ValueError(f"rule #{i}: missing keys {sorted(missing)}")
        for key, value in entry.items():
            types = _RULE_FIELDS[key]
            if isinstance(value, bool) or not isinstance(value, types):
                kind = "a string" if types is str else "a number"
                raise ValueError(f"rule #{i}: {key!r} must be {kind}, "
                                 f"got {value!r}")
        rules.append(SLORule(**entry))
    return tuple(rules)


def load_rules(path: str) -> Tuple[SLORule, ...]:
    """Load a JSON rules file (see :func:`parse_rules`)."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return parse_rules(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


#: A sane default objective set for the simulated server (used by the
#: CI smoke and the docs' worked example).
DEFAULT_RULES: Tuple[SLORule, ...] = (
    SLORule(name="p99-latency", kind="latency_p99", threshold=0.25),
    SLORule(name="shed-rate", kind="shed_rate", threshold=0.05),
    SLORule(name="error-budget", kind="error_budget_burn",
            threshold=1.0, budget=0.05),
)


# ---------------------------------------------------------------------------
# live monitoring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SLOPolicy:
    """Attach SLO monitoring to a serving run: the rules to watch and
    the simulated-time polling cadence."""

    rules: Tuple[SLORule, ...] = DEFAULT_RULES
    window_s: float = 0.05

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError(
                f"window_s must be positive, got {self.window_s}")
        if not self.rules:
            raise ValueError("an SLOPolicy needs at least one rule")


class SLOMonitor:
    """Polls a live registry on a simulated-time cadence.

    Each poll evaluates the policy's rules against the registry's
    current snapshot; a rule transitioning ok→fail records an
    ``slo.violation`` event into the trace (with the measured value
    and threshold) and increments ``slo_violations_total{rule=...}``;
    fail→ok records ``slo.recovered``.  :meth:`finalize` runs one last
    evaluation and returns the end-of-run :class:`SLOReport`.

    ``snapshot_fn`` overrides *what* is evaluated: the default is the
    registry's cumulative snapshot, but a caller can supply any
    zero-argument callable returning a snapshot-shaped dict — the
    cluster's fleet monitor passes a sliding-window view so the
    autoscaler reacts to current conditions, not the whole run's
    history.  ``listener`` is called on every edge transition as
    ``listener(rule, ok_to_fail, now_s, verdict)`` — this is how the
    autoscaler consumes the ``slo.violation`` / ``slo.recovered``
    events without parsing the trace.
    """

    def __init__(self, policy: SLOPolicy, obs,
                 snapshot_fn=None, listener=None) -> None:
        self.policy = policy
        self._obs = obs
        self._snapshot_fn = (snapshot_fn if snapshot_fn is not None
                             else obs.registry.snapshot)
        self._listener = listener
        self._next_poll_s = policy.window_s
        self._in_violation: Dict[str, bool] = {
            r.name: False for r in policy.rules}
        self.polls = 0
        self.violations = 0
        self.recoveries = 0

    @property
    def next_poll_s(self) -> float:
        """Simulated time of the next due evaluation (so an external
        event loop can include polls in its event horizon)."""
        return self._next_poll_s

    @property
    def in_violation(self) -> bool:
        """Whether any rule is currently in a violation episode."""
        return any(self._in_violation.values())

    def _evaluate(self, now_s: float, emit: bool) -> SLOReport:
        report = evaluate_slo(self._snapshot_fn(), self.policy.rules)
        if not emit:
            return report
        for v in report.verdicts:
            was = self._in_violation[v.rule.name]
            if not v.ok and not was:
                self.violations += 1
                self._obs.tracer.event(
                    "slo.violation", rule=v.rule.name, kind=v.rule.kind,
                    value=v.value, threshold=v.rule.threshold, t_s=now_s)
                self._obs.registry.counter(
                    "slo_violations_total", rule=v.rule.name).inc()
                if self._listener is not None:
                    self._listener(v.rule, True, now_s, v)
            elif v.ok and was:
                self.recoveries += 1
                self._obs.tracer.event("slo.recovered", rule=v.rule.name,
                                       t_s=now_s)
                self._obs.registry.counter(
                    "slo_recoveries_total", rule=v.rule.name).inc()
                if self._listener is not None:
                    self._listener(v.rule, False, now_s, v)
            self._in_violation[v.rule.name] = not v.ok
        return report

    def poll(self, now_s: float) -> None:
        """Run every evaluation due at or before ``now_s``."""
        while now_s >= self._next_poll_s:
            self.polls += 1
            self._evaluate(self._next_poll_s, emit=True)
            self._next_poll_s += self.policy.window_s

    def finalize(self, now_s: float) -> SLOReport:
        """One closing evaluation over the finished run's snapshot."""
        return self._evaluate(now_s, emit=False)
