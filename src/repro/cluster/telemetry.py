"""Fleet wiring for the live-telemetry plane.

:class:`FleetTelemetry` is the glue between the generic obs pieces —
:class:`~repro.obs.timeseries.Rollups`,
:class:`~repro.obs.alerts.AlertManager`,
:class:`~repro.obs.recorder.FlightRecorder` — and the cluster driver:

* the fleet registry and every replica's private registry become
  rollup sources (replicas registered as they spawn, so restarts and
  scale-ups join the pipeline mid-run), each labeled with its
  device's ``name@digest``;
* each replica's plan-cache stats become a probe, which is how their
  hit rate reaches the window log;
* replica health states are a state probe, recorded per window;
* completions accepted by the fleet (post hedge-filtering) feed the
  per-tenant / per-shape / per-device latency percentiles;
* incident capture: an alert-firing edge, a health-plane eviction
  (see :meth:`HealthPlane._evict`) or a fleet SLO violation edge
  freezes the recorder rings into a bundle.

Everything here is observational: no registry writes into the
simulated stats, no clocks, no event horizons — a run with telemetry
enabled produces a byte-identical :class:`ClusterReport` (minus the
``telemetry`` section itself) to one without, which CI's
``telemetry-smoke`` job enforces.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from ..obs.alerts import AlertManager, DEFAULT_ALERT_RULES
from ..obs.recorder import FlightRecorder, write_incident_bundle
from ..obs.timeseries import Rollups, TelemetryConfig

#: Recorder name used for fleet-scoped incidents (alerts, SLO edges).
FLEET_RECORDER = "fleet"


class FleetTelemetry:
    """One fleet run's live-telemetry pipeline."""

    def __init__(self, cluster, config: TelemetryConfig):
        self.cluster = cluster
        self.config = config
        self.rollups = Rollups(window_s=config.window_s)
        self.rollups.add_source("fleet", cluster.obs.registry)
        self.rollups.add_state_probe("replicas", self._replica_states)
        self.alerts: Optional[AlertManager] = None
        if config.alerts:
            rules = (config.alert_rules if config.alert_rules is not None
                     else DEFAULT_ALERT_RULES)
            self.alerts = AlertManager(
                rules, self.rollups,
                tracer=lambda: cluster.obs.tracer,
                listener=self._on_alert_edge)
        self.recorders: Dict[str, FlightRecorder] = {}
        self._fleet_recorder = self._make_recorder(FLEET_RECORDER, None)
        self.incidents: List[dict] = []
        self.incidents_suppressed = 0

    # -- wiring ------------------------------------------------------------

    def _make_recorder(self, name: str, tracer) -> FlightRecorder:
        recorder = FlightRecorder(name, tracer=tracer,
                                  ring_windows=self.config.ring_windows,
                                  ring_spans=self.config.ring_spans)
        self.rollups.on_window(recorder.observe_window)
        self.recorders[name] = recorder
        return recorder

    def register(self, replica) -> None:
        """Attach a freshly spawned replica (initial fleet, supervisor
        restarts and autoscaler scale-ups all land here)."""
        server = replica.server
        device = server.device_label
        self.rollups.add_source(replica.name, server.obs.registry,
                                device=device)
        self.rollups.add_probe(f"{replica.name}.plan_cache",
                               server.plan_cache.stats, device=device)
        self._make_recorder(replica.name, replica.tracer)

    def _replica_states(self) -> Dict[str, str]:
        return {r.name: r.state for r in self.cluster.replicas}

    # -- the loop hooks ----------------------------------------------------

    def observe(self, request, start_s: float, finish_s: float,
                replica) -> None:
        """One fleet-accepted served request (already hedge-filtered)
        with its batch's start and finish times."""
        self.rollups.observe_completion(
            request, start_s, finish_s, device=replica.server.device_label,
            replica=replica.name)

    def poll(self, now_s: float) -> None:
        self.rollups.poll(now_s)

    def finalize(self, now_s: float) -> None:
        self.rollups.finalize(now_s)

    # -- incident triggers -------------------------------------------------

    def _on_alert_edge(self, rule, firing: bool, doc: dict) -> None:
        if firing:
            self.incident(f"alert:{rule.name}", doc["end_s"],
                          window=doc["index"])

    def on_slo_edge(self, rule, failed: bool, now_s: float,
                    verdict) -> None:
        """Chained :class:`~repro.obs.slo.SLOMonitor` listener."""
        if failed:
            self.incident(f"slo:{rule.name}", now_s)

    def on_eviction(self, replica, now_s: float) -> None:
        """Health-plane eviction hook."""
        self.incident("eviction", now_s, replica=replica.name)

    def incident(self, reason: str, t_s: float,
                 replica: Optional[str] = None, **context) -> Optional[dict]:
        """Freeze a bundle (fleet-scoped unless ``replica`` names a
        recorder); returns it, or None past ``max_incidents``."""
        if len(self.incidents) >= self.config.max_incidents:
            self.incidents_suppressed += 1
            return None
        recorder = self.recorders.get(replica or FLEET_RECORDER,
                                      self._fleet_recorder)
        if recorder is self._fleet_recorder:
            # The fleet tracer may have been swapped in after
            # construction (Cluster.enable_tracing) — rebind.
            recorder.tracer = self.cluster.obs.tracer
        scorecard = (self.cluster.health.scorecard()
                     if self.cluster.health is not None else None)
        bundle = recorder.bundle(
            reason, t_s, scorecard=scorecard,
            alerts=self.alerts.firing if self.alerts is not None else None,
            **context)
        bundle["sequence"] = len(self.incidents)
        self.incidents.append(bundle)
        return bundle

    # -- exports -----------------------------------------------------------

    def write_incidents(self, directory: str) -> List[str]:
        """One file per bundle under ``directory`` (created if
        missing), deterministically named; returns the paths."""
        os.makedirs(directory, exist_ok=True)
        paths = []
        for bundle in self.incidents:
            reason = bundle["reason"].replace(":", "-").replace("/", "-")
            name = f"incident-{bundle['sequence']:03d}-{reason}.json"
            path = os.path.join(directory, name)
            write_incident_bundle(path, bundle)
            paths.append(path)
        return paths

    def report(self) -> dict:
        """The ``telemetry`` section of the cluster report."""
        doc = self.rollups.report()
        doc["incidents"] = [
            {"reason": b["reason"], "t_s": b["t_s"],
             "recorder": b["recorder"]} for b in self.incidents]
        doc["incidents_suppressed"] = self.incidents_suppressed
        if self.alerts is not None:
            doc["alerts"] = self.alerts.report()
        return doc
