"""Fleet telemetry plane: never-perturb, byte-determinism, incident
capture and report wiring (repro.cluster.telemetry)."""

import json

from repro.cluster import (Cluster, ClusterConfig, ClusterReport,
                           HealthConfig, serve_cluster)
from repro.core.evalcache import reset_cache
from repro.faults import (FleetFaultPlan, ReplicaCrashSpec,
                          named_fleet_plan)
from repro.obs.alerts import alert_log_lines
from repro.obs.dashboard import render_dashboard, render_dashboard_from_log
from repro.obs.timeseries import (TelemetryConfig, window_log_lines,
                                  write_window_log)
from repro.serve import (BatchPolicy, ServerConfig, TrafficSpec,
                         generate_trace)


def small_server(**kwargs):
    defaults = dict(policy=BatchPolicy(max_batch=8, max_wait_s=0.002),
                    queue_depth=64, timeout_s=0.25)
    defaults.update(kwargs)
    return ServerConfig(**defaults)


def small_trace(duration=0.5, rate=1600, seed=42):
    return generate_trace(TrafficSpec(duration_s=duration, rate_rps=rate,
                                      seed=seed))


def run(trace, **kwargs):
    """One cold-cache cluster run (the cache is process-global; in a
    single process the second run would otherwise see different
    evalcache hit/miss engine counters in its window log)."""
    reset_cache()
    kwargs.setdefault("server", small_server())
    kwargs.setdefault("replicas", 3)
    return serve_cluster(trace, ClusterConfig(**kwargs))


def telemetry(**kwargs):
    kwargs.setdefault("window_s", 0.05)
    return TelemetryConfig(**kwargs)


def outage_kwargs(**extra):
    plan = named_fleet_plan("domain-outage", duration_s=0.5, replicas=3)
    kwargs = dict(health=HealthConfig(), fleet_fault_plan=plan,
                  telemetry=telemetry())
    kwargs.update(extra)
    return kwargs


def dumps(report):
    return json.dumps(report.to_dict(), sort_keys=True)


class TestNeverPerturb:
    def test_report_identical_with_telemetry_off(self):
        trace = small_trace()
        with_tel = run(trace, telemetry=telemetry()).to_dict()
        without = run(trace).to_dict()
        assert with_tel.pop("telemetry") is not None
        # Telemetry off leaves the serialized shape untouched: no key.
        assert "telemetry" not in without
        assert with_tel == without

    def test_chaos_report_identical_with_telemetry_off(self):
        trace = small_trace()
        with_tel = run(trace, **outage_kwargs()).to_dict()
        without = run(trace, **outage_kwargs(telemetry=None)).to_dict()
        with_tel.pop("telemetry")
        assert "telemetry" not in without
        assert with_tel == without


class TestByteDeterminism:
    def artifacts(self):
        cluster = Cluster(ClusterConfig(**outage_kwargs(
            server=small_server(), replicas=3)))
        reset_cache()
        report = cluster.run(small_trace())
        tel = cluster.telemetry
        return (dumps(report), window_log_lines(tel.rollups),
                alert_log_lines(tel.alerts),
                [json.dumps(b, sort_keys=True) for b in tel.incidents])

    def test_same_seed_artifacts_are_byte_identical(self):
        assert self.artifacts() == self.artifacts()


class TestIncidents:
    def test_outage_produces_eviction_incidents(self):
        cluster = Cluster(ClusterConfig(**outage_kwargs(
            server=small_server(), replicas=3)))
        reset_cache()
        report = cluster.run(small_trace())
        tel = cluster.telemetry
        reasons = [b["reason"] for b in tel.incidents]
        assert "eviction" in reasons
        assert report.health["evictions"] >= reasons.count("eviction") > 0
        eviction = next(b for b in tel.incidents if b["reason"] == "eviction")
        assert eviction["scorecard"]["evictions"] >= 1
        assert eviction["windows"]  # ring context captured
        assert all("alerts" in w for w in eviction["windows"])
        assert eviction["spans_partial"] is False
        assert [b["sequence"] for b in tel.incidents] == \
            list(range(len(tel.incidents)))

    def test_max_incidents_cap(self):
        cluster = Cluster(ClusterConfig(**outage_kwargs(
            server=small_server(), replicas=3,
            telemetry=telemetry(max_incidents=1))))
        reset_cache()
        cluster.run(small_trace())
        tel = cluster.telemetry
        assert len(tel.incidents) == 1
        assert tel.incidents_suppressed >= 1
        assert tel.report()["incidents_suppressed"] == \
            tel.incidents_suppressed

    def test_write_incidents_names_are_deterministic(self, tmp_path):
        cluster = Cluster(ClusterConfig(**outage_kwargs(
            server=small_server(), replicas=3)))
        reset_cache()
        cluster.run(small_trace())
        paths = cluster.telemetry.write_incidents(str(tmp_path / "bundles"))
        assert paths
        for seq, path in enumerate(paths):
            reason = cluster.telemetry.incidents[seq]["reason"]
            slug = reason.replace(":", "-").replace("/", "-")
            assert path.endswith(f"incident-{seq:03d}-{slug}.json")
        loaded = json.load(open(paths[0]))
        assert loaded == cluster.telemetry.incidents[0]


class TestReconciliation:
    def test_window_completions_sum_to_report(self):
        cluster = Cluster(ClusterConfig(telemetry=telemetry(),
                                        server=small_server(), replicas=3))
        reset_cache()
        report = cluster.run(small_trace())
        tel = cluster.telemetry
        assert sum(w["completed"] for w in tel.rollups.windows) == \
            report.completed
        assert tel.rollups.completions_observed == report.completed

    def test_sources_cover_fleet_and_replicas(self):
        cluster = Cluster(ClusterConfig(telemetry=telemetry(),
                                        server=small_server(), replicas=2))
        reset_cache()
        cluster.run(small_trace())
        sources = cluster.telemetry.report()["sources"]
        assert "fleet" in sources
        names = [r.name for r in cluster.replicas]
        assert all(name in sources for name in names)
        # Each replica also carries its device identity.
        for name in names:
            assert "@" in cluster.telemetry.rollups.device_of(name)

    def test_restarted_replicas_join_the_pipeline(self):
        plan = FleetFaultPlan(name="boom", crashes=(
            ReplicaCrashSpec(replica=1, at_s=0.1),))
        cluster = Cluster(ClusterConfig(
            server=small_server(), replicas=3, health=HealthConfig(),
            fleet_fault_plan=plan, telemetry=telemetry()))
        reset_cache()
        report = cluster.run(small_trace())
        assert report.health["restarts"] >= 1
        sources = cluster.telemetry.report()["sources"]
        restarted = [r.name for r in cluster.replicas if r.incarnation > 0]
        assert restarted
        assert all(name in sources for name in restarted)

    def test_replica_states_recorded_per_window(self):
        cluster = Cluster(ClusterConfig(**outage_kwargs(
            server=small_server(), replicas=3)))
        reset_cache()
        cluster.run(small_trace())
        states = [w["state"]["replicas"] for w in
                  cluster.telemetry.rollups.windows]
        seen = {state for doc in states for state in doc.values()}
        assert "active" in seen
        assert seen - {"active"}  # the outage shows up in the states


class TestReportWiring:
    def test_report_section_and_round_trip(self):
        rep = run(small_trace(), **outage_kwargs())
        doc = rep.to_dict()["telemetry"]
        assert doc["window_s"] == 0.05
        assert doc["windows"] > 0
        assert "alerts" in doc and "incidents" in doc
        loaded = ClusterReport.from_dict(json.loads(dumps(rep)))
        assert dumps(loaded) == dumps(rep)

    def test_render_mentions_telemetry(self):
        rep = run(small_trace(), telemetry=telemetry())
        assert "telemetry" in rep.render()
        plain = run(small_trace())
        assert "telemetry" not in plain.render()

    def test_alerts_disabled(self):
        cluster = Cluster(ClusterConfig(
            telemetry=telemetry(alerts=False),
            server=small_server(), replicas=2))
        reset_cache()
        rep = cluster.run(small_trace())
        assert cluster.telemetry.alerts is None
        assert "alerts" not in rep.to_dict()["telemetry"]


class TestDashboard:
    def test_renders_live_and_from_log(self, tmp_path):
        cluster = Cluster(ClusterConfig(**outage_kwargs(
            server=small_server(), replicas=3)))
        reset_cache()
        cluster.run(small_trace())
        tel = cluster.telemetry
        live = render_dashboard(tel.rollups.windows)
        assert "fleet telemetry" in live
        path = str(tmp_path / "windows.jsonl")
        write_window_log(path, tel.rollups)
        replayed = render_dashboard_from_log(path)
        assert "window" in replayed
        # Same windows in, same panel content out (the replayed
        # header lines additionally name the log path and its
        # window width).
        assert live.splitlines()[3:] == replayed.splitlines()[3:]
