"""Tests for the simulated-time SLO engine (repro.obs.slo)."""

import json

import pytest

from repro.core.evalcache import reset_cache
from repro.gpusim.timing import SimClock
from repro.obs.context import Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (DEFAULT_RULES, SLOMonitor, SLOPolicy, SLORule,
                           evaluate_rule, evaluate_slo, load_rules,
                           parse_rules)
from repro.obs.tracer import SimTracer
from repro.serve import Server, ServerConfig, TrafficSpec, generate_trace


def snapshot(offered=0.0, completed=0.0, latency=None):
    """A hand-built metrics snapshot in registry export shape."""
    registry = MetricsRegistry()
    if offered:
        registry.counter("serve_requests_offered_total").inc(offered)
    if completed:
        registry.counter("serve_requests_completed_total").inc(completed)
    for value in latency or ():
        registry.histogram("serve_latency_seconds").observe(value)
    return registry.snapshot()


class TestRuleValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            SLORule(name="x", kind="vibes", threshold=1.0)

    def test_histogram_stat_needs_metric(self):
        with pytest.raises(ValueError, match="needs a metric"):
            SLORule(name="x", kind="histogram_stat", threshold=1.0)

    def test_histogram_stat_unknown_stat_rejected(self):
        with pytest.raises(ValueError, match="unknown stat"):
            SLORule(name="x", kind="histogram_stat", threshold=1.0,
                    metric="serve_latency_seconds", stat="p123")

    def test_budget_burn_needs_positive_budget(self):
        with pytest.raises(ValueError, match="positive"):
            SLORule(name="x", kind="error_budget_burn", threshold=1.0)

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="window_s"):
            SLOPolicy(window_s=0.0)
        with pytest.raises(ValueError, match="at least one rule"):
            SLOPolicy(rules=())


class TestEvaluate:
    def test_latency_rule_passes_and_fails(self):
        rule = SLORule(name="p99", kind="latency_p99", threshold=0.1)
        ok = evaluate_rule(rule, snapshot(latency=[0.05] * 10))
        assert ok.ok and ok.value == pytest.approx(0.05)
        bad = evaluate_rule(rule, snapshot(latency=[0.5] * 10))
        assert not bad.ok and bad.value == pytest.approx(0.5)
        assert ">" in bad.detail

    def test_absent_metric_is_vacuously_ok(self):
        rule = SLORule(name="p99", kind="latency_p99", threshold=0.1)
        verdict = evaluate_rule(rule, snapshot())
        assert verdict.ok
        assert verdict.value is None
        assert "vacuously" in verdict.detail

    def test_histogram_stat_general_form(self):
        rule = SLORule(name="wait", kind="histogram_stat", threshold=1.0,
                       metric="serve_queue_wait_seconds", stat="max")
        registry = MetricsRegistry()
        registry.histogram("serve_queue_wait_seconds").observe(2.0)
        assert not evaluate_rule(rule, registry.snapshot()).ok

    def test_shed_rate_from_offered_and_completed(self):
        rule = SLORule(name="shed", kind="shed_rate", threshold=0.1)
        assert evaluate_rule(rule, snapshot(offered=100, completed=95)).ok
        v = evaluate_rule(rule, snapshot(offered=100, completed=80))
        assert not v.ok
        assert v.value == pytest.approx(0.2)

    def test_shed_rate_sums_labelled_series(self):
        registry = MetricsRegistry()
        registry.counter("serve_requests_offered_total").inc(50)
        registry.counter("serve_requests_completed_total",
                         implementation="cudnn").inc(20)
        registry.counter("serve_requests_completed_total",
                         implementation="fft").inc(30)
        rule = SLORule(name="shed", kind="shed_rate", threshold=0.01)
        assert evaluate_rule(rule, registry.snapshot()).value == 0.0

    def test_zero_offered_is_zero_shed(self):
        rule = SLORule(name="shed", kind="shed_rate", threshold=0.0)
        assert evaluate_rule(rule, snapshot()).ok

    def test_error_budget_burn(self):
        rule = SLORule(name="budget", kind="error_budget_burn",
                       threshold=1.0, budget=0.05)
        # 2% failures against a 5% budget: burn 0.4x
        v = evaluate_rule(rule, snapshot(offered=100, completed=98))
        assert v.ok and v.value == pytest.approx(0.4)
        # 10% failures: burn 2x, budget spent twice over
        v = evaluate_rule(rule, snapshot(offered=100, completed=90))
        assert not v.ok and v.value == pytest.approx(2.0)

    def test_evaluation_is_pure(self):
        snap = snapshot(offered=100, completed=90, latency=[0.3] * 5)
        blobs = [json.dumps(evaluate_slo(snap, DEFAULT_RULES).to_dict(),
                            sort_keys=True) for _ in range(2)]
        assert blobs[0] == blobs[1]
        assert snap == snapshot(offered=100, completed=90,
                                latency=[0.3] * 5)   # input untouched

    def test_report_shape(self):
        report = evaluate_slo(snapshot(offered=100, completed=50),
                              DEFAULT_RULES, source="test.json")
        assert not report.passed
        assert {v.rule.name for v in report.failing} == \
            {"shed-rate", "error-budget"}
        text = report.render()
        assert "[FAIL] shed-rate" in text
        assert "verdict: FAIL (1/3 rules ok)" in text


class TestRulesFiles:
    def test_parse_list_and_wrapper_forms(self):
        entry = {"name": "p99", "kind": "latency_p99", "threshold": 0.25}
        assert parse_rules([entry]) == parse_rules({"rules": [entry]})
        assert parse_rules([entry])[0].threshold == 0.25

    def test_empty_or_non_list_rejected(self):
        with pytest.raises(ValueError, match="non-empty list"):
            parse_rules([])
        with pytest.raises(ValueError, match="non-empty list"):
            parse_rules({"rules": "nope"})

    def test_unknown_and_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            parse_rules([{"name": "x", "kind": "latency_p99",
                          "threshold": 1.0, "severity": "high"}])
        with pytest.raises(ValueError, match="missing keys"):
            parse_rules([{"name": "x"}])

    def test_load_rules_round_trip(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [
            {"name": "p99", "kind": "latency_p99", "threshold": 0.25},
            {"name": "shed", "kind": "shed_rate", "threshold": 0.05},
        ]}))
        rules = load_rules(str(path))
        assert [r.name for r in rules] == ["p99", "shed"]

    def test_load_rules_bad_json_names_file(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_rules(str(path))

    def test_load_rules_nested_too_deep_is_not_valid_json(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text("[" * 5000)
        with pytest.raises(ValueError, match="not valid JSON"):
            load_rules(str(path))



#: Rule fields of the wrong type: (fields over a valid latency rule,
#: the error after ``rule #1: ``).
MISTYPED = {
    "budget_string": ({"kind": "error_budget_burn", "budget": "x"},
                      "'budget' must be a number, got 'x'"),
    "threshold_string": ({"threshold": "x"},
                         "'threshold' must be a number, got 'x'"),
    "threshold_null": ({"threshold": None},
                       "'threshold' must be a number, got None"),
    "threshold_bool": ({"threshold": True},
                       "'threshold' must be a number, got True"),
    "name_number": ({"name": 5}, "'name' must be a string, got 5"),
    "metric_number": ({"metric": 3}, "'metric' must be a string, got 3"),
}


class TestMistypedRules:
    """A rule field of the wrong type is one ``ValueError`` naming the
    rule's index, so the CLI prints one ``repro: error:`` line."""

    def rules(self, case):
        fields, _ = MISTYPED[case]
        return [{"name": "shed", "kind": "shed_rate", "threshold": 0.05},
                dict({"name": "p99", "kind": "latency_p99",
                      "threshold": 0.25}, **fields)]

    @pytest.mark.parametrize("case", list(MISTYPED))
    def test_parse_names_rule_and_field(self, case):
        with pytest.raises(ValueError) as exc:
            parse_rules(self.rules(case))
        assert str(exc.value) == f"rule #1: {MISTYPED[case][1]}"

    @pytest.mark.parametrize("case", list(MISTYPED))
    def test_slo_command_prints_one_error_line(self, case, tmp_path,
                                               capsys):
        from repro.__main__ import main
        rules = tmp_path / "bad.json"
        rules.write_text(json.dumps(self.rules(case)))
        metrics = tmp_path / "m.json"
        metrics.write_text(json.dumps(snapshot(
            offered=10, completed=9, latency=[0.01, 0.02])))
        assert main(["slo", str(metrics), "--rules", str(rules)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"repro: error: {rules}: rule #1: {MISTYPED[case][1]}"]


class TestMonitor:
    def make_obs(self):
        return Observability(tracer=SimTracer(SimClock()),
                             registry=MetricsRegistry())

    def test_violation_and_recovery_are_edge_triggered(self):
        obs = self.make_obs()
        policy = SLOPolicy(rules=(SLORule(name="shed", kind="shed_rate",
                                          threshold=0.1),),
                           window_s=0.01)
        monitor = SLOMonitor(policy, obs)
        with obs.tracer.span("serve.run", cat="serve"):
            obs.registry.counter("serve_requests_offered_total").inc(10)
            obs.tracer.clock.advance(0.01)
            monitor.poll(obs.tracer.clock.now_s)   # 0 completed: violating
            obs.tracer.clock.advance(0.01)
            monitor.poll(obs.tracer.clock.now_s)   # still violating: no event
            obs.registry.counter(
                "serve_requests_completed_total").inc(10)
            obs.tracer.clock.advance(0.01)
            monitor.poll(obs.tracer.clock.now_s)   # recovered
        events = [e.name for e in obs.tracer.roots[0].events]
        assert events == ["slo.violation", "slo.recovered"]
        assert monitor.violations == 1
        assert obs.registry.value("slo_violations_total", rule="shed") == 1

    def test_polling_cadence_catches_up(self):
        obs = self.make_obs()
        policy = SLOPolicy(window_s=0.01)
        monitor = SLOMonitor(policy, obs)
        monitor.poll(0.055)     # one big clock jump: 5 windows due
        assert monitor.polls == 5

    def test_finalize_reports_without_emitting(self):
        obs = self.make_obs()
        obs.registry.counter("serve_requests_offered_total").inc(10)
        monitor = SLOMonitor(SLOPolicy(), obs)
        report = monitor.finalize(1.0)
        assert not report.passed
        assert monitor.violations == 0
        assert obs.registry.value("slo_violations_total",
                                  rule="shed-rate") == 0


class TestServerIntegration:
    SPEC = TrafficSpec(duration_s=0.05, rate_rps=200.0, seed=7)

    def run_server(self, slo=None):
        reset_cache()
        trace = generate_trace(self.SPEC)
        server = Server(ServerConfig(slo=slo))
        report = server.run(trace)
        return server, report

    def test_monitored_run_sets_report_and_stays_deterministic(self):
        plain, plain_stats = self.run_server()
        monitored, mon_stats = self.run_server(slo=SLOPolicy())
        assert plain.slo_report is None
        assert monitored.slo_report is not None
        assert monitored.slo_report.passed
        # monitoring must not perturb the simulation itself
        assert mon_stats.completed == plain_stats.completed
        assert monitored.clock.now_s == plain.clock.now_s

    def test_impossible_slo_fails_the_run(self):
        policy = SLOPolicy(rules=(SLORule(name="impossible",
                                          kind="latency_max",
                                          threshold=0.0),),
                           window_s=0.005)
        server, _ = self.run_server(slo=policy)
        report = server.slo_report
        assert not report.passed
        assert report.failing[0].rule.name == "impossible"
        assert server.obs.registry.value("slo_violations_total",
                                         rule="impossible") >= 1


class TestMonitorHooks:
    """The cluster-facing extensions: snapshot_fn, listener edges,
    recovery counting, and the exposed next-poll horizon."""

    def make_obs(self):
        return Observability(tracer=SimTracer(SimClock()),
                             registry=MetricsRegistry())

    def make_policy(self):
        return SLOPolicy(rules=(SLORule(name="shed", kind="shed_rate",
                                        threshold=0.1),),
                         window_s=0.01)

    def test_snapshot_fn_overrides_the_registry_view(self):
        obs = self.make_obs()
        # The registry itself stays empty: the monitor must judge the
        # injected snapshot (10 offered, 0 completed -> shed violation).
        monitor = SLOMonitor(self.make_policy(), obs,
                             snapshot_fn=lambda: snapshot(offered=10))
        monitor.poll(0.01)
        assert monitor.violations == 1

    def test_listener_sees_both_edges_in_order(self):
        obs = self.make_obs()
        views = [snapshot(offered=10), snapshot(offered=10, completed=10)]
        monitor = SLOMonitor(self.make_policy(), obs,
                             snapshot_fn=lambda: views[0])
        edges = []
        monitor._listener = lambda rule, failed, now_s, verdict: \
            edges.append((rule.name, failed, now_s))
        monitor.poll(0.01)
        views[0] = views[1]
        monitor.poll(0.02)
        assert edges == [("shed", True, 0.01), ("shed", False, 0.02)]

    def test_recoveries_counted_and_published(self):
        obs = self.make_obs()
        views = [snapshot(offered=10)]
        monitor = SLOMonitor(self.make_policy(), obs,
                             snapshot_fn=lambda: views[0])
        monitor.poll(0.01)
        views[0] = snapshot(offered=10, completed=10)
        monitor.poll(0.02)
        assert monitor.recoveries == 1
        assert obs.registry.value("slo_recoveries_total", rule="shed") == 1

    def test_in_violation_tracks_episodes(self):
        obs = self.make_obs()
        views = [snapshot(offered=10)]
        monitor = SLOMonitor(self.make_policy(), obs,
                             snapshot_fn=lambda: views[0])
        assert not monitor.in_violation
        monitor.poll(0.01)
        assert monitor.in_violation
        views[0] = snapshot(offered=10, completed=10)
        monitor.poll(0.02)
        assert not monitor.in_violation

    def test_next_poll_s_exposes_the_event_horizon(self):
        monitor = SLOMonitor(self.make_policy(), self.make_obs())
        assert monitor.next_poll_s == pytest.approx(0.01)
        monitor.poll(0.025)
        assert monitor.next_poll_s == pytest.approx(0.03)
