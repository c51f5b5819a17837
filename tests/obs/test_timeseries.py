"""Windowed telemetry rollups: fold/flush mechanics, exports, and the
never-perturb / exact-under-sampling invariants (repro.obs.timeseries)."""

import json

import pytest

from repro.core.evalcache import reset_cache
from repro.errors import TraceSchemaError
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (TELEMETRY_SCHEMA_VERSION, Rollups,
                                  TelemetryConfig, _inject_label,
                                  load_window_log, render_openmetrics,
                                  shape_label, window_counter_total,
                                  window_log_lines, write_window_log)
from repro.serve import Server, ServerConfig, TrafficSpec, generate_trace
from repro.serve.loadgen import Arrival


def served(finish_s, rid=0, model="AlexNet", key=(224, 64, 3, 1, 3, 1)):
    """``observe_completion``'s leading arguments for one request."""
    request = Arrival(rid=rid, t_s=finish_s - 0.01, model=model,
                      layer="conv1", key=key)
    return request, finish_s - 0.005, finish_s


class TestConfig:
    def test_defaults(self):
        config = TelemetryConfig()
        assert config.window_s == 1.0 and config.alerts

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="window_s"):
            TelemetryConfig(window_s=0.0)

    @pytest.mark.parametrize("field",
                             ["ring_windows", "ring_spans", "max_incidents"])
    def test_ring_bounds_validated(self, field):
        with pytest.raises(ValueError, match=field):
            TelemetryConfig(**{field: 0})


class TestShapeLabel:
    def test_format(self):
        assert shape_label((224, 64, 3, 1, 3, 1)) == "i224.f64.k3.s1.c3.p1"


class TestFoldFlush:
    def test_counter_delta_lands_in_the_window_it_ticked_in(self):
        registry = MetricsRegistry()
        rollups = Rollups(window_s=1.0)
        rollups.add_source("server", registry)
        rollups.poll(0.0)
        registry.counter("serve_sheds_total").inc(3)
        # Crossing into window 1 folds the ticks into window 0.
        rollups.poll(1.2)
        assert len(rollups.windows) == 1
        doc = rollups.windows[0]
        assert doc["index"] == 0
        assert doc["counters"]["server"]["serve_sheds_total"] == 3.0

    def test_increments_before_attach_are_not_counted(self):
        registry = MetricsRegistry()
        registry.counter("serve_sheds_total").inc(100)
        rollups = Rollups(window_s=1.0)
        rollups.add_source("server", registry)
        rollups.poll(0.0)
        rollups.poll(1.5)
        assert rollups.windows[0]["counters"] == {}

    def test_polls_within_one_window_do_not_flush(self):
        rollups = Rollups(window_s=1.0)
        rollups.poll(0.1)
        rollups.poll(0.9)
        assert rollups.windows == []

    def test_gap_windows_flush_empty(self):
        rollups = Rollups(window_s=1.0)
        rollups.poll(0.0)
        rollups.poll(3.5)
        assert [w["index"] for w in rollups.windows] == [0, 1, 2]
        assert all(w["completed"] == 0 for w in rollups.windows)

    def test_completion_bucketed_by_finish_time(self):
        rollups = Rollups(window_s=1.0)
        rollups.observe_completion(*served(2.4))
        rollups.poll(0.0)
        rollups.poll(3.0)
        by_index = {w["index"]: w for w in rollups.windows}
        assert by_index[2]["completed"] == 1
        assert by_index[0]["completed"] == by_index[1]["completed"] == 0
        assert rollups.completions_observed == 1

    def test_latency_dimensions(self):
        rollups = Rollups(window_s=1.0)
        rollups.observe_completion(*served(0.5), device="k40c@abc",
                                   replica="r0")
        rollups.finalize(1.0)
        latency = rollups.windows[0]["latency"]
        assert set(latency) == {"tenant", "shape", "device", "replica"}
        assert "AlexNet" in latency["tenant"]
        assert "i224.f64.k3.s1.c3.p1" in latency["shape"]
        assert "k40c@abc" in latency["device"]
        assert latency["replica"]["r0"]["count"] == 1

    def test_finalize_marks_trailing_window_partial(self):
        rollups = Rollups(window_s=1.0)
        rollups.observe_completion(*served(1.2))
        rollups.finalize(1.5)
        last = rollups.windows[-1]
        assert last["partial"] is True
        assert last["end_s"] == 1.5
        # A window the run fully covered is not marked.
        assert "partial" not in rollups.windows[0]

    def test_finalize_on_boundary_is_not_partial(self):
        rollups = Rollups(window_s=1.0)
        rollups.observe_completion(*served(0.5))
        rollups.finalize(1.0)
        assert len(rollups.windows) == 1
        assert "partial" not in rollups.windows[0]

    def test_qps_uses_partial_span(self):
        rollups = Rollups(window_s=1.0)
        rollups.observe_completion(*served(0.1))
        rollups.observe_completion(*served(0.2, rid=1))
        rollups.finalize(0.5)
        assert rollups.windows[0]["qps"] == pytest.approx(4.0)

    def test_probe_windowed_by_delta(self):
        stats = {"hits": 10, "misses": 2}
        rollups = Rollups(window_s=1.0)
        rollups.add_probe("plan_cache", lambda: dict(stats))
        rollups.poll(0.0)
        stats["hits"] = 25
        rollups.poll(1.1)
        doc = rollups.windows[0]
        assert doc["probes"]["plan_cache"] == {"hits": 15.0}

    def test_state_probe_recorded_as_of_flush(self):
        states = {"r0": "active"}
        rollups = Rollups(window_s=1.0)
        rollups.add_state_probe("replicas", lambda: dict(states))
        rollups.poll(0.0)
        states["r0"] = "down"
        rollups.poll(1.1)
        assert rollups.windows[0]["state"]["replicas"] == {"r0": "down"}

    def test_listeners_run_in_subscription_order(self):
        rollups = Rollups(window_s=1.0)
        order = []
        rollups.on_window(lambda doc: order.append("first"))
        rollups.on_window(lambda doc: order.append("second"))
        rollups.finalize(1.5)
        assert order == ["first", "second", "first", "second"]

    def test_counter_total_sums_all_label_sets(self):
        registry = MetricsRegistry()
        rollups = Rollups(window_s=1.0)
        rollups.add_source("server", registry)
        rollups.poll(0.0)
        registry.counter("serve_sheds_total", cause="deadline").inc(2)
        registry.counter("serve_sheds_total", cause="queue_full").inc(5)
        registry.counter("serve_requests_offered_total").inc(9)
        rollups.poll(1.1)
        assert rollups.counter_total("serve_sheds_total") == 7.0
        assert window_counter_total(rollups.windows[0],
                                    "serve_requests_offered_total") == 9.0
        assert rollups.counter_total("nope") == 0.0


class TestExports:
    def build(self):
        registry = MetricsRegistry()
        rollups = Rollups(window_s=0.5)
        rollups.add_source("server", registry, device="k40c@abc")
        rollups.poll(0.0)
        registry.counter("serve_sheds_total").inc(4)
        rollups.observe_completion(*served(0.25))
        rollups.finalize(0.4)
        return rollups

    def test_window_log_round_trip(self, tmp_path):
        rollups = self.build()
        path = str(tmp_path / "windows.jsonl")
        count = write_window_log(path, rollups)
        assert count == 1 + len(rollups.windows)
        header, windows = load_window_log(path)
        assert header["format"] == "repro-telemetry"
        assert header["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert header["window_s"] == 0.5
        assert windows == rollups.windows

    def test_log_lines_are_sorted_key_json(self):
        for line in window_log_lines(self.build()):
            doc = json.loads(line)
            assert line == json.dumps(doc, sort_keys=True)

    def test_load_rejects_foreign_format(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"format": "not-telemetry", "type": "header"}\n')
        with pytest.raises(TraceSchemaError, match="not a telemetry"):
            load_window_log(str(path))

    def test_load_rejects_future_schema(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps(
            {"type": "header", "format": "repro-telemetry",
             "schema_version": TELEMETRY_SCHEMA_VERSION + 1}) + "\n")
        with pytest.raises(TraceSchemaError, match="schema_version"):
            load_window_log(str(path))

    def test_load_rejects_empty_and_garbage(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(TraceSchemaError, match="empty"):
            load_window_log(str(empty))
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("not json\n")
        with pytest.raises(TraceSchemaError, match="JSONL"):
            load_window_log(str(garbage))
        # Valid JSON that is not an object, as the header or any line.
        header = json.dumps({"type": "header", "format": "repro-telemetry",
                             "schema_version": TELEMETRY_SCHEMA_VERSION})
        for text in ("null\n", "5\n", "[1]\n", f"{header}\nnull\n",
                     f"{header}\n5\n", f'{header}\n"window"\n'):
            bad = tmp_path / "not-objects.jsonl"
            bad.write_text(text)
            with pytest.raises(TraceSchemaError, match="not a JSON object"):
                load_window_log(str(bad))

    def test_openmetrics_render(self):
        text = render_openmetrics(self.build())
        assert text.endswith("# EOF\n")
        assert 'serve_sheds_total{device="k40c@abc",source="server"} 4' \
            in text
        assert "repro_latency_seconds" in text
        # Deterministic: same state, same bytes.
        assert text == render_openmetrics(self.build())

    def test_inject_label(self):
        assert _inject_label("m_total", "source", "s") == \
            'm_total{source="s"}'
        assert _inject_label('m_total{result="hit"}', "source", "s") == \
            'm_total{source="s",result="hit"}'
        # A series already carrying the key keeps its own value (the
        # device-labeled evalcache counters must not get a second
        # device label injected).
        series = 'm_total{device="k40c@abc",result="hit"}'
        assert _inject_label(series, "device", "other@x") == series


def serve_with_telemetry(sample=None, window_s=0.01, seed=7):
    """One cold-cache serve run with rollups attached; returns the
    server (whose session state holds the rollups) and its report."""
    reset_cache()
    trace = generate_trace(TrafficSpec(duration_s=0.1, rate_rps=1500,
                                       seed=seed))
    server = Server(ServerConfig(timeout_s=0.25,
                                 telemetry=TelemetryConfig(
                                     window_s=window_s)))
    if sample is not None:
        server.enable_tracing(sample=sample)
    report = server.run(trace)
    return server, report


class TestServerIntegration:
    def test_windows_reconcile_with_report(self):
        server, report = serve_with_telemetry()
        windows = server.telemetry.windows
        assert windows
        assert sum(w["completed"] for w in windows) == report.completed
        assert server.telemetry.counter_total(
            "serve_requests_completed_total") == report.completed

    def test_telemetry_does_not_perturb_the_report(self):
        reset_cache()
        trace = generate_trace(TrafficSpec(duration_s=0.1, rate_rps=1500,
                                           seed=7))
        reset_cache()
        plain = Server(ServerConfig(timeout_s=0.25)).run(trace)
        reset_cache()
        server = Server(ServerConfig(
            timeout_s=0.25, telemetry=TelemetryConfig(window_s=0.01)))
        with_tel = server.run(trace)
        assert with_tel.to_dict() == plain.to_dict()

    def test_same_seed_window_logs_are_byte_identical(self):
        first = window_log_lines(serve_with_telemetry()[0].telemetry)
        second = window_log_lines(serve_with_telemetry()[0].telemetry)
        assert first == second

    def test_device_labels_in_window_counters(self):
        server, _ = serve_with_telemetry()
        label = server.device_label
        series = [s for w in server.telemetry.windows
                  for deltas in w["counters"].values() for s in deltas]
        assert any(f'device="{label}"' in s for s in series
                   if s.startswith("evalcache_requests_total"))
        assert any(f'device="{label}"' in s for s in series
                   if s.startswith("serve_plan_cache_requests_total"))


#: Engine-plane counters keyed to the dispatch path taken: sampled-out
#: batches ride the memoized fast path (timings replayed, no evalcache
#: access, no kernel launches), so these follow the actual path mix.
PATH_DEPENDENT = ("evalcache_", "gpusim_")


class TestExactUnderSampling:
    """Satellite invariant: --trace-sample N thins only the span
    stream; serving-plane windowed counters and latency percentiles
    stay exact at any rate."""

    def strip(self, windows):
        """Window docs minus probes and path-dependent engine
        counters — everything that must be exact under sampling."""
        stripped = []
        for w in windows:
            doc = {k: v for k, v in w.items() if k != "probes"}
            doc["counters"] = {
                source: {series: value for series, value in deltas.items()
                         if not series.startswith(PATH_DEPENDENT)}
                for source, deltas in w["counters"].items()}
            stripped.append(doc)
        return stripped

    @pytest.mark.parametrize("sample", [4, 16])
    def test_counters_and_latency_exact_at_any_rate(self, sample):
        full, full_report = serve_with_telemetry(sample=1)
        thinned, thin_report = serve_with_telemetry(sample=sample)
        assert thinned.obs.tracer.units_kept < thinned.obs.tracer.units_total
        assert self.strip(thinned.telemetry.windows) == \
            self.strip(full.telemetry.windows)
        # The report itself is byte-identical regardless of path mix.
        assert thin_report.to_dict() == full_report.to_dict()

    def test_span_free_run_matches_traced_serving_counters(self):
        traced, _ = serve_with_telemetry(sample=1)
        untraced, _ = serve_with_telemetry(sample=None)
        assert self.strip(untraced.telemetry.windows) == \
            self.strip(traced.telemetry.windows)

    def test_engine_counters_follow_the_dispatch_path(self):
        """Documenting the boundary of the invariant: a fully traced
        run sees evalcache hits where the memoized fast path would
        replay without touching the cache."""
        traced, _ = serve_with_telemetry(sample=1)
        untraced, _ = serve_with_telemetry(sample=None)
        assert traced.telemetry.counter_total("evalcache_requests_total") \
            > untraced.telemetry.counter_total("evalcache_requests_total")
