"""Tests for the Chrome-trace / JSONL / metrics exporters."""

import json

import pytest

from repro.gpusim.timing import SimClock
from repro.obs.export import (chrome_trace, ensure_monotonic, jsonl_lines,
                              metadata_events, sort_events, span_events,
                              write_chrome_trace, write_jsonl, write_metrics)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import SimTracer


@pytest.fixture
def traced():
    """A small mixed-category span forest."""
    clock = SimClock()
    tracer = SimTracer(clock)
    with tracer.span("serve.run", cat="serve"):
        with tracer.span("serve.batch", cat="serve", fill=2):
            clock.advance(0.001)
            tracer.event("fault.transient", attempt=1)
            clock.advance(0.001)
            tracer.add_span("sgemm_fwd", cat="gpu",
                            start_s=0.001, end_s=0.0015, role="GEMM")
        clock.advance(0.001)
    return tracer


class TestSpanEvents:
    def test_spans_become_complete_events(self, traced):
        events = span_events(traced)
        xs = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in xs} == {"serve.run", "serve.batch",
                                           "sgemm_fwd"}

    def test_categories_map_to_rows(self, traced):
        events = span_events(traced)
        by_name = {e["name"]: e for e in events if e["ph"] == "X"}
        assert by_name["serve.run"]["pid"] == 1
        assert by_name["sgemm_fwd"]["pid"] == 2

    def test_span_events_become_instants(self, traced):
        instants = [e for e in span_events(traced) if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["fault.transient"]
        assert instants[0]["args"] == {"attempt": 1}

    def test_timestamps_in_microseconds(self, traced):
        by_name = {e["name"]: e for e in span_events(traced)
                   if e["ph"] == "X"}
        assert by_name["sgemm_fwd"]["ts"] == pytest.approx(1000.0)
        assert by_name["sgemm_fwd"]["dur"] == pytest.approx(500.0)


class TestOrdering:
    def test_sort_events_puts_enclosing_span_first(self):
        events = [
            {"ph": "X", "pid": 1, "tid": 1, "ts": 0.0, "dur": 1.0,
             "name": "child"},
            {"ph": "X", "pid": 1, "tid": 1, "ts": 0.0, "dur": 5.0,
             "name": "parent"},
        ]
        assert [e["name"] for e in sort_events(events)] == \
            ["parent", "child"]

    def test_ensure_monotonic_nudges_collisions(self):
        events = [
            {"ph": "X", "pid": 0, "tid": 1, "ts": 1.0, "dur": 0.0},
            {"ph": "X", "pid": 0, "tid": 1, "ts": 1.0, "dur": 0.0},
            {"ph": "X", "pid": 0, "tid": 2, "ts": 1.0, "dur": 0.0},
        ]
        out = ensure_monotonic(events)
        row1 = [e["ts"] for e in out if e["tid"] == 1]
        assert row1[1] > row1[0]
        # other rows are independent
        assert [e["ts"] for e in out if e["tid"] == 2] == [1.0]

    def test_ensure_monotonic_keeps_metadata_in_front(self):
        events = [
            {"ph": "X", "pid": 0, "tid": 1, "ts": 1.0, "dur": 0.0},
            {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
             "args": {"name": "p"}},
        ]
        assert ensure_monotonic(events)[0]["ph"] == "M"


class TestMetadata:
    def test_rows_named(self):
        events = metadata_events({1: ("serve", {1: "scheduler"}),
                                  2: ("gpusim", {1: "compute"})})
        names = [(e["name"], e["args"]["name"]) for e in events]
        assert ("process_name", "serve") in names
        assert ("thread_name", "compute") in names


class TestChromeTrace:
    def test_document_shape(self, traced):
        doc = chrome_trace(traced, seed=7)
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["seed"] == 7
        assert doc["otherData"]["spans"] == 3
        assert doc["otherData"]["events"] == 1
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["args"]["name"] for e in meta
                if e["name"] == "process_name"} == {"serve", "gpusim"}

    def test_registry_snapshot_embedded(self, traced):
        registry = MetricsRegistry()
        registry.counter("serve_retries_total").inc(2)
        doc = chrome_trace(traced, registry)
        assert doc["otherData"]["metrics"]["counters"][
            "serve_retries_total"] == 2

    def test_write_round_trips_and_is_deterministic(self, traced, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        text1 = write_chrome_trace(str(p1), traced, seed=7)
        text2 = write_chrome_trace(str(p2), traced, seed=7)
        assert p1.read_text() == p2.read_text()
        assert text1 == text2
        doc = json.loads(p1.read_text())
        assert doc["otherData"]["spans"] == 3


class TestJsonl:
    def test_header_record_first(self, traced):
        from repro.obs.export import SCHEMA_VERSION

        head = json.loads(jsonl_lines(traced)[0])
        assert head == {"type": "header", "format": "repro-trace",
                        "schema_version": SCHEMA_VERSION}

    def test_one_line_per_span_and_event(self, traced):
        lines = jsonl_lines(traced)
        parsed = [json.loads(line) for line in lines]
        assert sum(1 for d in parsed if d["type"] == "span") == 3
        assert sum(1 for d in parsed if d["type"] == "event") == 1

    def test_parent_links_preserved(self, traced):
        parsed = [json.loads(line) for line in jsonl_lines(traced)]
        by_name = {d["name"]: d for d in parsed if d["type"] == "span"}
        assert by_name["serve.run"]["parent"] is None
        assert by_name["serve.batch"]["parent"] == \
            by_name["serve.run"]["sid"]

    def test_write_returns_line_count(self, traced, tmp_path):
        path = tmp_path / "events.jsonl"
        n = write_jsonl(str(path), traced)
        assert n == 5                      # header + 3 spans + 1 event
        assert len(path.read_text().splitlines()) == 5


class TestMetricsSnapshotRoundTrip:
    def test_schema_version_round_trips(self, tmp_path):
        from repro.obs.export import SCHEMA_VERSION, load_metrics_snapshot

        registry = MetricsRegistry()
        registry.counter("serve_requests_offered_total").inc(5)
        path = tmp_path / "metrics.json"
        write_metrics(str(path), registry)
        doc = load_metrics_snapshot(str(path))
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["counters"]["serve_requests_offered_total"] == 5

    def test_unknown_version_rejected(self, tmp_path):
        from repro.errors import TraceSchemaError
        from repro.obs.export import load_metrics_snapshot

        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(
            {"counters": {}, "gauges": {}, "histograms": {},
             "schema_version": 99}))
        with pytest.raises(TraceSchemaError, match="schema_version"):
            load_metrics_snapshot(str(path))

    def test_preversioning_snapshot_loads(self, tmp_path):
        from repro.obs.export import load_metrics_snapshot

        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(
            {"counters": {"a_total": 1}, "gauges": {}, "histograms": {}}))
        assert load_metrics_snapshot(str(path))["counters"]["a_total"] == 1

    def test_chrome_trace_embedded_snapshot_loads(self, traced, tmp_path):
        from repro.obs.export import load_metrics_snapshot

        registry = MetricsRegistry()
        registry.counter("serve_retries_total").inc(2)
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), traced, registry)
        doc = load_metrics_snapshot(str(path))
        assert doc["counters"]["serve_retries_total"] == 2

    def test_not_a_snapshot_rejected(self, tmp_path):
        from repro.errors import TraceSchemaError
        from repro.obs.export import load_metrics_snapshot

        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(TraceSchemaError, match="not a metrics snapshot"):
            load_metrics_snapshot(str(path))
        # Valid JSON whose sections or values have the wrong shape.
        for doc in ({"otherData": 5},
                    {"otherData": None},
                    {"counters": 5},
                    {"counters": {}, "histograms": 7},
                    {"counters": {}, "gauges": [1]},
                    {"counters": {"a_total": "3"}},
                    {"counters": {"a_total": True}},
                    {"counters": {}, "gauges": {"g": None}},
                    {"counters": {}, "histograms": {"h": 2.0}},
                    {"counters": {}, "histograms": {"h": {"p99": "x"}}}):
            path.write_text(json.dumps(doc))
            with pytest.raises(TraceSchemaError):
                load_metrics_snapshot(str(path))


class TestMetricsExport:
    def test_write_metrics_sorted_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("b_total").inc()
        registry.counter("a_total").inc(2)
        path = tmp_path / "metrics.json"
        write_metrics(str(path), registry)
        doc = json.loads(path.read_text())
        assert list(doc["counters"]) == ["a_total", "b_total"]
