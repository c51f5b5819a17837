"""Flight recorder rings and incident bundles (repro.obs.recorder)."""

import json

from repro.gpusim.timing import SimClock
from repro.obs.recorder import (FlightRecorder, sampler_stats, span_records,
                                write_incident_bundle)
from repro.obs.timeseries import Rollups
from repro.obs.tracer import SimTracer, TraceSampler


def traced(n=3, tracer=None):
    """A tracer with ``n`` finished ``serve.batch`` roots."""
    tracer = tracer or SimTracer(SimClock())
    for i in range(n):
        with tracer.span("serve.batch", rid=i):
            with tracer.span("serve.dispatch"):
                pass
    return tracer


class TestSpanRecords:
    def test_none_and_disabled_tracers_yield_nothing(self):
        assert span_records(None, 10) == []

        class Disabled:
            enabled = False
        assert span_records(Disabled(), 10) == []

    def test_records_match_export_shape(self):
        records = span_records(traced(1), 10)
        assert [r["name"] for r in records] == ["serve.batch",
                                                "serve.dispatch"]
        root = records[0]
        assert root["type"] == "span" and root["parent"] is None
        assert set(root) == {"type", "sid", "parent", "name", "cat",
                             "start_s", "end_s", "attrs"}

    def test_limit_keeps_the_tail(self):
        records = span_records(traced(4), 3)
        assert len(records) == 3
        # The newest root's subtree survives whole.
        assert records[-2]["name"] == "serve.batch"
        assert records[-2]["attrs"]["rid"] == 3

    def test_sampler_delegates(self):
        tracer = traced(2, TraceSampler(SimClock(), every=1))
        assert span_records(tracer, 10) == span_records(traced(2), 10)


class TestSamplerStats:
    def test_plain_tracer_has_none(self):
        assert sampler_stats(SimTracer(SimClock())) is None
        assert sampler_stats(None) is None

    def test_sampler_reports_kept_counts(self):
        tracer = TraceSampler(SimClock(), every=2)
        for i in range(4):
            with tracer.span("serve.batch", rid=i):
                pass
        stats = sampler_stats(tracer)
        assert stats == {"units_total": 4, "units_kept": 2, "every": 2}


class TestFlightRecorder:
    def window(self, index):
        return {"type": "window", "index": index, "end_s": float(index + 1)}

    def test_window_ring_is_bounded(self):
        recorder = FlightRecorder("r0", ring_windows=3)
        for i in range(5):
            recorder.observe_window(self.window(i))
        bundle = recorder.bundle("test", 5.0)
        assert [w["index"] for w in bundle["windows"]] == [2, 3, 4]

    def test_bundle_shape(self):
        recorder = FlightRecorder("r0", tracer=traced(2), ring_spans=8)
        recorder.observe_window(self.window(0))
        bundle = recorder.bundle("eviction", 1.5,
                                 scorecard={"evictions": 1},
                                 alerts=["burn"], replica="r0")
        assert bundle["reason"] == "eviction" and bundle["t_s"] == 1.5
        assert bundle["recorder"] == "r0"
        assert bundle["context"] == {"replica": "r0"}
        assert bundle["scorecard"] == {"evictions": 1}
        assert bundle["alerts_active"] == ["burn"]
        assert bundle["spans_partial"] is False
        assert len(bundle["spans"]) == 4

    def test_span_ring_is_bounded(self):
        recorder = FlightRecorder("r0", tracer=traced(4), ring_spans=2)
        assert len(recorder.bundle("test", 0.0)["spans"]) == 2

    def test_sampled_stream_marked_partial(self):
        tracer = TraceSampler(SimClock(), every=2)
        for i in range(4):
            with tracer.span("serve.batch", rid=i):
                pass
        bundle = FlightRecorder("r0", tracer=tracer).bundle("test", 0.0)
        assert bundle["spans_partial"] is True
        assert bundle["sampler"]["units_kept"] == 2

    def test_sampler_that_kept_everything_is_not_partial(self):
        tracer = TraceSampler(SimClock(), every=1)
        with tracer.span("serve.batch"):
            pass
        bundle = FlightRecorder("r0", tracer=tracer).bundle("test", 0.0)
        assert bundle["spans_partial"] is False
        assert bundle["sampler"]["units_total"] == 1

    def test_recorder_subscribes_to_rollups(self):
        rollups = Rollups(window_s=1.0)
        recorder = FlightRecorder("fleet")
        rollups.on_window(recorder.observe_window)
        rollups.poll(0.0)
        rollups.poll(2.5)
        assert [w["index"] for w in recorder.window_ring] == [0, 1]


class TestWriteBundle:
    def test_byte_deterministic_and_loadable(self, tmp_path):
        recorder = FlightRecorder("fleet", tracer=traced(1))
        recorder.observe_window({"type": "window", "index": 0})
        bundle = recorder.bundle("alert:burn", 2.0)
        path = str(tmp_path / "incident.json")
        text = write_incident_bundle(path, bundle)
        assert open(path).read() == text + "\n"
        assert text == json.dumps(bundle, indent=1, sort_keys=True)
        assert json.loads(text) == json.loads(
            write_incident_bundle(str(tmp_path / "again.json"), bundle))
