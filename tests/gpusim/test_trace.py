"""Tests for the Chrome-trace export of a bare profiler session."""

import json

import pytest

from repro.config import BASE_CONFIG
from repro.frameworks.registry import get_implementation
from repro.obs.export import profiler_trace


@pytest.fixture(scope="module")
def session():
    return get_implementation("fbfft").profile_iteration(BASE_CONFIG).profiler


def trace_events(profiler):
    """The document's timed events (metadata rows dropped)."""
    return [e for e in profiler_trace(profiler)["traceEvents"]
            if e["ph"] != "M"]


class TestTraceEvents:
    def test_one_event_per_kernel_and_transfer(self, session):
        events = trace_events(session)
        kernels = [e for e in events if e["cat"] == "kernel"]
        copies = [e for e in events if e["cat"] == "memcpy"]
        assert len(kernels) == len(session.executions)
        assert len(copies) == len(session.transfers.records)

    def test_kernels_back_to_back(self, session):
        kernels = [e for e in trace_events(session) if e["cat"] == "kernel"]
        for prev, cur in zip(kernels, kernels[1:]):
            assert cur["ts"] == pytest.approx(prev["ts"] + prev["dur"],
                                              rel=1e-9)

    def test_durations_match_timings(self, session):
        kernels = [e for e in trace_events(session) if e["cat"] == "kernel"]
        total = sum(e["dur"] for e in kernels) / 1e6
        assert total == pytest.approx(session.gpu_time())

    def test_args_carry_metrics(self, session):
        ev = trace_events(session)[0]
        assert "achieved_occupancy" in ev["args"]
        assert "ipc" in ev["args"]

    def test_async_copies_start_at_zero(self, session):
        copies = [e for e in trace_events(session)
                  if e["cat"] == "memcpy" and e["args"]["async"]]
        if copies:
            assert min(c["ts"] for c in copies) == 0.0


class TestChromeTrace:
    def test_valid_json_document(self, session):
        doc = json.loads(json.dumps(profiler_trace(session)))
        assert "traceEvents" in doc
        assert doc["otherData"]["device"] == "Tesla K40c"

    def test_writes_file(self, session, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(profiler_trace(session), indent=1,
                                   sort_keys=True))
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]


class TestPerfettoValidity:
    """The exported document must survive a Perfetto-strict round trip."""

    def test_metadata_rows_name_processes_and_threads(self, session):
        doc = profiler_trace(session)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in meta} == {"process_name", "thread_name"}
        process = next(e for e in meta if e["name"] == "process_name")
        assert process["args"]["name"] == "gpusim"

    def test_round_trip_strictly_monotonic_per_row(self, session, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(profiler_trace(session), indent=1,
                                   sort_keys=True))
        doc = json.loads(path.read_text())
        last = {}
        for e in doc["traceEvents"]:
            if e.get("ph") == "M":
                continue
            assert e["dur"] >= 0.0
            row = (e["pid"], e["tid"])
            if row in last:
                assert e["ts"] > last[row]
            last[row] = e["ts"]

    def test_timestamps_strictly_increase_within_each_row(self, session):
        rows = {}
        for e in trace_events(session):
            rows.setdefault((e["pid"], e["tid"]), []).append(e["ts"])
        for ts in rows.values():
            assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_timed_events_carry_required_keys(self, session):
        for e in trace_events(session):
            assert {"name", "cat", "ph", "pid", "tid", "ts", "dur"} <= set(e)
