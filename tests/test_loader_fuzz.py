"""Loaders on random input: each returns or raises its typed error.

``obs.analyze.parse_jsonl`` gets random JSON records, most of them
shaped like the span and event records a trace log holds, with fields
missing, mistyped or pointing at other spans (loops included).
``devices.plan.parse_fleet`` gets random strings, most of them shaped
like ``slug:count`` lists.  ``obs.slo.parse_rules``, the metrics
snapshot loader and the telemetry window-log loader get documents
shaped like what they read, with one field dropped or retyped, and
junk.  Nothing but the loader's own error type may escape.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.devices.plan import parse_fleet
from repro.errors import TraceSchemaError
from repro.obs.analyze import parse_jsonl
from repro.obs.export import load_metrics_snapshot
from repro.obs.slo import _KINDS, _STATS, evaluate_slo, parse_rules
from repro.obs.timeseries import (TELEMETRY_SCHEMA_VERSION,
                                  WINDOW_LOG_FORMAT, load_window_log)

FUZZ = settings(max_examples=120, deadline=None, derandomize=True)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
NAMES = st.text(max_size=3)


@st.composite
def trace_logs(draw):
    """JSONL lines of a small trace: a header, spans with unique ids
    whose parents and events point anywhere (themselves, a later
    span, nowhere), in any order; then maybe one field deleted or
    given a random JSON value, and maybe one junk line."""
    n = draw(st.integers(0, 5))
    ids = st.none() | st.integers(0, n)
    records = [{"type": "span", "sid": sid, "parent": draw(ids),
                "name": draw(NAMES), "cat": "serve",
                "start_s": draw(st.floats(0, 1)),
                "end_s": draw(st.floats(1, 2)),
                "attrs": draw(st.dictionaries(NAMES, JSON, max_size=2))}
               for sid in range(n)]
    records += [{"type": "event", "name": draw(NAMES),
                 "t_s": draw(st.floats(0, 2)), "span": draw(ids),
                 "attrs": {}} for _ in range(draw(st.integers(0, 2)))]
    records = draw(st.permutations(records))
    if records and draw(st.booleans()):
        rec = draw(st.sampled_from(records))
        name = draw(st.sampled_from(sorted(rec)))
        if draw(st.booleans()):
            del rec[name]
        else:
            rec[name] = draw(JSON)
    lines = [json.dumps(rec) for rec in records]
    if draw(st.booleans()):
        version = draw(st.integers(0, 2))
        lines.insert(0, json.dumps({"type": "header",
                                    "schema_version": version}))
    if draw(st.booleans()):
        junk = draw(JSON.map(json.dumps) | st.text(max_size=8))
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return lines


@FUZZ
@given(trace_logs())
def test_parse_jsonl_returns_or_raises_trace_schema_error(lines):
    try:
        run = parse_jsonl(lines, source="fuzz.jsonl")
    except TraceSchemaError as exc:
        assert str(exc).startswith("fuzz.jsonl")
        return
    # Every span record loaded is reachable from a root.
    spans = sum(json.loads(line).get("type") == "span"
                for line in lines if line.strip())
    assert run.span_count() == spans


DEVICES = ["k40c", "m40", "maxwell", "pascal", "k20x"]
SLUGS = st.sampled_from(DEVICES + ["Tesla K40c", "K40C", "nope", ""])
COUNTS = st.integers(-2, 5).map(str) | st.text("0123456789 -+_x", max_size=4)
ENTRY = st.tuples(SLUGS, st.sampled_from([":", "", "::"]), COUNTS).map(
    "".join)
VALID = st.lists(st.tuples(st.sampled_from(DEVICES), st.integers(1, 5)),
                 min_size=1, max_size=3, unique_by=lambda e: e[0]).map(
    lambda entries: ",".join(f"{slug}:{count}" for slug, count in entries))
FLEETS = VALID | st.lists(ENTRY, max_size=4).map(",".join) \
    | st.text(max_size=12)


@FUZZ
@given(FLEETS)
def test_parse_fleet_returns_or_raises_value_error(text):
    try:
        ceilings = parse_fleet(text)
    except ValueError:  # UnknownDeviceError is one too
        return
    names = [name for name, _ in ceilings]
    assert ceilings and len(set(names)) == len(names)
    assert all(count >= 1 for _, count in ceilings)


def mangle(draw, doc):
    """Maybe drop one field of ``doc`` or give it a random JSON value."""
    if doc and draw(st.booleans()):
        name = draw(st.sampled_from(sorted(doc)))
        if draw(st.booleans()):
            del doc[name]
        else:
            doc[name] = draw(JSON)


#: Junk a loader may be handed instead: random JSON, random text, or
#: JSON nested too deep for the ``json`` module.
JUNK = JSON.map(json.dumps) | st.text(max_size=8) \
    | st.sampled_from(["[" * 5000, "{" + '"a":{' * 3000])
NUMBERS = st.integers() | st.floats()


@st.composite
def rules_docs(draw):
    """A list of rule objects, maybe under ``{"rules": ...}``, one of
    them maybe mangled; or any JSON value."""
    rules = [{"name": draw(NAMES),
              "kind": draw(st.sampled_from(_KINDS + ("nope",))),
              "threshold": draw(NUMBERS),
              "metric": draw(st.sampled_from(["serve_latency_seconds", ""])),
              "stat": draw(st.sampled_from(_STATS + ("p42",))),
              "budget": draw(NUMBERS)}
             for _ in range(draw(st.integers(0, 3)))]
    if rules:
        mangle(draw, draw(st.sampled_from(rules)))
    doc = {"rules": rules} if draw(st.booleans()) else rules
    return draw(st.just(doc) | JSON)


SNAPSHOT = {
    "counters": {"serve_requests_offered_total": 10,
                 "serve_requests_completed_total": 9},
    "histograms": {"serve_latency_seconds": {
        "count": 9, "sum": 0.09, "min": 0.001, "mean": 0.01, "max": 0.1,
        "p50": 0.01, "p95": 0.05, "p99": 0.1}},
}


@FUZZ
@given(rules_docs())
def test_parse_rules_returns_or_raises_value_error(doc):
    try:
        rules = parse_rules(doc)
    except ValueError:
        return
    # A rule that loads evaluates.
    for snapshot in ({}, SNAPSHOT):
        assert len(evaluate_slo(snapshot, rules).verdicts) == len(rules)


@st.composite
def snapshot_files(draw):
    """A metrics snapshot, maybe wrapped in a Chrome trace's
    ``otherData``, with one section or one entry maybe mangled; or
    junk."""
    doc = {"counters": draw(st.dictionaries(NAMES, NUMBERS, max_size=2)),
           "gauges": draw(st.dictionaries(NAMES, NUMBERS, max_size=2)),
           "histograms": draw(st.dictionaries(
               NAMES, st.dictionaries(NAMES, NUMBERS, max_size=2),
               max_size=2)),
           "schema_version": draw(st.integers(0, 2))}
    mangle(draw, draw(st.sampled_from([doc] + [
        section for section in doc.values() if isinstance(section, dict)])))
    if draw(st.booleans()):
        doc = {"otherData": {"metrics": doc}}
        mangle(draw, doc["otherData"])
    return draw(st.just(json.dumps(doc)) | JUNK)


@FUZZ
@given(snapshot_files())
def test_load_metrics_snapshot_returns_or_raises_trace_schema_error(
        tmp_path_factory, text):
    path = tmp_path_factory.mktemp("snapshot") / "m.json"
    path.write_text(text)
    try:
        doc = load_metrics_snapshot(str(path))
    except TraceSchemaError as exc:
        assert str(exc).startswith(str(path))
        return
    assert isinstance(doc["counters"], dict)


@st.composite
def window_logs(draw):
    """A window log: a header, then window records; the header or one
    window maybe mangled, and maybe a junk line anywhere."""
    header = {"type": "header", "format": WINDOW_LOG_FORMAT,
              "schema_version": TELEMETRY_SCHEMA_VERSION, "window_s": 0.05}
    windows = [{"type": draw(st.sampled_from(["window", "other"])),
                "index": i, "qps": draw(NUMBERS)}
               for i in range(draw(st.integers(0, 3)))]
    mangle(draw, draw(st.sampled_from([header] + windows)))
    lines = [json.dumps(rec) for rec in [header] + windows]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(JUNK))
    return "".join(line + "\n" for line in lines)


@FUZZ
@given(window_logs())
def test_load_window_log_returns_or_raises_trace_schema_error(
        tmp_path_factory, text):
    path = tmp_path_factory.mktemp("windows") / "w.jsonl"
    path.write_text(text)
    try:
        header, windows = load_window_log(str(path))
    except TraceSchemaError as exc:
        assert str(exc).startswith(str(path))
        return
    assert header["format"] == WINDOW_LOG_FORMAT
    assert all(w["type"] == "window" for w in windows)
