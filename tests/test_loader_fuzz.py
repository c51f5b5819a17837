"""Loaders on random input: each returns or raises its typed error.

``obs.analyze.parse_jsonl`` gets random JSON records, most of them
shaped like the span and event records a trace log holds, with fields
missing, mistyped or pointing at other spans (loops included).
``devices.plan.parse_fleet`` gets random strings, most of them shaped
like ``slug:count`` lists.  Nothing but the loader's own error type
may escape.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.devices.plan import parse_fleet
from repro.errors import TraceSchemaError
from repro.obs.analyze import parse_jsonl

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
