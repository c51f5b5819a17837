"""Tests for the offline trace analytics (repro.obs.analyze)."""

import json

import pytest

from repro.config import BASE_CONFIG
from repro.core.evalcache import evaluate, reset_cache
from repro.core.hotspot_kernels import CANONICAL_ROLES, hotspot_kernel_analysis
from repro.errors import TraceSchemaError
from repro.frameworks.registry import get_implementation
from repro.gpusim.device import K40C
from repro.gpusim.timing import SimClock
from repro.obs.analyze import (analyze_run, critical_path, fault_census,
                               hotspot_shares, hotspot_table, load_jsonl,
                               parse_jsonl, reconcile_hotspots,
                               span_aggregates)
from repro.obs.diff import diff_traces
from repro.obs.export import jsonl_lines, write_jsonl
from repro.obs.tracer import SimTracer
from repro.serve import Server, ServerConfig, TrafficSpec, generate_trace


SPEC = TrafficSpec(duration_s=0.05, rate_rps=200.0, seed=7)


def traced_run(fault_plan=None, spec=SPEC):
    reset_cache()
    trace = generate_trace(spec)
    server = Server(ServerConfig(), fault_plan=fault_plan,
                    fault_seed=spec.seed)
    tracer = server.enable_tracing()
    server.run(trace)
    return tracer


@pytest.fixture(scope="module")
def run():
    """One serving trace, reloaded through the JSONL round trip."""
    return parse_jsonl(jsonl_lines(traced_run()), source="fixture")


def small_tracer():
    clock = SimClock()
    tracer = SimTracer(clock)
    with tracer.span("root", cat="serve"):
        with tracer.span("short", cat="serve"):
            clock.advance(0.010)
        with tracer.span("long", cat="serve"):
            clock.advance(0.020)
            with tracer.span("leaf", cat="gpu", role="GEMM"):
                pass
        clock.advance(0.005)
    return tracer


class TestLoading:
    def test_round_trip_preserves_tree(self, run):
        live = traced_run()
        assert isinstance(run, SimTracer)
        assert run.span_count() == live.span_count()
        assert analyze_run(run).duration_s == analyze_run(live).duration_s
        assert [(s.sid, s.parent_sid, s.name) for s in run.walk()] == \
            [(s.sid, s.parent_sid, s.name) for s in live.walk()]

    def test_load_jsonl_from_disk(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_jsonl(str(path), traced_run())
        run = load_jsonl(str(path))
        assert run.source == str(path)
        assert run.span_count() > 0

    def test_bad_json_rejected(self):
        with pytest.raises(TraceSchemaError, match="not valid JSON"):
            parse_jsonl(["{nope"])

    def test_record_without_type_rejected(self):
        with pytest.raises(TraceSchemaError, match="no 'type'"):
            parse_jsonl(['{"sid": 1}'])

    def test_unknown_record_type_rejected(self):
        with pytest.raises(TraceSchemaError, match="unknown record type"):
            parse_jsonl(['{"type": "mystery"}'])

    def test_duplicate_sid_rejected(self):
        span = json.dumps({"type": "span", "sid": 1, "parent": None,
                           "name": "a", "cat": "serve",
                           "start_s": 0.0, "end_s": 1.0, "attrs": {}})
        with pytest.raises(TraceSchemaError, match="duplicate span sid"):
            parse_jsonl([span, span])

    def test_dangling_event_reference_rejected(self):
        ev = json.dumps({"type": "event", "span": 42, "name": "x",
                         "t_s": 0.0, "attrs": {}})
        with pytest.raises(TraceSchemaError, match="unknown span 42"):
            parse_jsonl([ev])

    def test_unsupported_schema_version_rejected(self):
        header = json.dumps({"type": "header", "format": "repro-trace",
                             "schema_version": 99})
        with pytest.raises(TraceSchemaError, match="schema_version 99"):
            parse_jsonl([header])

    def test_header_not_first_rejected(self):
        span = json.dumps({"type": "span", "sid": 1, "parent": None,
                           "name": "a", "cat": "serve",
                           "start_s": 0.0, "end_s": 1.0, "attrs": {}})
        header = json.dumps({"type": "header", "schema_version": 1})
        with pytest.raises(TraceSchemaError, match="first record"):
            parse_jsonl([span, header])

    def test_legacy_log_without_header_loads_as_v1(self):
        span = json.dumps({"type": "span", "sid": 1, "parent": None,
                           "name": "a", "cat": "serve",
                           "start_s": 0.0, "end_s": 1.0, "attrs": {}})
        run = parse_jsonl([span])
        assert run.span_count() == 1



def span_record(sid=1, parent=None, **fields):
    rec = {"type": "span", "sid": sid, "parent": parent, "name": "a",
           "cat": "serve", "start_s": 0.0, "end_s": 1.0, "attrs": {}}
    rec.update(fields)
    return json.dumps(rec)


#: (malformed log lines, line the error names, what it says).
MALFORMED = {
    "event_without_name": (['{"type": "event"}'], 1,
                           "event record missing 'name'"),
    "string_start_s": ([span_record(start_s="x")], 1,
                       "span field 'start_s' has the wrong type: 'x'"),
    "list_sid": ([span_record(sid=[1])], 1,
                 "span field 'sid' has the wrong type"),
    "list_event_span": ([span_record(), json.dumps(
        {"type": "event", "span": [1], "name": "x", "t_s": 0.0})], 2,
        "event field 'span' has the wrong type"),
    "list_attrs": ([span_record(attrs=[1])], 1,
                   "span field 'attrs' has the wrong type"),
    "own_parent": ([span_record(sid=1, parent=1)], 1,
                   "span 1 is reached from no root"),
    "mutual_parents": ([span_record(sid=1), span_record(sid=2, parent=3),
                        span_record(sid=3, parent=2)], 2,
                       "span 2 is reached from no root"),
}


class TestMalformedRecords:
    """Every malformed log fails as one ``TraceSchemaError`` naming
    ``file:line``, so ``repro analyze`` prints one error line."""

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_parse_raises_at_the_line(self, case):
        lines, lineno, message = MALFORMED[case]
        with pytest.raises(TraceSchemaError) as exc:
            parse_jsonl(lines, source="log.jsonl")
        assert str(exc.value).startswith(f"log.jsonl:{lineno}: {message}")

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_analyze_prints_one_error_line(self, case, tmp_path, capsys):
        from repro.__main__ import main
        lines, lineno, message = MALFORMED[case]
        path = tmp_path / "log.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"repro: error: {path}:{lineno}: {message}")


class TestCriticalPath:
    def test_descends_into_dominant_child(self):
        steps = critical_path(small_tracer().roots[0])
        assert [s.name for s in steps] == ["root", "long", "leaf"]
        assert steps[0].duration_s == pytest.approx(0.035)
        assert steps[0].self_s == pytest.approx(0.005)

    def test_tie_breaks_on_earliest_start(self):
        clock = SimClock()
        tracer = SimTracer(clock)
        with tracer.span("root", cat="serve"):
            with tracer.span("first", cat="serve"):
                clock.advance(0.010)
            with tracer.span("second", cat="serve"):
                clock.advance(0.010)
        steps = critical_path(tracer.roots[0])
        assert [s.name for s in steps] == ["root", "first"]


class TestAggregates:
    def test_self_time_excludes_children(self):
        stats = {s.name: s for s in span_aggregates(small_tracer())}
        assert stats["root"].total_s == pytest.approx(0.035)
        assert stats["root"].self_s == pytest.approx(0.005)
        assert stats["long"].self_s == pytest.approx(0.020)

    def test_sorted_longest_first(self, run):
        stats = span_aggregates(run)
        totals = [s.total_s for s in stats]
        assert totals == sorted(totals, reverse=True)
        assert stats[0].name == "serve.run"


class TestHotspots:
    def test_leaves_attributed_to_dispatch_implementation(self, run):
        table = hotspot_table(run)
        assert table
        assert "(unattributed)" not in table
        for roles in table.values():
            assert all(t >= 0 for t in roles.values())

    def test_shares_sum_to_one(self, run):
        for impl, shares in hotspot_shares(hotspot_table(run)).items():
            assert sum(shares.values()) == pytest.approx(1.0), impl

    def test_roles_reconcile_with_canonical_taxonomy(self, run):
        rec = reconcile_hotspots(hotspot_table(run))
        assert rec["taxonomy_ok"], rec["unknown_roles"]
        assert rec["canonical_roles"] == list(CANONICAL_ROLES)

    def test_unknown_role_flagged(self):
        rec = reconcile_hotspots({"x": {"warp drive": 1.0}})
        assert not rec["taxonomy_ok"]
        assert rec["unknown_roles"] == ["warp drive"]

    def test_trace_shares_match_fig4_breakdown(self):
        """A trace built from one implementation's kernel plan must
        reproduce the paper pipeline's Fig. 4 role shares exactly —
        the two derivations read the same kernels."""
        reset_cache()
        impl = get_implementation("cudnn")
        record = evaluate(impl, BASE_CONFIG, K40C)
        tracer = SimTracer(SimClock())
        with tracer.span("serve.dispatch", cat="serve",
                         implementation=impl.paper_name):
            t = 0.0
            for k in record.kernels:
                spec = getattr(k, "spec", None)
                name = spec.name if spec is not None else k.name
                role = spec.role.value if spec is not None else k.role
                tracer.add_span(name, cat="gpu", start_s=t,
                                end_s=t + k.time_s, role=role)
                t += k.time_s
        shares = hotspot_shares(hotspot_table(tracer))
        (breakdown,) = hotspot_kernel_analysis(BASE_CONFIG,
                                               implementations=[impl])
        assert set(shares[impl.paper_name]) == set(breakdown.role_shares)
        for role, share in breakdown.role_shares.items():
            assert shares[impl.paper_name][role] == pytest.approx(share)


class TestFaultCensus:
    def test_fault_free_run_has_no_fault_time(self, run):
        events, fault_time = fault_census(run)
        assert fault_time == 0.0
        assert not any(name.startswith("fault.") for name in events)

    def test_chaos_run_attributes_fault_time(self):
        from repro.faults import named_plan

        spec = TrafficSpec(duration_s=1.0, rate_rps=1500.0, seed=7)
        plan = named_plan("chaos", duration_s=spec.duration_s)
        run = traced_run(fault_plan=plan, spec=spec)
        events, fault_time = fault_census(run)
        assert events.get("fault.transient", 0) > 0
        assert fault_time > 0.0


class TestAnalyzeRun:
    def test_full_analysis_shape(self, run):
        analysis = analyze_run(run)
        assert analysis.span_count == run.span_count()
        assert analysis.critical[0].name == "serve.run"
        assert analysis.plan_lookups["hits"] + \
            analysis.plan_lookups["misses"] > 0
        assert analysis.batches["count"] > 0
        assert analysis.reconciliation["taxonomy_ok"]

    def test_deterministic_output(self):
        blobs = []
        for _ in range(2):
            run = parse_jsonl(jsonl_lines(traced_run()), source="x")
            blobs.append(json.dumps(analyze_run(run).to_dict(),
                                    sort_keys=True))
        assert blobs[0] == blobs[1]

    def test_render_is_textual(self, run):
        text = analyze_run(run).render()
        assert "critical path" in text
        assert "span aggregates" in text
        assert "Fig. 4 view" in text


class TestDeepNesting:
    """A well-formed log nested 5,000 deep, each span the parent of the
    next, loads, analyzes and diffs: no walk recurses."""

    DEPTH = 5000

    @pytest.fixture(scope="class")
    def chain(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("deep") / "chain.jsonl"
        lines = [span_record(sid=i, parent=i - 1 if i else None, name="s",
                             start_s=i * 1e-6, end_s=1.0 - i * 1e-6)
                 for i in range(self.DEPTH)]
        path.write_text("".join(line + "\n" for line in lines))
        return path

    def test_parse_analyze_and_diff(self, chain):
        run = load_jsonl(str(chain))
        assert run.span_count() == self.DEPTH
        analysis = analyze_run(run)
        assert len(analysis.critical) == self.DEPTH
        assert analysis.critical[-1].depth == self.DEPTH - 1
        assert diff_traces(run, load_jsonl(str(chain))).identical

    def test_cli_analyze_with_baseline_exits_zero(self, chain, capsys):
        from repro.__main__ import main
        assert main(["analyze", str(chain), "--baseline", str(chain)]) == 0
        out = capsys.readouterr().out
        assert "runs are identical: zero deltas, zero findings" in out
