"""Tests for trace diff / regression attribution (repro.obs.diff)."""

import json

import pytest

from repro.core.evalcache import reset_cache
from repro.faults import named_plan
from repro.obs.analyze import analyze_run, parse_jsonl
from repro.obs.diff import diff_runs, diff_traces
from repro.obs.export import jsonl_lines
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
def baseline():
    return traced_run()


class TestProfile:
    """What the analysis pass collects for the diff to align."""

    def test_paths_are_implementation_labelled(self, baseline):
        analysis = analyze_run(baseline)
        dispatch = [p for p in analysis.paths if "serve.dispatch[" in p]
        assert dispatch, sorted(analysis.paths)
        assert analysis.batches["count"] > 0
        assert analysis.arrivals > 0
        assert sum(analysis.plan_lookups.values()) > 0

    def test_gpu_roles_keyed_by_impl_and_role(self, baseline):
        analysis = analyze_run(baseline)
        assert analysis.launches
        assert set(analysis.launches) == set(analysis.hotspots)
        for impl, counts in analysis.launches.items():
            assert impl != "(unattributed)"
            assert set(counts) == set(analysis.hotspots[impl])
            for role, count in counts.items():
                secs = analysis.hotspots[impl][role]
                assert count > 0 and secs >= 0.0, (impl, role, count, secs)


class TestIdenticalRuns:
    def test_same_seed_runs_diff_to_identical(self, baseline):
        other = traced_run()
        diff = diff_traces(baseline, other)
        assert diff.identical
        assert diff.deltas == ()
        assert diff.findings == ()
        assert diff.d_duration_s == 0.0

    def test_identical_render_says_so(self, baseline):
        diff = diff_traces(baseline, traced_run())
        assert "runs are identical: zero deltas, zero findings" \
            in diff.render()

    def test_jsonl_round_trip_stays_identical(self, baseline):
        reloaded = parse_jsonl(jsonl_lines(traced_run()), source="reload")
        assert diff_traces(baseline, reloaded).identical

    def test_self_diff_is_identical(self, baseline):
        assert diff_traces(baseline, baseline).identical


class TestChaosAttribution:
    @pytest.fixture(scope="class")
    def chaos_pair(self):
        spec = TrafficSpec(duration_s=1.0, rate_rps=1500.0, seed=7)
        plan = named_plan("chaos", duration_s=spec.duration_s)
        quiet = traced_run(spec=spec)
        chaos = traced_run(fault_plan=plan, spec=spec)
        return quiet, chaos

    def test_chaos_twin_is_not_identical(self, chaos_pair):
        quiet, chaos = chaos_pair
        diff = diff_traces(quiet, chaos)
        assert not diff.identical
        assert diff.deltas

    def test_slowdown_attributed_to_fault_events(self, chaos_pair):
        quiet, chaos = chaos_pair
        diff = diff_traces(quiet, chaos)
        causes = [f.cause for f in diff.findings]
        assert "fault_injections" in causes
        fault = next(f for f in diff.findings
                     if f.cause == "fault_injections")
        assert fault.magnitude_s > 0.0
        assert fault.evidence["candidate_events"].get("fault.transient",
                                                      0) > 0
        # fault handling dominates the attribution for a chaos twin
        assert causes[0] == "fault_injections"

    def test_findings_ranked_by_magnitude(self, chaos_pair):
        quiet, chaos = chaos_pair
        mags = [f.magnitude_s for f in diff_traces(quiet, chaos).findings]
        assert mags == sorted(mags, reverse=True)


class TestWorkloadChange:
    def test_different_load_flagged_not_like_for_like(self, baseline):
        other_spec = TrafficSpec(duration_s=0.05, rate_rps=400.0, seed=7)
        other = traced_run(spec=other_spec)
        diff = diff_traces(baseline, other)
        causes = {f.cause for f in diff.findings}
        assert "workload_change" in causes
        wl = next(f for f in diff.findings if f.cause == "workload_change")
        assert wl.evidence["d_arrivals"] != 0


class TestDeterminism:
    def test_to_dict_is_reproducible(self, baseline):
        spec = TrafficSpec(duration_s=0.05, rate_rps=400.0, seed=11)
        blobs = []
        for _ in range(2):
            cand = traced_run(spec=spec)
            diff = diff_runs(analyze_run(baseline), analyze_run(cand))
            blobs.append(json.dumps(diff.to_dict(), sort_keys=True))
        assert blobs[0] == blobs[1]

    def test_deltas_sorted_by_impact(self, baseline):
        spec = TrafficSpec(duration_s=0.05, rate_rps=400.0, seed=7)
        diff = diff_traces(baseline, traced_run(spec=spec))
        impacts = [abs(d.d_total_s) for d in diff.deltas]
        assert impacts == sorted(impacts, reverse=True)
