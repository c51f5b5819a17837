"""Tests for the ``python -m repro`` command-line interface."""

import dataclasses
import json

import pytest

from repro.__main__ import build_parser, main
from repro.core import ledger


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_advise_args(self):
        args = build_parser().parse_args(
            ["advise", "64", "128", "64", "11", "1"])
        assert (args.b, args.i, args.f, args.k, args.s, args.c) == (
            64, 128, 64, 11, 1, 3)

    def test_channels_optional(self):
        args = build_parser().parse_args(
            ["compare", "64", "128", "64", "11", "1", "16"])
        assert args.c == 16

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.duration == 10.0
        assert args.rate == 2000.0
        assert args.max_batch == 64
        assert not args.json

    def test_loadgen_defaults_to_saturating_rate(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.rate == 6000.0

    def test_no_subcommand_prints_usage_and_fails(self, capsys):
        assert main([]) == 2
        err = capsys.readouterr().err
        assert "usage" in err and "subcommand" in err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3d" in out and "table2" in out

    def test_run_single(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "Conv5" in capsys.readouterr().out

    def test_run_unknown(self, capsys):
        assert main(["run", "fig99"]) == 1

    def test_advise(self, capsys):
        assert main(["advise", "64", "128", "64", "11", "1"]) == 0
        assert "Recommendation: fbfft" in capsys.readouterr().out

    def test_advise_lists_all_seven_candidates(self, capsys):
        assert main(["advise", "64", "128", "64", "11", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Scenario:")
        for name in ("Caffe", "Torch-cunn", "Theano-CorrMM", "Theano-fft",
                     "cuDNN", "cuda-convnet2", "fbfft"):
            assert name in out

    def test_advise_with_budget(self, capsys):
        assert main(["advise", "64", "128", "64", "11", "1",
                     "--memory", "400"]) == 0
        out = capsys.readouterr().out
        assert "cuda-convnet2" in out

    def test_compare(self, capsys):
        assert main(["compare", "64", "128", "64", "11", "2"]) == 0
        out = capsys.readouterr().out
        assert "fbfft" in out and "-" in out  # fbfft unsupported at s=2

    def test_compare_table_shape(self, capsys):
        assert main(["compare", "64", "128", "64", "11", "1"]) == 0
        out = capsys.readouterr().out
        assert "Implementation" in out and "Time (ms)" in out \
            and "Memory (MB)" in out

    def test_compare_json(self, capsys):
        assert main(["compare", "64", "128", "64", "11", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["results"]) == 7
        by_name = {r["implementation"]: r for r in data["results"]}
        assert by_name["fbfft"]["time_ms"] is None  # stride 2 unsupported
        assert by_name["cuDNN"]["time_ms"] > 0

    def test_ablations(self, capsys):
        assert main(["ablations"]) == 0
        assert "gradient-buffer" in capsys.readouterr().out


class TestExtendedCommands:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "K40c" in out and "TITAN X" in out

    def test_export(self, tmp_path, capsys):
        target = str(tmp_path / "csv")
        assert main(["export", target]) == 0
        import os
        files = os.listdir(target)
        assert "fig3_kernel.csv" in files
        assert "fig6_metrics.csv" in files
        assert len(files) == 13

    def test_report(self, tmp_path, capsys):
        """The one-command study regeneration (paper artifacts only —
        fig2's full sweep is exercised by the benchmarks)."""
        from repro.core.full_report import generate_report
        text = generate_report(include_extensions=False,
                               experiments=["table1", "table2", "fig3e"])
        assert "table2" in text and "```" in text
        assert "Conv5" in text

    def test_report_unknown_experiment(self):
        from repro.core.full_report import generate_report
        import pytest as _pytest
        with _pytest.raises(KeyError):
            generate_report(experiments=["figZZ"])

    def test_audit(self, capsys):
        assert main(["audit", "64", "128", "64", "11", "1"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "audit of" in out

    def test_audit_covers_every_implementation(self, capsys):
        assert main(["audit", "64", "128", "64", "11", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("audit of") == 7

    def test_audit_strided_config(self, capsys):
        # Stride 2 rules out the FFT pair; the audit must still pass
        # (unsupported is consistent, not broken).
        assert main(["audit", "64", "128", "64", "11", "2"]) == 0


class TestServingCommands:
    SERVE_ARGS = ["--duration", "0.5", "--rate", "800", "--seed", "7"]

    def test_serve(self, capsys):
        assert main(["serve"] + self.SERVE_ARGS) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "plan cache" in out
        assert "trace:" in out

    def test_serve_json(self, capsys):
        assert main(["serve"] + self.SERVE_ARGS + ["--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["traffic"]["seed"] == 7
        assert data["stats"]["offered"] > 0
        assert data["stats"]["completed"] > 0
        assert set(data["stats"]["latency_ms"]) == {"p50", "p95", "p99"}

    def test_serve_bursty_pattern(self, capsys):
        assert main(["serve", "--duration", "0.5", "--rate", "800",
                     "--pattern", "bursty", "--seed", "7"]) == 0
        assert "bursty" in capsys.readouterr().out

    def test_loadgen_compares_batched_vs_single(self, capsys):
        assert main(["loadgen", "--duration", "0.5", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "== dynamic batching ==" in out
        assert "== forced batch=1 ==" in out
        assert "throughput speedup" in out

    def test_loadgen_is_deterministic(self, capsys):
        args = ["loadgen", "--duration", "0.5", "--seed", "7"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestObservabilityFlags:
    SERVE_ARGS = ["--duration", "0.2", "--rate", "500", "--seed", "7"]

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.duration == 1.0
        assert args.rate == 1000.0
        assert args.out == "serving_trace.json"
        assert args.fault_plan is None

    def test_serve_obs_flags_default_off(self):
        args = build_parser().parse_args(["serve"])
        assert args.trace is None
        assert args.metrics is None

    def test_metrics_bare_flag_means_print(self):
        args = build_parser().parse_args(["serve", "--metrics"])
        assert args.metrics == "-"

    def test_serve_writes_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        assert main(["serve"] + self.SERVE_ARGS +
                    ["--trace", str(trace), "--metrics", str(metrics)]) == 0
        doc = json.loads(trace.read_text())
        assert doc["otherData"]["spans"] > 0
        names = {e["name"] for e in doc["traceEvents"]
                 if e.get("ph") == "X"}
        assert "serve.run" in names and "serve.batch" in names
        snap = json.loads(metrics.read_text())
        assert snap["counters"]["serve_requests_offered_total"] > 0

    def test_serve_jsonl_trace(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert main(["serve"] + self.SERVE_ARGS +
                    ["--trace", str(path)]) == 0
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert any(d["type"] == "span" and d["name"] == "serve.run"
                   for d in lines)

    def test_serve_json_embeds_metrics(self, capsys):
        assert main(["serve"] + self.SERVE_ARGS +
                    ["--json", "--metrics"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "counters" in data["metrics"]

    def test_serve_metrics_print(self, capsys):
        assert main(["serve"] + self.SERVE_ARGS + ["--metrics"]) == 0
        out = capsys.readouterr().out
        assert "serve_requests_offered_total" in out

    def test_trace_command_end_to_end(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        assert main(["trace", "--duration", "0.2", "--rate", "500",
                     "--seed", "7", "--out", str(out_path)]) == 0
        assert "spans ->" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert "serve" in cats and "gpu" in cats

    def test_chaos_trace_carries_fault_events(self, tmp_path, capsys):
        path = tmp_path / "chaos.json"
        assert main(["chaos", "--quick", "--seed", "7",
                     "--trace", str(path)]) == 0
        doc = json.loads(path.read_text())
        instants = {e["name"] for e in doc["traceEvents"]
                    if e.get("ph") == "i"}
        assert any(name.startswith("fault.") for name in instants)

    def test_compare_trace_and_metrics(self, tmp_path, capsys):
        path = tmp_path / "cmp.json"
        assert main(["compare", "64", "128", "64", "11", "1",
                     "--trace", str(path), "--json", "--metrics"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "gpusim_kernel_launches_total" in str(data["metrics"]) or \
            data["cache"]["hits"] > 0   # warm-cache runs launch nothing
        assert "workers" not in data
        doc = json.loads(path.read_text())
        spans = [e for e in doc["traceEvents"]
                 if e.get("name") == "evalcache.evaluate"]
        assert len(spans) == 7   # one per implementation


class TestChaosCommand:
    QUICK = ["chaos", "--quick", "--seed", "7"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.fault_plan == "chaos"
        assert args.fault_seed is None
        assert not args.quick

    def test_parser_rejects_unknown_plan(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--fault-plan", "earthquake"])

    def test_human_output(self, capsys):
        assert main(self.QUICK) == 0
        out = capsys.readouterr().out
        assert "fault plan: chaos" in out
        assert "== fault-free ==" in out
        assert "== under 'chaos' ==" in out
        assert "completion ratio" in out
        assert "deterministic re-run: True" in out

    def test_json_output_meets_resilience_bar(self, capsys):
        assert main(self.QUICK + ["--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["deterministic"] is True
        assert data["unhandled_errors"] == 0
        assert data["completion_ratio"] >= 0.95
        res = data["chaos"]["resilience"]
        assert res["fallback_completions"] > 0
        assert res["breaker_trips"] > 0
        assert data["fault_free"]["resilience"]["faults_injected"] == 0

    def test_none_plan_matches_serve_stats(self, capsys):
        serve_args = ["--duration", "0.5", "--rate", "800", "--seed", "7"]
        assert main(["serve"] + serve_args + ["--json"]) == 0
        served = json.loads(capsys.readouterr().out)["stats"]
        assert main(["chaos", "--fault-plan", "none"] + serve_args
                    + ["--json"]) == 0
        chaos = json.loads(capsys.readouterr().out)
        assert chaos["chaos"] == served
        assert chaos["fault_free"] == served
        assert chaos["completion_ratio"] == 1.0

    def test_chaos_is_deterministic_across_processes(self, capsys):
        assert main(self.QUICK + ["--json"]) == 0
        first = json.loads(capsys.readouterr().out)["digest"]
        assert main(self.QUICK + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["digest"] == first


class TestChaosClusterMode:
    """``chaos --cluster``: fleet chaos with the self-healing plane."""

    ARGS = ["chaos", "--cluster", "--duration", "1.5", "--rate", "1800",
            "--seed", "7", "--replicas", "3"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["chaos", "--cluster"])
        assert args.fleet_plan == "fleet-chaos"
        assert args.replicas == 4
        assert args.hedge_after_ms == 20.0

    def test_human_output_has_recovery_and_scorecard(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "fleet plan: fleet-chaos" in out
        assert "== fault-free fleet ==" in out
        assert "== under 'fleet-chaos' ==" in out
        assert "self-healing" in out
        assert "recovered" in out
        assert "scorecard reconciled: True" in out
        assert "deterministic re-run: True" in out

    def test_json_gates_pass_and_scorecard_reconciles(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["deterministic"] is True
        assert doc["scorecard_reconciled"] is True
        assert doc["recovery"]["recovered"] is True
        score = doc["chaos"]["health"]
        assert score["crashes"] == (score["restarts"]
                                    + score["restarts_pending"]
                                    + score["restarts_denied"])
        assert score["hedges_issued"] == (score["hedge_wins"]
                                          + score["hedge_cancels"])
        assert doc["fault_free"]["health"]["crashes"] == 0

    def test_json_runs_are_byte_identical(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--json"]) == 0
        assert capsys.readouterr().out == first


class TestAnalyzeCommand:
    TRACE_ARGS = ["trace", "--duration", "0.2", "--rate", "500",
                  "--seed", "7"]

    def write_trace(self, path, extra=()):
        assert main(self.TRACE_ARGS + list(extra)
                    + ["--out", str(path)]) == 0

    def test_parser_defaults(self):
        args = build_parser().parse_args(["analyze", "run.jsonl"])
        assert args.trace == "run.jsonl"
        assert args.baseline is None
        assert args.top == 10

    def test_analyze_renders_report(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        self.write_trace(path)
        capsys.readouterr()
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "Fig. 4 view" in out

    def test_same_seed_baseline_reports_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self.write_trace(a)
        self.write_trace(b)
        capsys.readouterr()
        assert main(["analyze", str(a), "--baseline", str(b)]) == 0
        assert "runs are identical: zero deltas, zero findings" \
            in capsys.readouterr().out

    def test_json_output_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self.write_trace(a)
        self.write_trace(b)
        capsys.readouterr()
        assert main(["analyze", str(a), "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["reconciliation"]["taxonomy_ok"]
        assert main(["analyze", str(b), "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        # identical runs analyze identically (source path aside)
        first.pop("source"), second.pop("source")
        assert second == first

    def test_chaos_baseline_attributes_faults(self, tmp_path, capsys):
        quiet, chaos = tmp_path / "q.jsonl", tmp_path / "c.jsonl"
        args = ["trace", "--duration", "1.0", "--rate", "1500",
                "--seed", "7"]
        assert main(args + ["--out", str(quiet)]) == 0
        assert main(args + ["--fault-plan", "chaos",
                            "--out", str(chaos)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(chaos), "--baseline", str(quiet),
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        causes = [f["cause"] for f in doc["diff"]["findings"]]
        assert "fault_injections" in causes

    def test_missing_file_fails_cleanly(self, capsys):
        assert main(["analyze", "/nonexistent/run.jsonl"]) == 1
        assert "error" in capsys.readouterr().err

    def test_garbage_trace_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("{nope\n")
        assert main(["analyze", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err


class TestSloCommand:
    SERVE_ARGS = ["serve", "--duration", "0.2", "--rate", "500",
                  "--seed", "7"]

    def write_metrics(self, path):
        assert main(self.SERVE_ARGS + ["--metrics", str(path)]) == 0

    def test_default_rules_pass_on_healthy_run(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        self.write_metrics(path)
        capsys.readouterr()
        assert main(["slo", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[PASS] p99-latency" in out
        assert "verdict: PASS" in out

    def test_failing_rule_exits_non_zero(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        self.write_metrics(metrics)
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([
            {"name": "impossible", "kind": "latency_max",
             "threshold": 0.0}]))
        capsys.readouterr()
        assert main(["slo", str(metrics), "--rules", str(rules)]) == 1
        assert "[FAIL] impossible" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        self.write_metrics(path)
        capsys.readouterr()
        assert main(["slo", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert {r["name"] for r in doc["rules"]} == \
            {"p99-latency", "shed-rate", "error-budget"}

    def test_malformed_rules_fail_cleanly(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        self.write_metrics(metrics)
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([{"name": "x"}]))
        capsys.readouterr()
        assert main(["slo", str(metrics), "--rules", str(rules)]) == 1
        assert "missing keys" in capsys.readouterr().err

    def test_serve_with_slo_monitor(self, capsys):
        assert main(self.SERVE_ARGS + ["--slo"]) == 0
        out = capsys.readouterr().out
        assert "SLO check" in out
        assert "verdict: PASS" in out

    def test_serve_with_failing_slo_exits_non_zero(self, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([
            {"name": "impossible", "kind": "latency_max",
             "threshold": 0.0}]))
        assert main(self.SERVE_ARGS + ["--slo", str(rules),
                                       "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["slo"]["passed"] is False


class TestRegressionCommand:
    @pytest.mark.parametrize("option", [["--baseline", "b.json"], ["--save"],
                                        ["--tolerance", "0.1"]],
                             ids=lambda option: option[0])
    def test_removed_options_are_unknown(self, option, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["regression"] + option)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_prints_the_ledger(self, capsys):
        """The CI gate: every claim of the repository's model is in
        its band."""
        assert main(["regression"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| id | claim | paper | band |")
        assert "| fig3d.crossover_k |" in out

    def test_json_has_one_entry_per_row(self, capsys):
        assert main(["regression", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert [c["id"] for c in doc["claims"]] == [
            c.id for c in ledger.CLAIMS]
        row = next(c for c in doc["claims"] if c["id"] == "fig3d.crossover_k")
        assert row == {"id": "fig3d.crossover_k", "figure": "fig3d",
                       "claim": "first k at which fbfft beats cuDNN",
                       "paper": 7, "band": "[4, 8]", "measured": 5,
                       "residual": -2, "in_band": True}

    def test_row_outside_its_band_fails(self, monkeypatch, capsys):
        claims = [dataclasses.replace(c, band="[6, 8]")
                  if c.id == "fig3d.crossover_k" else c
                  for c in ledger.CLAIMS]
        monkeypatch.setattr(ledger, "CLAIMS", tuple(claims))
        assert main(["regression"]) == 1
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.endswith("outside their band: fig3d.crossover_k")
        assert main(["regression", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False
        assert [c["id"] for c in doc["claims"]
                if c["in_band"] is False] == ["fig3d.crossover_k"]


class TestClusterCommand:
    ARGS = ["cluster", "--duration", "0.3", "--rate", "900", "--seed", "7",
            "--replicas", "2"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["cluster"])
        assert args.replicas == 4
        assert args.policy == "round-robin"
        assert args.slo is None and not args.autoscale
        assert args.window_ms == 1000.0

    def test_parser_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "--policy", "dice"])

    @pytest.mark.parametrize("argv", [
        ["cluster", "--quick", "--fleet", "nope:2"],
        ["plan", "--fleet", "nope:2", "--quick"],
    ])
    def test_unknown_device_slug_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "repro: error: unknown device profile 'nope' "
            "(known: k20x, k40c, m40, maxwell, pascal)\n")

    def test_human_output_lists_replicas(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "2 replica(s) started" in out
        assert "replica0" in out and "replica1" in out
        assert "routed per replica" in out

    def test_json_report_shape(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        cluster = doc["cluster"]
        assert cluster["offered"] == doc["traffic"]["arrivals"]
        assert cluster["policy"] == "round-robin"
        assert len(cluster["replicas"]) == 2
        assert set(cluster["latency_ms"]) == {"p50", "p95", "p99"}

    def test_json_runs_are_byte_identical(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--json"]) == 0
        assert capsys.readouterr().out == first

    def test_health_flag_attaches_scorecard(self, capsys):
        assert main(self.ARGS + ["--health", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        score = doc["cluster"]["health"]
        assert score["probes"] > 0 and score["crashes"] == 0

    def test_fleet_plan_restarts_crashed_replica(self, capsys):
        # Longer run (last --duration wins) so the supervisor's restart
        # delay elapses before the trace ends.
        assert main(self.ARGS + ["--duration", "1.2",
                                 "--fleet-plan", "crash", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        score = doc["cluster"]["health"]
        assert score["crashes"] == 1
        assert score["restarts"] == 1
        incarnations = {r["incarnation"]
                        for r in doc["cluster"]["replicas"]}
        assert 1 in incarnations

    def test_repeatable_kill_pairs(self, capsys):
        assert main(self.ARGS + ["--kill-replica", "0", "--kill-at", "0.1",
                                 "--kill-replica", "1", "--kill-at", "0.2",
                                 "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cluster"]["kills"] == 2

    def test_mismatched_kill_pair_rejected(self, capsys):
        assert main(self.ARGS + ["--kill-replica", "0"]) == 1
        assert "--kill-at" in capsys.readouterr().err

    def test_trace_export_has_one_row_per_replica(self, tmp_path, capsys):
        path = tmp_path / "fleet.json"
        assert main(self.ARGS + ["--trace", str(path)]) == 0
        doc = json.loads(path.read_text())
        procs = {e["args"]["name"] for e in doc["traceEvents"]
                 if e.get("name") == "process_name"}
        assert {"cluster", "replica0", "replica1"} <= procs

    def test_jsonl_trace_merges_all_tracers(self, tmp_path, capsys):
        path = tmp_path / "fleet.jsonl"
        assert main(self.ARGS + ["--trace", str(path)]) == 0
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        names = {d["name"] for d in records if d.get("type") == "span"}
        assert "cluster.run" in names and "replica.run" in names
        sids = [d["sid"] for d in records if d.get("type") == "span"]
        assert len(sids) == len(set(sids))

    def test_metrics_file_has_fleet_and_replica_sections(self, tmp_path,
                                                         capsys):
        path = tmp_path / "fleet_metrics.json"
        assert main(self.ARGS + ["--metrics", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert "fleet" in doc and set(doc["replicas"]) == {"replica0",
                                                           "replica1"}

    def test_json_embeds_metrics(self, capsys):
        assert main(self.ARGS + ["--json", "--metrics"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "fleet" in doc["metrics"]

    def test_autoscale_without_slo_fails(self, capsys):
        assert main(["cluster", "--quick", "--autoscale"]) == 1
        assert "--autoscale needs --slo" in capsys.readouterr().err

    def test_kill_without_time_fails(self, capsys):
        assert main(["cluster", "--quick", "--kill-replica", "1"]) == 1
        assert "--kill-at" in capsys.readouterr().err

    def test_kill_is_reported(self, capsys):
        assert main(self.ARGS + ["--kill-replica", "1",
                                 "--kill-at", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "kill schedule: replica 1 @ 0.150s" in out
        assert "killed" in out

    def test_autoscale_recovery_scenario(self, capsys):
        """The CI gate: overload one replica, require the autoscaler
        to recover the violated latency SLO by the end of the run."""
        assert main(["cluster", "--duration", "2", "--rate", "4000",
                     "--seed", "11", "--replicas", "1", "--slo",
                     "--autoscale", "--max-replicas", "4",
                     "--cooldown-ms", "500", "--window-ms", "250",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)["cluster"]
        assert doc["slo"]["violations"] >= 1
        assert doc["slo"]["recoveries"] >= 1
        assert doc["slo"]["in_violation"] is False
        assert doc["autoscaler"]["scale_ups"] >= 1

    def test_fault_plan_restricted_to_replica(self, capsys):
        assert main(self.ARGS + ["--fault-plan", "straggler",
                                 "--fault-replica", "0"]) == 0
        assert "straggler on replica(s) 0" in capsys.readouterr().out
