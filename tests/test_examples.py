"""The example scripts must actually run.

Each example is executed in a subprocess (the fast ones end-to-end,
the slow ones with arguments that keep them quick) and its output
spot-checked.  This is the executable guarantee behind the README's
examples table.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name, *args, timeout=300):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "fbfft" in out
        assert "Recommendation" in out

    def test_reproduce_figure_lists(self):
        out = run_example("reproduce_figure.py")
        assert "fig3d" in out

    def test_reproduce_figure_single(self):
        out = run_example("reproduce_figure.py", "table2")
        assert "116" in out  # cuda-convnet2 registers

    def test_reproduce_figure_unknown_fails(self):
        proc = subprocess.run(
            [sys.executable, str(EXAMPLES / "reproduce_figure.py"), "figX"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1

    def test_choose_implementation(self):
        out = run_example("choose_implementation.py")
        assert "Recommendation" in out
        # The four scenarios produce at least two distinct winners.
        import re
        winners = set(re.findall(r"Recommendation: (\S+)", out))
        assert len(winners) >= 2

    def test_per_layer_mix(self):
        out = run_example("per_layer_mix.py", "AlexNet", "64")
        assert "oracle mix" in out
        assert "Verdict" in out

    def test_profile_model(self):
        out = run_example("profile_model.py", "AlexNet", "cudnn")
        assert "Conv" in out and "hottest conv layer" in out

    def test_serve_traffic_short(self):
        # Full example simulates 60 s of traffic (~30 s wall); a 3 s
        # trace exercises the same code paths.
        out = run_example("serve_traffic.py", "7", "3")
        assert "== dynamic batching ==" in out
        assert "== forced batch=1 ==" in out
        assert "throughput speedup" in out

    def test_trace_serving(self, tmp_path):
        out_path = tmp_path / "trace.json"
        out = run_example("trace_serving.py", "7", str(out_path))
        assert "span tree:" in out
        assert "serve.batch" in out and "evalcache.evaluate" in out
        assert "gpusim kernel leaves" in out
        import json
        doc = json.loads(out_path.read_text())
        assert doc["otherData"]["spans"] > 0
        metrics = json.loads(
            (tmp_path / "trace_metrics.json").read_text())
        assert metrics["counters"]["serve_requests_offered_total"] > 0
