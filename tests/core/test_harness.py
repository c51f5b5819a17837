"""Tests for the analysis-harness modules (Figs. 2-7 machinery).

These exercise the harness plumbing: result structure, rendering,
support/OOM handling, experiment registry.  The *scientific* claims are
checked separately, as rows of the claims ledger
(:mod:`repro.core.ledger`, tests/core/test_ledger.py).
"""

import pytest

from repro.config import BASE_CONFIG, TABLE1_CONFIGS
from repro.core.gpu_metrics import (gpu_metric_profile, render_metric_rows,
                                    table2_resources)
from repro.core.hotspot_kernels import hotspot_kernel_analysis
from repro.core.hotspot_layers import hotspot_layer_analysis
from repro.core.memory_comparison import memory_sweep
from repro.core.runtime_comparison import runtime_sweep
from repro.core.transfer_overhead import (render_transfer_rows,
                                          transfer_overhead_profile)
from repro.core.experiments import EXPERIMENTS, run_experiment
from repro.frameworks.registry import get_implementation


@pytest.fixture(scope="module")
def kernel_sweep():
    return runtime_sweep("kernel")


@pytest.fixture(scope="module")
def stride_sweep():
    return runtime_sweep("stride")


class TestRuntimeSweep:
    def test_all_seven_series(self, kernel_sweep):
        assert len(kernel_sweep.times) == 7

    def test_x_axis(self, kernel_sweep):
        assert kernel_sweep.xs == list(range(2, 14))

    def test_fft_impls_missing_beyond_stride_1(self, stride_sweep):
        for impl in ("fbfft", "Theano-fft"):
            col = stride_sweep.times[impl]
            assert col[0] is not None
            assert all(t is None for t in col[1:])

    def test_fastest_at(self, stride_sweep):
        # At stride 2 the winner must be a non-FFT implementation.
        assert stride_sweep.fastest_at(1) not in ("fbfft", "Theano-fft")

    def test_speedup_none_when_unsupported(self, stride_sweep):
        assert stride_sweep.speedup("fbfft", "cuDNN", 1) is None

    def test_render_contains_units(self, kernel_sweep):
        assert "ms" in kernel_sweep.render()

    def test_unknown_sweep(self):
        with pytest.raises(KeyError):
            runtime_sweep("bogus")


class TestMemorySweep:
    def test_structure(self):
        res = memory_sweep("stride")
        assert set(res.peaks) == set(res.ooms)
        assert len(res.xs) == 4

    def test_render(self):
        assert "MB" in memory_sweep("stride").render()


class TestHotspotLayers:
    @pytest.fixture(scope="class")
    def results(self):
        return hotspot_layer_analysis(models=["AlexNet"])

    def test_single_model_selection(self, results):
        assert len(results) == 1
        assert results[0].model == "AlexNet"

    def test_shares_normalised(self, results):
        assert sum(results[0].shares.values()) == pytest.approx(1.0)

    def test_render(self, results):
        out = results[0].render()
        assert "AlexNet" in out and "%" in out

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            hotspot_layer_analysis(models=["ResNet"])


class TestHotspotKernels:
    @pytest.fixture(scope="class")
    def results(self):
        return hotspot_kernel_analysis(BASE_CONFIG)

    def test_all_implementations_present(self, results):
        assert len(results) == 7

    def test_shares_normalised(self, results):
        for r in results:
            assert sum(r.role_shares.values()) == pytest.approx(1.0)
            assert sum(r.kernel_shares.values()) == pytest.approx(1.0)

    def test_dominant_role_exists(self, results):
        for r in results:
            assert r.dominant_role() in r.role_shares


class TestGpuMetrics:
    @pytest.fixture(scope="class")
    def rows(self):
        return gpu_metric_profile(configs={"Conv5": TABLE1_CONFIGS["Conv5"]})

    def test_rows_per_implementation(self, rows):
        assert len(rows) == 7

    def test_metric_bounds(self, rows):
        for r in rows:
            s = r.summary
            assert 0 < s.achieved_occupancy <= 1
            assert 0 < s.warp_execution_efficiency <= 1
            assert 0 <= s.gld_efficiency <= 1
            assert 0 <= s.gst_efficiency <= 1
            assert s.ipc > 0
            assert s.shared_efficiency > 0

    def test_render(self, rows):
        out = render_metric_rows(rows)
        assert "Occupancy" in out and "IPC" in out

    def test_table2_render(self):
        out = table2_resources()
        assert "116" in out  # cuda-convnet2's registers
        assert "cuDNN" in out


class TestTransferOverhead:
    def test_rows_and_render(self):
        rows = transfer_overhead_profile(
            configs={"Conv5": TABLE1_CONFIGS["Conv5"]})
        assert len(rows) == 7
        for r in rows:
            assert 0.0 <= r.transfer_fraction < 1.0
        assert "Conv5" in render_transfer_rows(rows)


class TestExperimentRegistry:
    def test_all_sixteen_artifacts(self):
        assert len(EXPERIMENTS) == 16
        assert {"fig2", "fig4", "fig6", "fig7", "table1", "table2"} <= set(EXPERIMENTS)
        for sweep in "abcde":
            assert f"fig3{sweep}" in EXPERIMENTS
            assert f"fig5{sweep}" in EXPERIMENTS

    def test_run_unknown(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    @pytest.mark.parametrize("exp_id", ["table1", "table2", "fig3e", "fig5e"])
    def test_cheap_experiments_run(self, exp_id):
        result, text = run_experiment(exp_id)
        assert result is not None
        assert isinstance(text, str) and text
