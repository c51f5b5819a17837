"""Tests for the GEMM/FFT analytic models and calibration tables."""

import pytest
from hypothesis import given, strategies as st

from repro.config import BASE_CONFIG, ConvConfig
from repro.frameworks.calibration import (FFT_CALIBRATION, GEMM_CALIBRATION,
                                          TABLE2_RESOURCES, GemmCalibration)
from repro.frameworks.fft_model import (fft2_flops, iteration_workload,
                                        transform_size)
from repro.frameworks.gemm_model import (gemm_efficiency, gemm_grid_blocks,
                                         tile_quantisation)


class TestGemmModel:
    CAL = GemmCalibration(asymptote=0.7)

    def test_large_gemm_approaches_asymptote(self):
        eff = gemm_efficiency(self.CAL, 4096, 4096, 4096)
        assert 0.6 < eff <= 0.7

    def test_small_gemm_is_inefficient(self):
        assert gemm_efficiency(self.CAL, 8, 8, 8) < 0.1

    @given(m=st.integers(1, 2048), n=st.integers(1, 2048),
           k=st.integers(1, 2048))
    def test_bounded(self, m, n, k):
        eff = gemm_efficiency(self.CAL, m, n, k)
        assert 0 < eff <= self.CAL.asymptote

    @given(m=st.integers(1, 1024))
    def test_monotone_in_k(self, m):
        a = gemm_efficiency(self.CAL, m, 512, 64)
        b = gemm_efficiency(self.CAL, m, 512, 512)
        assert b >= a

    def test_tile_quantisation_exact_tiles(self):
        assert tile_quantisation(self.CAL, 128, 128) == 1.0

    def test_tile_quantisation_partial_tile(self):
        w = tile_quantisation(self.CAL, 65, 64)
        assert w == pytest.approx(128 / 65)

    def test_grid_blocks_split_k_floor(self):
        """Small outputs split along K so the device stays busy."""
        assert gemm_grid_blocks(self.CAL, 64, 64) >= 90

    def test_grid_blocks_large_output(self):
        assert gemm_grid_blocks(self.CAL, 1024, 1024) == 16 * 16

    def test_large_m_variant_switch(self):
        cal = GEMM_CALIBRATION["theano-corrmm"]
        small = gemm_efficiency(cal, 64, 8192, 256)
        large = gemm_efficiency(cal, 512, 8192, 256)
        assert large > small

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            gemm_efficiency(self.CAL, 0, 1, 1)


class TestFftModel:
    def test_fft2_flops_positive_and_growing(self):
        assert fft2_flops(64) < fft2_flops(128) < fft2_flops(256)

    def test_one_point_transform_is_free(self):
        """A 1 x 1 input transforms at n = 1, which every FFT
        implementation accepts."""
        assert fft2_flops(1) == 0.0
        with pytest.raises(ValueError):
            fft2_flops(0)
        for name in ("fbfft", "theano-fft"):
            iteration_workload(FFT_CALIBRATION[name],
                               ConvConfig(batch=1, input_size=1, filters=1,
                                          kernel_size=1, stride=1))

    def test_transform_size_pow2(self):
        cal = FFT_CALIBRATION["fbfft"]
        assert transform_size(cal, 128) == 128
        assert transform_size(cal, 129) == 256

    def test_transform_size_smooth(self):
        cal = FFT_CALIBRATION["theano-fft"]
        n = transform_size(cal, 130)
        assert n >= 130
        m = n
        for p in (2, 3, 5, 7):
            while m % p == 0:
                m //= p
        assert m == 1

    def test_workload_counts(self):
        cal = FFT_CALIBRATION["fbfft"]
        w = iteration_workload(cal, BASE_CONFIG)
        b, i, f, k, s = BASE_CONFIG.tuple5
        c = BASE_CONFIG.channels
        assert w.forward_transforms == b * c + f * c + b * f
        assert w.transform_n == 128
        assert w.cgemm_flops == 3 * 8 * b * f * c * w.freq_bins

    def test_kernel_size_invariance_fbfft(self):
        """Fig. 3(d): fbfft's work barely depends on k."""
        cal = FFT_CALIBRATION["fbfft"]
        w3 = iteration_workload(cal, BASE_CONFIG.scaled(kernel_size=3))
        w13 = iteration_workload(cal, BASE_CONFIG.scaled(kernel_size=13))
        assert w3.transform_n == w13.transform_n
        assert w3.fft_flops == w13.fft_flops

    def test_full_pad_adds_kernel_dependence(self):
        cal = FFT_CALIBRATION["theano-fft"]
        w3 = iteration_workload(cal, BASE_CONFIG.scaled(kernel_size=3))
        w13 = iteration_workload(cal, BASE_CONFIG.scaled(kernel_size=13))
        assert w13.transform_n >= w3.transform_n

    def test_spectrum_bytes_scale_with_batch(self):
        cal = FFT_CALIBRATION["fbfft"]
        a = iteration_workload(cal, BASE_CONFIG.scaled(batch=32))
        b = iteration_workload(cal, BASE_CONFIG.scaled(batch=256))
        assert b.spectrum_bytes > 4 * a.spectrum_bytes


class TestTable2:
    """Calibration must quote the paper's Table II exactly."""

    @pytest.mark.parametrize("name,regs,shared_kb", [
        ("caffe", 86, 8.5), ("cudnn", 80, 8.4), ("torch-cunn", 84, 8.1),
        ("theano-corrmm", 72, 7.0), ("cuda-convnet2", 116, 16.0),
        ("fbfft", 106, 10.0), ("theano-fft", 2, 4.5),
    ])
    def test_paper_values(self, name, regs, shared_kb):
        res = TABLE2_RESOURCES[name]
        assert res.registers_per_thread == regs
        assert res.shared_per_block == pytest.approx(shared_kb * 1024, rel=0.05)
