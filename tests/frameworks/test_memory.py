"""Memory-plan tests (the Fig. 5 substrate)."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import BASE_CONFIG, ConvConfig
from repro.errors import DeviceOOMError
from repro.frameworks import all_implementations, get_implementation
from repro.frameworks.calibration import CONTEXT_BYTES
from repro.gpusim.device import K40C

from ..gpusim.allocator_oracle import episode, error_fields


@pytest.fixture(scope="module")
def peaks():
    return {impl.name: impl.peak_memory_bytes(BASE_CONFIG)
            for impl in all_implementations()}


class TestMemoryOrdering:
    """Section V-B's ranking at the base configuration."""

    def test_ccn2_lowest(self, peaks):
        others = [v for k, v in peaks.items() if k != "cuda-convnet2"]
        assert peaks["cuda-convnet2"] <= min(others)

    def test_torch_cunn_leanest_unrolling(self, peaks):
        for other in ("caffe", "cudnn", "theano-corrmm"):
            assert peaks["torch-cunn"] < peaks[other]

    def test_fft_family_highest(self, peaks):
        non_fft = [v for k, v in peaks.items()
                   if k not in ("fbfft", "theano-fft")]
        assert peaks["fbfft"] > max(non_fft)

    def test_fbfft_exceeds_theano_fft(self, peaks):
        assert peaks["fbfft"] > peaks["theano-fft"]


class TestMemoryScaling:
    def test_monotone_in_batch(self):
        impl = get_implementation("caffe")
        a = impl.peak_memory_bytes(BASE_CONFIG.scaled(batch=32))
        b = impl.peak_memory_bytes(BASE_CONFIG.scaled(batch=256))
        assert b > a

    def test_fbfft_pow2_jump(self):
        """Fig. 5(b): fbfft's footprint jumps when the input crosses a
        power of two (128 -> 144 pads 128 -> 256)."""
        impl = get_implementation("fbfft")
        below = impl.peak_memory_bytes(BASE_CONFIG.scaled(input_size=128))
        above = impl.peak_memory_bytes(BASE_CONFIG.scaled(input_size=144))
        assert above > 1.8 * below

    def test_unrolling_smooth_at_same_crossing(self):
        impl = get_implementation("caffe")
        below = impl.peak_memory_bytes(BASE_CONFIG.scaled(input_size=128))
        above = impl.peak_memory_bytes(BASE_CONFIG.scaled(input_size=144))
        assert above < 1.5 * below

    def test_theano_fft_kernel_size_fluctuation(self):
        """Fig. 5(d): Theano-fft's transform size depends on i + k - 1,
        so memory is not constant across the kernel sweep."""
        impl = get_implementation("theano-fft")
        peaks = [impl.peak_memory_bytes(BASE_CONFIG.scaled(kernel_size=k))
                 for k in range(2, 14)]
        assert len(set(peaks)) > 1

    def test_ccn2_has_no_workspace(self):
        impl = get_implementation("cuda-convnet2")
        assert impl.workspace_plan(BASE_CONFIG) == []


class TestPaperRanges:
    """Absolute footprints should sit in the right decade (Fig. 5
    quotes: ccn2 125-2076 MB, Caffe 136-3809 MB, fbfft 1632-10866 MB)."""

    def test_ccn2_batch_extremes(self):
        impl = get_implementation("cuda-convnet2")
        lo = impl.peak_memory_bytes(BASE_CONFIG.scaled(batch=32)) / 2**20
        hi = impl.peak_memory_bytes(BASE_CONFIG.scaled(batch=512)) / 2**20
        assert 60 <= lo <= 400
        assert 1500 <= hi <= 2700

    def test_caffe_batch_extremes(self):
        impl = get_implementation("caffe")
        hi = impl.peak_memory_bytes(BASE_CONFIG.scaled(batch=512)) / 2**20
        assert 3000 <= hi <= 4600

    def test_fbfft_batch_extremes(self):
        impl = get_implementation("fbfft")
        lo = impl.peak_memory_bytes(BASE_CONFIG.scaled(batch=32)) / 2**20
        hi = impl.peak_memory_bytes(BASE_CONFIG.scaled(batch=512)) / 2**20
        assert 1200 <= lo <= 2300
        assert 8000 <= hi <= 11800

    def test_fbfft_fits_k40c_over_paper_sweeps(self):
        """The paper ran fbfft on every sweep point, so none may OOM."""
        from repro.config import sweep_configs
        impl = get_implementation("fbfft")
        for sweep in ("batch", "input", "filters", "kernel"):
            for cfg in sweep_configs(sweep):
                impl.peak_memory_bytes(cfg)  # must not raise

    def test_oom_on_oversized_config(self):
        impl = get_implementation("fbfft")
        huge = ConvConfig(batch=2048, input_size=256, filters=256,
                          kernel_size=11, channels=3)
        with pytest.raises(DeviceOOMError):
            impl.peak_memory_bytes(huge)


class TestMemoryPlanContents:
    def test_plan_includes_activations(self):
        plan = dict(get_implementation("caffe").memory_plan(BASE_CONFIG))
        for tag in ("input", "weights", "output", "weight_grad"):
            assert tag in plan
        assert plan["input"] == 64 * 3 * 128 * 128 * 4

    def test_separate_gradient_policy_visible(self):
        caffe_plan = dict(get_implementation("caffe").memory_plan(BASE_CONFIG))
        torch_plan = dict(get_implementation("torch-cunn").memory_plan(BASE_CONFIG))
        assert "input_grad" in caffe_plan and "output_grad" in caffe_plan
        assert "input_grad" not in torch_plan


@st.composite
def configs(draw):
    kernel = draw(st.integers(1, 13))
    padding = draw(st.integers(0, 2))
    return ConvConfig(batch=draw(st.integers(1, 2048)),
                      input_size=draw(st.integers(max(1, kernel - 2 * padding),
                                                  288)),
                      filters=draw(st.integers(1, 512)),
                      kernel_size=kernel,
                      stride=draw(st.integers(1, 4)),
                      channels=draw(st.integers(1, 64)),
                      padding=padding)


class TestPeakMatchesOracle:
    """The Fig. 5 peak is the memory plan allocated buffer by buffer on
    top of the CUDA context: the same peak as the per-buffer oracle,
    or the same out-of-memory error at the same buffer."""

    @settings(max_examples=150, deadline=None)
    @given(config=configs(),
           capacity=st.integers(2**28, K40C.global_memory_bytes))
    def test_peak_or_error_matches_oracle(self, config, capacity):
        device = replace(K40C, global_memory_bytes=capacity)
        for impl in all_implementations():
            if not impl.supports(config):
                continue
            peak, _, error = episode(impl.memory_plan(config), capacity,
                                     baseline=CONTEXT_BYTES)
            try:
                got = impl.peak_memory_bytes(config, device)
            except DeviceOOMError as err:
                assert error_fields(err) == error_fields(error), impl.name
            else:
                assert error is None, impl.name
                assert got == peak, impl.name
