"""Tests for the ConvImplementation interface and iteration profiles."""

import pytest

from repro.config import BASE_CONFIG
from repro.core.evalcache import evaluate
from repro.frameworks import all_implementations, get_implementation
from repro.frameworks.base import IterationProfile
from repro.frameworks.registry import IMPLEMENTATION_CLASSES, implementation_map
from repro.gpusim.transfer import TransferKind


class TestRegistry:
    def test_seven_implementations(self):
        assert len(IMPLEMENTATION_CLASSES) == 7
        assert len(all_implementations()) == 7

    def test_paper_names(self):
        names = {i.paper_name for i in all_implementations()}
        assert names == {"Caffe", "Torch-cunn", "Theano-CorrMM",
                         "Theano-fft", "cuDNN", "cuda-convnet2", "fbfft"}

    def test_map_and_lookup(self):
        m = implementation_map()
        assert set(m) == {"caffe", "torch-cunn", "theano-corrmm",
                          "theano-fft", "cudnn", "cuda-convnet2", "fbfft"}
        assert get_implementation("fbfft").name == "fbfft"

    def test_unknown_lookup(self):
        with pytest.raises(KeyError):
            get_implementation("tensorflow")

    def test_fresh_instances(self):
        assert get_implementation("caffe") is not get_implementation("caffe")

    def test_strategies(self):
        from repro.frameworks.base import Strategy
        by_strategy = {}
        for impl in all_implementations():
            by_strategy.setdefault(impl.strategy, []).append(impl.name)
        assert sorted(by_strategy[Strategy.UNROLLING]) == [
            "caffe", "cudnn", "theano-corrmm", "torch-cunn"]
        assert by_strategy[Strategy.DIRECT] == ["cuda-convnet2"]
        assert sorted(by_strategy[Strategy.FFT]) == ["fbfft", "theano-fft"]


class TestIterationProfile:
    @pytest.fixture(scope="class")
    def profile(self) -> IterationProfile:
        return get_implementation("caffe").profile_iteration(BASE_CONFIG)

    def test_total_is_gpu_plus_exposed(self, profile):
        assert profile.total_time_s == pytest.approx(
            profile.gpu_time_s + profile.exposed_transfer_s)

    def test_profiler_carries_kernels(self, profile):
        assert profile.profiler.executions
        assert profile.gpu_time_s == pytest.approx(
            profile.profiler.gpu_time())

    def test_time_iteration_matches_profile(self):
        """The evaluation record carries the profile's iteration time
        and the Fig. 7 transfer share derived from it."""
        for name in ("caffe", "torch-cunn"):
            impl = get_implementation(name)
            profile = impl.profile_iteration(BASE_CONFIG)
            record = evaluate(impl, BASE_CONFIG)
            assert record.time_s == profile.total_time_s
            assert record.gpu_time_s == profile.gpu_time_s
            assert record.transfer_fraction == (
                profile.exposed_transfer_s / profile.total_time_s)
            assert 0.0 <= record.transfer_fraction <= 1.0

    def test_async_transfers_hidden(self):
        """Caffe prefetches: its input copy must be fully hidden."""
        p = get_implementation("caffe").profile_iteration(BASE_CONFIG)
        assert p.transfer_time_s > 0           # the copy happens...
        assert p.exposed_transfer_s == pytest.approx(0.0, abs=1e-6)

    def test_sync_transfers_exposed(self):
        p = get_implementation("torch-cunn").profile_iteration(BASE_CONFIG)
        assert p.exposed_transfer_s > 0


class TestTransferOps:
    def test_every_impl_loads_input(self):
        x_bytes = 64 * 3 * 128 * 128 * 4
        for impl in all_implementations():
            ops = impl.transfer_ops(BASE_CONFIG)
            h2d = [o for o in ops if o.kind is TransferKind.H2D]
            assert h2d and h2d[0].bytes == x_bytes, impl.name

    def test_corrmm_host_staging_only_on_huge_col(self):
        from repro.config import TABLE1_CONFIGS
        impl = get_implementation("theano-corrmm")
        conv2 = impl.transfer_ops(TABLE1_CONFIGS["Conv2"])
        conv4 = impl.transfer_ops(TABLE1_CONFIGS["Conv4"])
        assert len(conv2) > len(conv4)

    def test_theano_fft_roundtrips_output(self):
        impl = get_implementation("theano-fft")
        ops = impl.transfer_ops(BASE_CONFIG)
        assert any(o.kind is TransferKind.D2H for o in ops)
