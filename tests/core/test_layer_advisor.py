"""Tests for the per-layer implementation advisor / oracle mix."""

import pytest

from repro.core.layer_advisor import (conv_configs_of, oracle_mix,
                                      per_layer_choices)
from repro.gpusim.occupancy import optimal_block_size
from repro.gpusim.device import K40C
from repro.nn.models import alexnet, lenet5, model_registry


@pytest.fixture(scope="module")
def alexnet_report():
    return oracle_mix("AlexNet", alexnet(), (128, 3, 227, 227))


class TestConvConfigsOf:
    def test_alexnet_five_convs(self):
        configs = conv_configs_of(alexnet(), (128, 3, 227, 227))
        assert len(configs) == 5
        assert configs[0][1].tuple5 == (128, 227, 96, 11, 4)

    def test_lenet_two_convs(self):
        configs = conv_configs_of(lenet5(), (32, 1, 32, 32))
        assert [n for n, _ in configs] == ["conv1", "conv2"]


class TestPerLayerChoices:
    def test_all_layers_choose_their_winner(self, alexnet_report):
        for c in alexnet_report.choices:
            assert c.winner in c.times
            assert c.times[c.winner] == min(c.times.values())

    def test_strided_conv1_excludes_fft(self, alexnet_report):
        conv1 = alexnet_report.choices[0]
        assert "fbfft" not in conv1.times     # stride 4
        assert "Theano-fft" not in conv1.times

    def test_small_kernel_layers_pick_fft_or_winograd_regime(self, alexnet_report):
        """AlexNet's 3x3/5x5 stride-1 layers all pick an FFT winner in
        this model (small inputs, many channels)."""
        for c in alexnet_report.choices[1:]:
            assert c.winner == "fbfft"


class TestOracleMix:
    def test_oracle_never_slower_than_best_single(self, alexnet_report):
        assert alexnet_report.oracle_total <= alexnet_report.best_single_total
        assert alexnet_report.oracle_speedup >= 1.0

    def test_alexnet_mix_saves_substantially(self, alexnet_report):
        """Strided conv1 + FFT-friendly tail: the mix wins >1.3x."""
        assert alexnet_report.oracle_speedup > 1.3

    def test_single_totals_only_universal_impls(self, alexnet_report):
        # FFT impls can't run conv1, so they can't be 'single' choices.
        assert "fbfft" not in alexnet_report.single_totals
        assert "cuDNN" in alexnet_report.single_totals

    def test_render(self, alexnet_report):
        out = alexnet_report.render()
        assert "oracle mix" in out and "winner" in out

    def test_vgg_oracle_close_to_fbfft(self):
        ctor, shape = model_registry()["VGG-16"]
        rep = oracle_mix("VGG-16", ctor(), (64,) + shape)
        # All layers stride-1 3x3: fbfft is near-universal, mix gains
        # little.
        assert rep.oracle_speedup < 1.2


class TestOptimalBlockSize:
    def test_prefers_full_occupancy(self):
        assert optimal_block_size(K40C, 16, 0) in (128, 256)

    def test_respects_register_budget(self):
        block = optimal_block_size(K40C, 116, 16384)
        # Must be launchable.
        from repro.gpusim.occupancy import occupancy
        occupancy(K40C, block, 116, 16384)

    def test_unlaunchable_budget_raises(self):
        with pytest.raises(ValueError):
            optimal_block_size(K40C, 255, 48 * 1024, candidates=(1024,))
