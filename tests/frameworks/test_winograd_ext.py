"""Tests for the cuDNN-Winograd what-if extension adapter."""

import numpy as np
import pytest

from repro.config import BASE_CONFIG, ConvConfig
from repro.conv.reference import conv2d_reference
from repro.core.evalcache import evaluate
from repro.errors import UnsupportedConfigError
from repro.frameworks.registry import IMPLEMENTATION_CLASSES, get_implementation
from repro.frameworks.winograd_ext import (EXTENSION_IMPLEMENTATIONS,
                                           CuDNNWinograd)

VGG_LAYER = ConvConfig(batch=64, input_size=56, filters=256, kernel_size=3,
                       channels=128, padding=1)


@pytest.fixture(scope="module")
def wg():
    return CuDNNWinograd()


class TestRegistration:
    def test_not_among_the_papers_seven(self):
        """The extension must not contaminate the reproduction."""
        assert CuDNNWinograd not in IMPLEMENTATION_CLASSES
        assert CuDNNWinograd in EXTENSION_IMPLEMENTATIONS

    def test_constraints(self, wg):
        assert wg.supports(VGG_LAYER)
        with pytest.raises(UnsupportedConfigError):
            wg.check_config(BASE_CONFIG)  # k = 11
        with pytest.raises(UnsupportedConfigError):
            wg.check_config(VGG_LAYER.scaled(stride=2))


class TestNumerics:
    def test_forward_exact(self, wg, rng):
        x = rng.standard_normal((4, 3, 10, 10))
        w = rng.standard_normal((8, 3, 3, 3))
        np.testing.assert_allclose(wg.forward(x, w),
                                   conv2d_reference(x, w),
                                   rtol=1e-9, atol=1e-9)

    def test_gradients_exact(self, wg, rng):
        from repro.conv.reference import (
            conv2d_reference_backward_input,
            conv2d_reference_backward_weights)
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))
        dy = rng.standard_normal((2, 4, 6, 6))
        np.testing.assert_allclose(
            wg.backward_input(dy, w, (8, 8)),
            conv2d_reference_backward_input(dy, w, (8, 8)),
            rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(
            wg.backward_weights(dy, x, (3, 3)),
            conv2d_reference_backward_weights(dy, x, (3, 3)),
            rtol=1e-9, atol=1e-9)


class TestWhatIfPerformance:
    def test_wins_on_multichannel_3x3(self, wg):
        """The historical outcome: cuDNN v5's Winograd gave ~2x on
        VGG-style layers.  The what-if adapter must beat the v3-era
        implementations on such a layer."""
        t_wg = evaluate(wg, VGG_LAYER).time_s
        t_cudnn = evaluate(get_implementation("cudnn"), VGG_LAYER).time_s
        t_fbfft = evaluate(get_implementation("fbfft"), VGG_LAYER).time_s
        assert t_wg < t_cudnn
        assert t_wg < t_fbfft
        assert 1.2 < t_cudnn / t_wg < 4.0

    def test_transform_overhead_hurts_few_channels(self, wg):
        """With c = 3 the transforms dominate and plain cuDNN keeps
        winning — Winograd is not a free lunch."""
        cfg = BASE_CONFIG.scaled(kernel_size=3)
        assert (evaluate(get_implementation("cudnn"), cfg).time_s
                < evaluate(wg, cfg).time_s)

    def test_kernel_plan_structure(self, wg):
        names = [s.name for s in wg.kernel_plan(VGG_LAYER)]
        assert "winograd_batched_gemm" in names
        assert "winograd_input_transform" in names
        assert "winograd_output_transform" in names

    def test_memory_has_transform_workspaces(self, wg):
        plan = dict(wg.workspace_plan(VGG_LAYER))
        assert set(plan) == {"winograd_V", "winograd_U", "winograd_M"}
        assert wg.peak_memory_bytes(VGG_LAYER) > 0
