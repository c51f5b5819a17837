"""Tests for the device zoo and sensitivity analysis."""

import pytest

from repro.core.sensitivity import (bandwidth_sensitivity, device_comparison,
                                    headlines, perturb,
                                    render_device_comparison)
from repro.gpusim.device import DEVICES, K20X, K40C, M40, TITAN_X


class TestDeviceZoo:
    def test_four_devices(self):
        # The four sensitivity-study cards plus the Pascal profile.
        assert len(DEVICES) == 5
        assert "Tesla K40c" in DEVICES

    def test_k20x_is_smaller_k40(self):
        assert K20X.peak_flops < K40C.peak_flops
        assert K20X.global_memory_bytes == 6 * 2**30

    def test_maxwell_parts_share_sm_shape(self):
        assert TITAN_X.cores_per_sm == M40.cores_per_sm == 128
        assert TITAN_X.peak_flops > K40C.peak_flops


class TestHeadlines:
    @pytest.fixture(scope="class")
    def rows(self):
        return device_comparison()

    def test_qualitative_conclusions_robust(self, rows):
        """The paper's rankings hold on every modelled device: fbfft
        fastest at the base config, cuda-convnet2 least memory, fbfft
        most memory."""
        for r in rows:
            assert r.base_winner == "fbfft"
            assert r.memory_low == "cuda-convnet2"
            assert r.memory_high == "fbfft"

    def test_crossover_exists_everywhere(self, rows):
        for r in rows:
            assert r.kernel_crossover is not None
            assert 3 <= r.kernel_crossover <= 9

    def test_render(self, rows):
        out = render_device_comparison(rows)
        assert "K40c" in out and "crossover" in out

    def test_default_rows_ignore_the_profile_registry(self):
        """The default table is the four cards of the sensitivity study,
        not the whole catalogue, whatever has loaded the registry."""
        from repro.devices import default_registry

        default_registry()
        assert [r.device for r in device_comparison()] == \
            [d.name for d in (K40C, K20X, TITAN_X, M40)]


class TestPerturbation:
    def test_more_bandwidth_earlier_crossover(self):
        """fbfft is bandwidth-heavy: feeding it more DRAM bandwidth
        moves the kernel-size crossover earlier."""
        results = bandwidth_sensitivity((0.5, 1.0, 2.0))
        crossovers = [r.kernel_crossover for r in results]
        assert crossovers[0] >= crossovers[1] >= crossovers[2]

    def test_clock_scaling_preserves_winner(self):
        assert perturb("clock_hz", 1.5).base_winner == "fbfft"

    def test_unknown_parameter(self):
        with pytest.raises(KeyError):
            perturb("magic", 2.0)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            perturb("clock_hz", 0.0)
