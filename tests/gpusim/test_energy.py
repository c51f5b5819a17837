"""Tests for the energy model."""

import pytest

from repro.config import BASE_CONFIG
from repro.frameworks.registry import get_implementation
from repro.gpusim.device import K40C, TITAN_X
from repro.gpusim.energy import (STATIC_FRACTION, EnergyReport, device_tdp,
                                 iteration_energy, kernel_energy,
                                 kernel_power)
from repro.gpusim.kernels import KernelRole, KernelSpec, LaunchConfig
from repro.gpusim.timing import time_kernel


def timing(flops=1e10, nbytes=2e6):
    spec = KernelSpec(name="k", role=KernelRole.GEMM, flops=flops,
                      gmem_read_bytes=nbytes / 2, gmem_write_bytes=nbytes / 2,
                      launch=LaunchConfig(2000, 256), regs_per_thread=64,
                      shared_per_block=8192, compute_efficiency=0.7)
    return time_kernel(K40C, spec)


class TestKernelPower:
    def test_bounded_by_static_and_tdp(self):
        p = kernel_power(K40C, timing())
        assert STATIC_FRACTION * 235.0 <= p <= 235.0

    def test_busier_kernel_draws_more(self):
        lazy = timing(flops=1e8, nbytes=1e5)
        busy = timing(flops=1e11, nbytes=1e6)
        assert kernel_power(K40C, busy) > kernel_power(K40C, lazy)

    def test_device_tdp_table(self):
        assert device_tdp(K40C) == 235.0
        assert device_tdp(TITAN_X) == 250.0

    def test_energy_is_power_times_time(self):
        t = timing()
        assert kernel_energy(K40C, t) == pytest.approx(
            kernel_power(K40C, t) * t.time_s)


class TestIterationEnergy:
    def test_accumulates(self):
        ts = [timing(), timing(flops=5e9)]
        rep = iteration_energy(K40C, ts)
        assert rep.energy_j == pytest.approx(
            sum(kernel_energy(K40C, t) for t in ts))
        assert rep.time_s == pytest.approx(sum(t.time_s for t in ts))

    def test_images_per_joule(self):
        rep = EnergyReport(energy_j=10.0, time_s=1.0)
        assert rep.images_per_joule(50) == 5.0
        with pytest.raises(ValueError):
            rep.images_per_joule(0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            iteration_energy(K40C, [])

    def test_fbfft_most_efficient_at_base(self):
        """The headline result of the energy extension: the fastest
        implementation is also by far the most images-per-joule."""
        effs = {}
        for name in ("fbfft", "cudnn", "caffe", "theano-fft"):
            impl = get_implementation(name)
            p = impl.profile_iteration(BASE_CONFIG)
            rep = iteration_energy(K40C, p.profiler.executions)
            effs[name] = rep.images_per_joule(BASE_CONFIG.batch)
        assert effs["fbfft"] > 2 * effs["cudnn"] > 2 * effs["theano-fft"]

    def test_average_power_zero_guard(self):
        assert EnergyReport(0.0, 0.0).average_power_w == 0.0
