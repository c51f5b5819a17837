"""Tests for the roofline analysis."""

import pytest

from repro.gpusim.device import K40C
from repro.gpusim.kernels import KernelRole, KernelSpec, LaunchConfig
from repro.gpusim.roofline import (analyse, render, ridge_point,
                                   roofline_ceiling, summarise)
from repro.gpusim.timing import time_kernel


def timing(name, flops, nbytes):
    spec = KernelSpec(name=name, role=KernelRole.GEMM, flops=flops,
                      gmem_read_bytes=nbytes / 2, gmem_write_bytes=nbytes / 2,
                      launch=LaunchConfig(grid_blocks=2000, block_threads=256),
                      regs_per_thread=64, shared_per_block=8192)
    return time_kernel(K40C, spec)


class TestRoofline:
    def test_ridge_point(self):
        assert ridge_point(K40C) == pytest.approx(4.29e12 / 288e9, rel=0.01)

    def test_ceiling_memory_side(self):
        ai = 1.0
        assert roofline_ceiling(K40C, ai) == pytest.approx(288e9)

    def test_ceiling_compute_side(self):
        assert roofline_ceiling(K40C, 1000.0) == K40C.peak_flops

    def test_ceiling_rejects_negative(self):
        with pytest.raises(ValueError):
            roofline_ceiling(K40C, -1.0)

    def test_analyse_classifies_sides(self):
        pts = analyse(K40C, [
            timing("compute", 1e11, 1e6),
            timing("memory", 1e6, 1e9),
        ])
        by_name = {p.name: p for p in pts}
        assert by_name["compute"].bound == "compute"
        assert by_name["memory"].bound == "memory"

    def test_attained_below_roof(self):
        pts = analyse(K40C, [timing("k", 1e10, 1e7)])
        assert 0 < pts[0].attained_flops <= pts[0].roof_flops
        assert 0 < pts[0].utilisation <= 1.0

    def test_pure_compute_kernel_infinite_intensity(self):
        spec = KernelSpec(name="pure", role=KernelRole.GEMM, flops=1e9,
                          gmem_read_bytes=0, gmem_write_bytes=0,
                          launch=LaunchConfig(grid_blocks=1000,
                                              block_threads=256),
                          regs_per_thread=64, shared_per_block=0)
        pts = analyse(K40C, [time_kernel(K40C, spec)])
        assert pts[0].arithmetic_intensity == float("inf")
        assert pts[0].roof_flops == K40C.peak_flops

    def test_render(self):
        pts = analyse(K40C, [timing("sgemm", 1e10, 1e7)])
        out = render(K40C, pts)
        assert "sgemm" in out and "ridge" in out


class TestSummarise:
    def test_utilisation_bounds(self):
        s = summarise(K40C, [timing("a", 1e10, 1e7), timing("b", 1e6, 1e8)])
        assert 0 < s.flops_utilisation <= 1.0
        assert 0 < s.bandwidth_utilisation <= 1.0
        assert 0 <= s.compute_bound_time_fraction <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarise(K40C, [])

    def test_framework_plan_utilisation(self):
        """A whole cuDNN iteration exploits a sizeable fraction of the
        device — the 'how efficiently the computing power of GPUs has
        been exploited' question of the introduction."""
        from repro.config import BASE_CONFIG
        from repro.frameworks.registry import get_implementation
        prof = get_implementation("cudnn").profile_iteration(BASE_CONFIG)
        s = summarise(K40C, prof.profiler.executions)
        assert 0.15 < s.flops_utilisation < 0.9
