"""Tests for metric aggregation (the Fig. 6 weighting method)."""

import pytest

from repro.gpusim.device import K40C
from repro.gpusim.kernels import KernelRole, KernelSpec, LaunchConfig
from repro.gpusim.metrics import (kernel_shares, runtime_shares,
                                  weighted_summary)
from repro.gpusim.timing import time_kernel


def timing(name, role, flops, regs=64):
    s = KernelSpec(name=name, role=role, flops=flops,
                   gmem_read_bytes=1e6, gmem_write_bytes=1e6,
                   launch=LaunchConfig(grid_blocks=1000, block_threads=256),
                   regs_per_thread=regs, shared_per_block=4096)
    return time_kernel(K40C, s)


@pytest.fixture
def timings():
    return [
        timing("sgemm_a", KernelRole.GEMM, 5e10),
        timing("sgemm_b", KernelRole.GEMM, 3e10),
        timing("im2col", KernelRole.IM2COL, 1e9),
    ]


class TestWeightedSummary:
    def test_runtime_is_total(self, timings):
        s = weighted_summary(timings)
        assert s.runtime_s == pytest.approx(sum(t.time_s for t in timings))

    def test_weighted_average_between_extremes(self, timings):
        s = weighted_summary(timings)
        occs = [t.achieved_occupancy for t in timings]
        assert min(occs) <= s.achieved_occupancy <= max(occs)

    def test_weights_follow_runtime(self):
        """A long kernel dominates the weighted estimate."""
        long_k = timing("long", KernelRole.GEMM, 1e11, regs=116)
        short_k = timing("short", KernelRole.POINTWISE, 1e7, regs=16)
        s = weighted_summary([long_k, short_k])
        assert abs(s.achieved_occupancy - long_k.achieved_occupancy) < 0.02

    def test_top_n_restricts(self, timings):
        s_all = weighted_summary(timings)
        s_top1 = weighted_summary(timings, top_n=1)
        longest = max(timings, key=lambda t: t.time_s)
        assert s_top1.achieved_occupancy == pytest.approx(
            longest.achieved_occupancy)
        # total runtime still reported over all kernels
        assert s_top1.runtime_s == pytest.approx(s_all.runtime_s)

    def test_empty_rejected(self):
        for aggregate in (weighted_summary, runtime_shares, kernel_shares):
            with pytest.raises(ValueError):
                aggregate([])

    def test_bad_top_n(self, timings):
        with pytest.raises(ValueError):
            weighted_summary(timings, top_n=0)


class TestShares:
    def test_role_shares_sum_to_one(self, timings):
        shares = runtime_shares(timings)
        assert sum(shares.values()) == pytest.approx(1.0)
        assert set(shares) == {"GEMM", "im2col"}

    def test_gemm_dominates(self, timings):
        shares = runtime_shares(timings)
        assert shares["GEMM"] > 0.9

    def test_kernel_shares_finer_than_roles(self, timings):
        ks = kernel_shares(timings)
        assert set(ks) == {"sgemm_a", "sgemm_b", "im2col"}
        assert sum(ks.values()) == pytest.approx(1.0)
