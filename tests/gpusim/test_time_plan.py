"""The one-pass timing engine against the per-kernel oracle.

:func:`~repro.gpusim.timing.time_plan` times a whole plan in one loop
over per-device lookup tables; :mod:`.timing_oracle` times each kernel
alone with every sub-model called directly.  Every field of every row
must agree to the bit on every catalogue device, and an evaluation
record's rows must survive the JSON store unchanged.
"""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import BASE_CONFIG
from repro.core.evalcache import EvalRecord, compute_record
from repro.frameworks.registry import all_implementations
from repro.gpusim.banks import SharedAccess
from repro.gpusim.coalescing import WarpAccess
from repro.gpusim.device import DEVICES, K40C
from repro.gpusim.divergence import DivergenceProfile
from repro.gpusim.kernels import KernelRole, KernelSpec, LaunchConfig
from repro.gpusim.timing import TABLE_COLUMNS, time_plan

from . import timing_oracle

work = st.one_of(st.just(0.0), st.floats(1.0, 1e12))

warp_accesses = st.builds(
    WarpAccess, word_bytes=st.sampled_from((1, 2, 4, 8, 16)),
    stride_words=st.integers(0, 40), offset_bytes=st.integers(0, 256),
    active_lanes=st.integers(1, 32))

shared_accesses = st.builds(
    SharedAccess, stride_words=st.integers(0, 33),
    word_bytes=st.sampled_from((4, 8, 16)), active_lanes=st.integers(1, 32))

divergences = st.builds(
    DivergenceProfile, divergent_fraction=st.floats(0.0, 1.0),
    branch_paths=st.floats(1.0, 4.0), tail_fraction=st.floats(0.0, 1.0),
    tail_active_lanes=st.floats(0.5, 32.0))


@st.composite
def kernel_specs(draw):
    flops, read, write = draw(work), draw(work), draw(work)
    if not (flops or read or write):
        flops = 1e9
    threads = draw(st.integers(1, 1024))
    # Registers per thread that let one block fit a 64K-register SM
    # (allocated per warp in 256-register units); a few draws exceed
    # it, and such a plan must fail to launch.
    fit = 65536 // -(-threads // 32) // 256 * 256 // 32
    return KernelSpec(
        name=draw(st.sampled_from(("sgemm", "im2col", "fft"))),
        role=draw(st.sampled_from(list(KernelRole))),
        flops=flops, gmem_read_bytes=read, gmem_write_bytes=write,
        launch=LaunchConfig(draw(st.integers(1, 200_000)), threads),
        regs_per_thread=draw(st.integers(0, min(255, fit + 8))),
        shared_per_block=draw(st.integers(0, 49152)),
        compute_efficiency=draw(st.floats(0.01, 1.0)),
        load_pattern=draw(warp_accesses),
        store_pattern=draw(warp_accesses),
        shared_accesses=tuple(draw(st.lists(shared_accesses, max_size=3))),
        divergence=draw(divergences),
        overhead_instr_ratio=draw(st.floats(0.0, 3.0)),
        shared_traffic_bytes=draw(work),
        repeats=draw(st.integers(1, 64)),
        timing_bandwidth_fraction=draw(st.none() | st.floats(0.01, 1.0)))


def plain(**changes) -> KernelSpec:
    """A launchable GEMM-like kernel (8 blocks/SM on the K40c)."""
    fields = dict(name="k", role=KernelRole.GEMM, flops=1e10,
                  gmem_read_bytes=1e8, gmem_write_bytes=1e7,
                  launch=LaunchConfig(2000, 256))
    fields.update(changes)
    return KernelSpec(**fields)


CONFLICTED = (SharedAccess(stride_words=2), SharedAccess(stride_words=8,
                                                           word_bytes=8))


@settings(max_examples=200, deadline=None)
@given(device=st.sampled_from(sorted(DEVICES.values(),
                                     key=lambda d: d.name)),
       specs=st.lists(kernel_specs(), min_size=1, max_size=6))
@example(device=K40C, specs=[plain(flops=0.0)])
@example(device=K40C, specs=[plain(gmem_read_bytes=0.0)])
@example(device=K40C, specs=[plain(timing_bandwidth_fraction=0.35)])
@example(device=K40C, specs=[plain(shared_accesses=CONFLICTED,
                                   shared_traffic_bytes=3e8)])
# 8 blocks/SM x 15 SMs = 120 a wave: one full wave and a 7-block tail.
@example(device=K40C, specs=[plain(launch=LaunchConfig(127, 256))])
# Three blocks: achieved occupancy below the shared phase's 0.05 floor.
@example(device=K40C, specs=[plain(launch=LaunchConfig(3, 256),
                                   shared_accesses=CONFLICTED,
                                   shared_traffic_bytes=3e8)])
def test_every_field_matches_the_oracle(device, specs):
    try:
        want = [timing_oracle.time_kernel(device, s) for s in specs]
    except ValueError:
        # A launch that cannot fit one block per SM fails either way.
        with pytest.raises(ValueError):
            time_plan(device, specs)
        return
    table = time_plan(device, specs)
    got = [dict(zip(TABLE_COLUMNS, row)) for row in zip(*table)]
    assert got == want
    for row in got:
        assert type(row["shared_load_bank_conflicts"]) is int
        assert type(row["shared_store_bank_conflicts"]) is int


@pytest.mark.parametrize("config", [BASE_CONFIG, BASE_CONFIG.scaled(stride=2)],
                         ids=["stride1", "stride2"])
def test_record_rows_survive_the_store(config):
    """A fresh record's rows equal its rows after a JSON round trip,
    unsupported records (no rows) included."""
    for impl in all_implementations():
        fresh = compute_record(impl, config)
        stored = EvalRecord.from_dict(json.loads(json.dumps(
            fresh.to_dict())))
        assert stored.kernels == fresh.kernels
        assert stored == fresh
        if fresh.supported:
            assert len(fresh.kernels) == len(impl.kernel_plan(config))
        else:
            assert fresh.kernels == ()
