"""Tests for the nvprof-like profiler session."""

import pytest

from repro.errors import ProfilerError
from repro.gpusim.device import K40C
from repro.gpusim.kernels import KernelRole, KernelSpec, LaunchConfig
from repro.gpusim.metrics import runtime_shares
from repro.gpusim.profiler import Profiler
from repro.gpusim.transfer import TransferKind


def spec(name="k", flops=1e9, role=KernelRole.GEMM):
    return KernelSpec(name=name, role=role, flops=flops,
                      gmem_read_bytes=1e6, gmem_write_bytes=1e6,
                      launch=LaunchConfig(grid_blocks=500, block_threads=256),
                      regs_per_thread=64, shared_per_block=4096)


class TestSession:
    def test_launch_records_execution(self):
        prof = Profiler(K40C)
        table = prof.launch([spec()])
        assert len(prof.executions) == 1
        assert prof.gpu_time() == pytest.approx(table.time_s[0])

    def test_launch_all(self):
        """Successive plans append to the session in launch order."""
        prof = Profiler(K40C)
        prof.launch([spec("a"), spec("b")])
        prof.launch([spec("c")])
        assert [e.name for e in prof.executions] == ["a", "b", "c"]
        assert prof.table.name == ("a", "b", "c")
        assert prof.gpu_time() == sum(e.time_s for e in prof.executions)

    def test_nested_session_rejected(self):
        prof = Profiler(K40C)
        with prof.session():
            with pytest.raises(ProfilerError):
                prof.__enter__()

    def test_session_reusable_after_exit(self):
        prof = Profiler(K40C)
        with prof.session():
            pass
        with prof.session():
            prof.launch([spec()])
        assert prof.executions

    def test_reset(self):
        prof = Profiler(K40C)
        prof.launch([spec()])
        prof.record_transfer(TransferKind.H2D, 1000)
        prof.reset()
        assert not prof.executions
        assert prof.transfers.total_bytes == 0


class TestQueries:
    def test_hotspot_roles_grouping(self):
        prof = Profiler(K40C)
        prof.launch([spec("g1", 5e10, KernelRole.GEMM),
                     spec("g2", 5e10, KernelRole.GEMM),
                     spec("t", 1e8, KernelRole.TRANSPOSE)])
        roles = runtime_shares(prof.executions)
        assert roles["GEMM"] > roles["transpose"]
        assert sum(roles.values()) == pytest.approx(1.0)

    def test_transfers_recorded(self):
        prof = Profiler(K40C)
        prof.record_transfer(TransferKind.H2D, 2**20, pinned=True, async_=True)
        assert prof.transfers.asynchronous_time() > 0
        assert prof.transfers.synchronous_time() == 0
