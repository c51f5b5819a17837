"""Tests for the device memory allocator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AllocationError, DeviceOOMError
from repro.gpusim.allocator import ALLOC_GRANULARITY, DeviceAllocator
from repro.gpusim.device import K40C


@pytest.fixture
def allocator():
    return DeviceAllocator(K40C, baseline=0)


class TestAllocFree:
    def test_alloc_tracks_usage(self, allocator):
        buf = allocator.alloc(1024, tag="x")
        assert allocator.in_use == 1024
        assert allocator.live_buffers == 1
        allocator.free(buf)
        assert allocator.in_use == 0

    def test_rounds_to_granularity(self, allocator):
        allocator.alloc(1)
        assert allocator.in_use == 512

    def test_peak_is_high_water_mark(self, allocator):
        a = allocator.alloc(2048)
        b = allocator.alloc(4096)
        allocator.free(a)
        allocator.free(b)
        assert allocator.peak == 6144
        assert allocator.in_use == 0

    def test_double_free_rejected(self, allocator):
        buf = allocator.alloc(512)
        allocator.free(buf)
        with pytest.raises(AllocationError):
            allocator.free(buf)

    def test_nonpositive_alloc_rejected(self, allocator):
        with pytest.raises(AllocationError):
            allocator.alloc(0)

    def test_free_all(self, allocator):
        for _ in range(5):
            allocator.alloc(1024)
        allocator.free_all()
        assert allocator.in_use == 0
        assert allocator.live_buffers == 0

    def test_reset_peak(self, allocator):
        a = allocator.alloc(4096)
        allocator.free(a)
        allocator.reset_peak()
        assert allocator.peak == 0


class TestOOM:
    def test_oversized_alloc_raises(self, allocator):
        with pytest.raises(DeviceOOMError):
            allocator.alloc(K40C.global_memory_bytes + 1)

    def test_cumulative_oom(self, allocator):
        allocator.alloc(K40C.global_memory_bytes - 1024)
        with pytest.raises(DeviceOOMError) as e:
            allocator.alloc(2048)
        assert e.value.capacity == K40C.global_memory_bytes

    def test_failed_alloc_does_not_leak(self, allocator):
        before = allocator.in_use
        with pytest.raises(DeviceOOMError):
            allocator.alloc(K40C.global_memory_bytes * 2)
        assert allocator.in_use == before

    def test_exactly_full_is_fine(self, allocator):
        allocator.alloc(K40C.global_memory_bytes)
        assert allocator.free_bytes == 0


class TestBaseline:
    def test_baseline_counts_toward_peak(self):
        a = DeviceAllocator(K40C, baseline=100 * 2**20)
        assert a.peak == 100 * 2**20

    def test_baseline_validation(self):
        with pytest.raises(AllocationError):
            DeviceAllocator(K40C, baseline=-1)
        with pytest.raises(AllocationError):
            DeviceAllocator(K40C, baseline=K40C.global_memory_bytes + 1)


class TestScoped:
    def test_scoped_frees_on_exit(self, allocator):
        with allocator.scoped(8192):
            assert allocator.in_use == 8192
        assert allocator.in_use == 0

    def test_scoped_frees_on_exception(self, allocator):
        with pytest.raises(RuntimeError):
            with allocator.scoped(8192):
                raise RuntimeError("boom")
        assert allocator.in_use == 0


class TestInvariants:
    @given(sizes=st.lists(st.integers(1, 10**6), min_size=1, max_size=50))
    def test_alloc_free_all_balances(self, sizes):
        a = DeviceAllocator(K40C, baseline=0)
        bufs = [a.alloc(s) for s in sizes]
        assert a.in_use == sum(b.rounded_size for b in bufs)
        assert a.peak == a.in_use
        for b in bufs:
            a.free(b)
        assert a.in_use == 0

    @given(sizes=st.lists(st.integers(1, 10**6), min_size=2, max_size=30),
           data=st.data())
    def test_interleaved_never_negative(self, sizes, data):
        a = DeviceAllocator(K40C, baseline=0)
        live = []
        for s in sizes:
            live.append(a.alloc(s))
            if live and data.draw(st.booleans()):
                a.free(live.pop(data.draw(
                    st.integers(0, len(live) - 1))))
            assert a.in_use >= 0
            assert a.peak >= a.in_use


class TestReplayMatchesAllocFree:
    """``replay_transient`` is the only allocator path serving dispatch
    takes, so it must be indistinguishable from allocating every buffer
    of the plan and freeing them all again."""

    CAPACITY = K40C.global_memory_bytes

    @staticmethod
    def outcome(allocator, episode):
        try:
            episode()
        except DeviceOOMError as err:
            error = (type(err), vars(err))
        else:
            error = None
        return allocator.peak, allocator.in_use, error

    # Sizes up to 8 GiB: two buffers can overflow the 12 GiB card, so
    # episodes fit, hit pressure or hit OOM part-way through.
    @settings(max_examples=300)
    @given(sizes=st.lists(st.integers(1, 8 * 2**30), max_size=6),
           baseline=st.integers(0, 4 * 2**30),
           reserved=st.one_of(st.just(0), st.integers(1, 12 * 2**30)))
    def test_same_peak_in_use_and_error(self, sizes, baseline, reserved):
        real = DeviceAllocator(K40C, baseline=baseline)
        fast = DeviceAllocator(K40C, baseline=baseline)
        for allocator in (real, fast):
            allocator.set_pressure(lambda: reserved)

        def alloc_free():
            buffers = []
            try:
                for size in sizes:
                    buffers.append(real.alloc(size))
            finally:
                for buf in buffers:
                    real.free(buf)

        rounded = [-(-size // ALLOC_GRANULARITY) * ALLOC_GRANULARITY
                   for size in sizes]
        assert (self.outcome(fast, lambda: fast.replay_transient(
                    rounded, sum(rounded)))
                == self.outcome(real, alloc_free))
