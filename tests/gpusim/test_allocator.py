"""Tests for the allocation rule and the device allocator."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import AllocationError, DeviceOOMError, MemoryPressureError
from repro.gpusim.allocator import DeviceAllocator, replay
from repro.gpusim.device import K40C

from .allocator_oracle import episode, error_fields

CAPACITY = K40C.global_memory_bytes


def total(plan):
    return replay(plan, 0, math.inf)


@pytest.fixture
def allocator():
    return DeviceAllocator(K40C, baseline=0)


class TestAllocFree:
    """An allocate-everything-then-free-everything episode."""

    def test_alloc_tracks_usage(self, allocator):
        plan = [("x", 1024)]
        assert replay(plan, 0, CAPACITY) == 1024
        assert allocator.replay_transient(plan, total(plan)) == 1024
        assert allocator.peak == 1024

    def test_rounds_to_granularity(self):
        assert replay([("x", 1)], 0, CAPACITY) == 512
        assert replay([("x", 512), ("y", 513)], 0, CAPACITY) == 512 + 1024

    def test_peak_is_high_water_mark(self, allocator):
        small, large = [("a", 2048)], [("a", 2048), ("b", 4096)]
        allocator.replay_transient(large, total(large))
        assert allocator.replay_transient(small, total(small)) == 2048
        assert allocator.peak == 6144

    def test_skips_non_positive_sizes(self):
        assert replay([("a", 0), ("b", -512), ("c", 1)], 0, CAPACITY) == 512


class TestOOM:
    def test_oversized_alloc_raises(self):
        with pytest.raises(DeviceOOMError) as e:
            replay([("x", CAPACITY + 1)], 0, CAPACITY)
        assert e.value.requested == CAPACITY + 512
        assert e.value.in_use == 0

    def test_cumulative_oom(self):
        with pytest.raises(DeviceOOMError) as e:
            replay([("a", CAPACITY - 1024), ("b", 2048)], 0, CAPACITY)
        assert e.value.capacity == CAPACITY
        assert e.value.in_use == CAPACITY - 1024
        assert e.value.requested == 2048

    def test_failed_alloc_does_not_leak(self, allocator):
        plan = [("a", 1024), ("b", CAPACITY * 2)]
        with pytest.raises(DeviceOOMError):
            allocator.replay_transient(plan, total(plan))
        # The prefix is charged to the peak, and nothing stays behind.
        assert allocator.peak == 1024
        fits = [("a", 4096)]
        assert allocator.replay_transient(fits, total(fits)) == 4096

    def test_exactly_full_is_fine(self):
        assert replay([("x", CAPACITY)], 0, CAPACITY) == CAPACITY

    def test_capacity_is_checked_before_pressure(self):
        with pytest.raises(DeviceOOMError) as e:
            replay([("x", CAPACITY + 1)], 0, CAPACITY, reserved=2**30)
        assert type(e.value) is DeviceOOMError
        with pytest.raises(MemoryPressureError) as e:
            replay([("x", CAPACITY - 2**29)], 0, CAPACITY, reserved=2**30)
        assert e.value.reserved == 2**30


class TestBaseline:
    def test_baseline_counts_toward_peak(self):
        a = DeviceAllocator(K40C, baseline=100 * 2**20)
        assert a.peak == 100 * 2**20
        plan = [("x", 1)]
        assert a.replay_transient(plan, total(plan)) == 100 * 2**20 + 512
        assert replay(plan, 100 * 2**20, CAPACITY) == 100 * 2**20 + 512

    def test_baseline_validation(self):
        with pytest.raises(AllocationError):
            DeviceAllocator(K40C, baseline=-1)
        with pytest.raises(AllocationError):
            DeviceAllocator(K40C, baseline=K40C.global_memory_bytes + 1)


class TestReplayMatchesAllocFree:
    """``replay_transient`` is the only allocator path serving dispatch
    takes: it must charge the peak and raise the error a per-buffer
    allocate-then-free episode would, whether the whole plan fits (the
    shortcut) or not (the walk through ``replay``)."""

    # Sizes up to 8 GiB: two buffers can overflow the 12 GiB card, so
    # episodes fit, hit pressure or hit OOM part-way through.
    @settings(max_examples=300)
    @given(sizes=st.lists(st.integers(-512, 8 * 2**30), max_size=6),
           baseline=st.integers(0, 4 * 2**30),
           reserved=st.one_of(st.just(0), st.integers(1, 12 * 2**30)))
    @example(sizes=[2**30, 1], baseline=2**20, reserved=0)
    @example(sizes=[8 * 2**30, 6 * 2**30], baseline=0, reserved=0)
    @example(sizes=[6 * 2**30, 3 * 2**30], baseline=0, reserved=4 * 2**30)
    def test_same_peak_in_use_and_error(self, sizes, baseline, reserved):
        plan = [(f"b{i}", size) for i, size in enumerate(sizes)]
        fast = DeviceAllocator(K40C, baseline=baseline)
        fast.set_pressure(lambda: reserved)
        try:
            peak = fast.replay_transient(plan, total(plan))
        except DeviceOOMError as err:
            error = err
        else:
            error = None
            assert peak == fast.peak
        want_peak, want_in_use, want_error = episode(
            plan, CAPACITY, baseline, reserved)
        assert fast.peak == want_peak
        assert fast.baseline == want_in_use
        assert error_fields(error) == error_fields(want_error)
