"""The injector: seeded draws, observer wiring, counters."""

import math

import pytest

from repro.errors import MemoryPressureError, TransientKernelError
from repro.faults import (CacheCorruptionSpec, FaultInjector, FaultPlan,
                          MemoryPressureSpec, StragglerSpec,
                          TransientFaultSpec, TOP_RANKED)
from repro.gpusim.allocator import DeviceAllocator, replay
from repro.gpusim.device import K40C
from repro.gpusim.kernels import replay_cost_s
from repro.gpusim.timing import SimClock
from repro.serve.plan_cache import PlanCache


def transient_plan(rate=1.0, implementation="cuDNN", **kw):
    return FaultPlan(name="t", transients=(
        TransientFaultSpec(implementation=implementation, rate=rate, **kw),))


class TestCheckLaunch:
    def test_certain_fault_raises_with_replay_cost(self):
        inj = FaultInjector(transient_plan(rate=1.0))
        with pytest.raises(TransientKernelError) as exc:
            inj.check_launch(0.5, "cuDNN")
        assert exc.value.implementation == "cuDNN"
        assert exc.value.at_s == 0.5
        assert exc.value.retry_cost_s == pytest.approx(replay_cost_s(K40C))
        assert inj.faults_injected == 1

    def test_non_matching_implementation_never_draws(self):
        inj = FaultInjector(transient_plan(rate=1.0, implementation="fbfft"))
        state = inj._rng.bit_generator.state
        inj.check_launch(0.0, "cuDNN")
        assert inj._rng.bit_generator.state == state
        assert inj.faults_injected == 0

    def test_inactive_window_never_draws(self):
        inj = FaultInjector(transient_plan(rate=1.0, start_s=5.0, end_s=6.0))
        state = inj._rng.bit_generator.state
        inj.check_launch(0.0, "cuDNN")
        assert inj._rng.bit_generator.state == state

    def test_top_ranked_spares_fallback_dispatches(self):
        inj = FaultInjector(transient_plan(rate=1.0,
                                           implementation=TOP_RANKED))
        inj.check_launch(0.0, "cuDNN", rank=1)   # no fault, no draw
        with pytest.raises(TransientKernelError):
            inj.check_launch(0.0, "cuDNN", rank=0)

    def test_same_seed_same_fault_sequence(self):
        def sequence(seed):
            inj = FaultInjector(transient_plan(rate=0.5), seed=seed)
            out = []
            for i in range(50):
                try:
                    inj.check_launch(0.0, "cuDNN")
                    out.append(False)
                except TransientKernelError:
                    out.append(True)
            return out

        assert sequence(7) == sequence(7)
        assert sequence(7) != sequence(8)


class TestPressureAndStragglers:
    PLAN = FaultPlan(
        name="p",
        pressures=(MemoryPressureSpec(reserve_bytes=2**30,
                                      start_s=1.0, end_s=2.0),
                   MemoryPressureSpec(reserve_bytes=2**28,
                                      start_s=1.5, end_s=3.0)),
        stragglers=(StragglerSpec(slowdown=2.0, start_s=1.0, end_s=2.0),
                    StragglerSpec(slowdown=3.0, start_s=1.5, end_s=2.5)))

    def test_reserve_sums_active_windows(self):
        inj = FaultInjector(self.PLAN)
        assert inj.reserve_bytes(0.0) == 0
        assert inj.reserve_bytes(1.0) == 2**30
        assert inj.reserve_bytes(1.5) == 2**30 + 2**28
        assert inj.reserve_bytes(2.5) == 2**28
        assert not inj.pressure_active(5.0)

    def test_slowdown_compounds(self):
        inj = FaultInjector(self.PLAN)
        assert inj.slowdown(0.0) == 1.0
        assert inj.slowdown(1.2) == 2.0
        assert inj.slowdown(1.8) == 6.0
        assert inj.slowdown(2.2) == 3.0

    def test_installed_allocator_raises_pressure_error(self):
        inj = FaultInjector(self.PLAN)
        clock = SimClock()
        alloc = DeviceAllocator(K40C)
        inj.install(clock, allocator=alloc)
        # Fits, unless squeezed.
        plan = [("big", K40C.global_memory_bytes - 2**29)]
        total = replay(plan, 0, math.inf)
        alloc.replay_transient(plan, total)
        clock.advance_to(1.0)                    # inside the 1 GiB squeeze
        with pytest.raises(MemoryPressureError) as exc:
            alloc.replay_transient(plan, total)
        assert exc.value.reserved == 2**30


class TestCorruptions:
    def test_clock_observer_fires_events_in_order(self):
        plan = FaultPlan(name="c", corruptions=(
            CacheCorruptionSpec(at_s=2.0, entries=2),
            CacheCorruptionSpec(at_s=1.0, entries=1)))
        inj = FaultInjector(plan)
        clock = SimClock()
        cache = PlanCache(capacity=8)
        for i in range(4):
            cache.get_or_compute(("k", i), lambda: (i,))
        inj.install(clock, allocator=None, plan_cache=cache)
        clock.advance_to(0.5)
        assert inj.entries_corrupted == 0
        clock.advance_to(1.0)
        assert inj.entries_corrupted == 1
        clock.advance_to(10.0)                   # both fired, once each
        assert inj.entries_corrupted == 3
        clock.advance(1.0)
        assert inj.entries_corrupted == 3
        assert cache.stats()["corruptions"] == 3
        assert cache.stats()["entries"] == 1

    def test_noop_plan_installs_no_observers(self):
        inj = FaultInjector()
        clock = SimClock()
        alloc = DeviceAllocator(K40C)
        inj.install(clock, allocator=alloc, plan_cache=PlanCache(4))
        assert clock._observer is None
        assert alloc._pressure is None
