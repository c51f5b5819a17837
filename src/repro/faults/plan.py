"""Declarative, deterministic fault plans.

A :class:`FaultPlan` is the *schedule* half of the fault-injection
plane: a frozen value object naming which failure modes strike, whom
they strike and when (in simulated seconds).  The paper itself
documents the failure modes modelled here — section V-B observes that
"abnormal memory usage can lead to program crush" (fbfft exceeding the
K40c's 12 GB) and section IV-B catalogs per-implementation shape
limitations — and related work motivates recovery by substitution:
the seven implementations are interchangeable on most of the
``(b, i, f, k, s)`` space, so a faulted dispatch can fall back to the
advisor's next-ranked plan.

Four event families:

* :class:`TransientFaultSpec` — probabilistic per-launch kernel faults
  (the ECC scrub-and-replay class) inside a time window, targeting one
  implementation, every implementation (``ANY``) or whichever
  implementation is the advisor's current first choice
  (``TOP_RANKED``);
* :class:`MemoryPressureSpec` — windows during which part of global
  memory is reserved away from the workload (a simulated co-tenant /
  fragmentation), shrinking what the allocator may hand out;
* :class:`StragglerSpec` — windows during which service times are
  multiplied (thermal throttling, a contending context);
* :class:`CacheCorruptionSpec` — point events that invalidate entries
  of the serving plan cache (the "poisoned cache" scenario).

Plans carry **no live state**: the runtime half is
:class:`~repro.faults.injector.FaultInjector`, which owns the seeded
RNG, so a serving run stays a pure function of
``(trace, seed, fault_plan)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

#: Wildcard target: the fault may strike any implementation.
ANY = "*"

#: Dynamic target: the fault strikes only the implementation currently
#: dispatched as the advisor's first choice (fallbacks are spared, so
#: recovery by substitution is observable).
TOP_RANKED = "@top"


def _check_window(start_s: float, end_s: float) -> None:
    if start_s < 0:
        raise ValueError(f"start_s must be non-negative, got {start_s}")
    if end_s <= start_s:
        raise ValueError(f"window must be non-empty, got [{start_s}, {end_s})")


@dataclass(frozen=True)
class TransientFaultSpec:
    """Probabilistic transient kernel faults inside one time window."""

    implementation: str = ANY   # paper name, registry name, ANY or TOP_RANKED
    rate: float = 0.1           # per-launch fault probability while active
    start_s: float = 0.0
    end_s: float = math.inf

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {self.rate}")

    def active(self, now_s: float) -> bool:
        return self.start_s <= now_s < self.end_s

    def matches(self, implementation: str, rank: int) -> bool:
        """Whether a dispatch of ``implementation`` at fallback depth
        ``rank`` (0 = the advisor's first choice) is in scope."""
        if self.implementation == ANY:
            return True
        if self.implementation == TOP_RANKED:
            return rank == 0
        return self.implementation == implementation


@dataclass(frozen=True)
class MemoryPressureSpec:
    """One window during which ``reserve_bytes`` of global memory are
    withheld from the workload."""

    reserve_bytes: int
    start_s: float = 0.0
    end_s: float = math.inf

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        if self.reserve_bytes <= 0:
            raise ValueError(
                f"reserve_bytes must be positive, got {self.reserve_bytes}")

    def active(self, now_s: float) -> bool:
        return self.start_s <= now_s < self.end_s


@dataclass(frozen=True)
class StragglerSpec:
    """One window during which simulated service times are multiplied
    by ``slowdown``."""

    slowdown: float
    start_s: float = 0.0
    end_s: float = math.inf

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        if self.slowdown < 1.0:
            raise ValueError(f"slowdown must be >= 1, got {self.slowdown}")

    def active(self, now_s: float) -> bool:
        return self.start_s <= now_s < self.end_s


@dataclass(frozen=True)
class CacheCorruptionSpec:
    """A point event invalidating ``entries`` plan-cache entries at
    simulated time ``at_s`` (oldest entries first, deterministically)."""

    at_s: float
    entries: int = 1

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError(f"at_s must be non-negative, got {self.at_s}")
        if self.entries < 1:
            raise ValueError(f"entries must be >= 1, got {self.entries}")


@dataclass(frozen=True)
class FaultPlan:
    """A named, immutable schedule of fault events."""

    name: str
    transients: Tuple[TransientFaultSpec, ...] = ()
    pressures: Tuple[MemoryPressureSpec, ...] = ()
    stragglers: Tuple[StragglerSpec, ...] = ()
    corruptions: Tuple[CacheCorruptionSpec, ...] = ()

    @property
    def is_noop(self) -> bool:
        """True when the plan schedules nothing (behaviour must be
        byte-identical to running with no plan at all)."""
        return not (self.transients or self.pressures
                    or self.stragglers or self.corruptions)

    def describe(self) -> str:
        if self.is_noop:
            return f"{self.name}: no faults"
        parts = []
        if self.transients:
            parts.append(f"{len(self.transients)} transient window(s)")
        if self.pressures:
            parts.append(f"{len(self.pressures)} memory-pressure window(s)")
        if self.stragglers:
            parts.append(f"{len(self.stragglers)} straggler window(s)")
        if self.corruptions:
            parts.append(f"{len(self.corruptions)} cache-corruption event(s)")
        return f"{self.name}: " + ", ".join(parts)


#: The empty plan: running with it is bit-identical to no plan.
NONE = FaultPlan(name="none")

#: Names accepted by :func:`named_plan` (and the ``repro chaos`` CLI).
PLAN_NAMES = ("none", "transient-top", "memory-pressure", "straggler",
              "cache-chaos", "chaos")


def named_plan(name: str, duration_s: float = 10.0) -> FaultPlan:
    """Build one of the catalogue plans, scaled to a run length.

    Windows are placed at fixed *fractions* of ``duration_s`` so the
    same plan name exercises the same phases of a 1-second smoke run
    and a 60-second soak.  Every build is deterministic: plans contain
    schedules only; randomness lives in the injector's seeded RNG.
    """
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive, got {duration_s}")
    d = float(duration_s)
    if name == "none":
        return NONE
    if name == "transient-top":
        # The advisor's first choice faults one launch in four for the
        # whole run: retries absorb isolated faults, streaks exhaust
        # the retry budget and force fallback, and long streaks trip
        # the breaker.
        return FaultPlan(
            name=name,
            transients=(TransientFaultSpec(implementation=TOP_RANKED,
                                           rate=0.25),))
    if name == "memory-pressure":
        # Two squeezes leaving only 96 MiB of the K40c's 12 GiB — a
        # few tens of MB of working room above the ~60 MB context
        # baseline: larger batches fault with MemoryPressureError,
        # degrade to smaller caps, recover between windows.
        reserve = 12 * 2**30 - 96 * 2**20
        return FaultPlan(
            name=name,
            pressures=(
                MemoryPressureSpec(reserve_bytes=reserve,
                                   start_s=0.20 * d, end_s=0.40 * d),
                MemoryPressureSpec(reserve_bytes=reserve,
                                   start_s=0.60 * d, end_s=0.80 * d),
            ))
    if name == "straggler":
        return FaultPlan(
            name=name,
            stragglers=(StragglerSpec(slowdown=4.0,
                                      start_s=0.30 * d, end_s=0.60 * d),))
    if name == "cache-chaos":
        return FaultPlan(
            name=name,
            corruptions=tuple(
                CacheCorruptionSpec(at_s=frac * d, entries=8)
                for frac in (0.25, 0.50, 0.75)))
    if name == "chaos":
        # Everything at once — the full drill.
        return FaultPlan(
            name=name,
            transients=(TransientFaultSpec(implementation=TOP_RANKED,
                                           rate=0.25),),
            pressures=(MemoryPressureSpec(reserve_bytes=12 * 2**30 - 112 * 2**20,
                                          start_s=0.40 * d, end_s=0.60 * d),),
            stragglers=(StragglerSpec(slowdown=2.0,
                                      start_s=0.70 * d, end_s=0.85 * d),),
            corruptions=(CacheCorruptionSpec(at_s=0.50 * d, entries=8),),
        )
    raise KeyError(f"unknown fault plan {name!r}; options: {PLAN_NAMES}")
