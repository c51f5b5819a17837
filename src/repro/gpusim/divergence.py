"""Warp-divergence model → warp execution efficiency (WEE).

nvprof defines WEE as the ratio of the average number of active
threads per warp to the warp size.  Two effects reduce it:

* **branch divergence** — lanes of one warp take different control
  paths and execute serially with the others masked off (the cause of
  Theano-fft's 66–81 % WEE in Fig. 6);
* **ragged tails** — the problem size is not a multiple of the warp
  size, so boundary warps run partially full.

Both are modelled analytically from a kernel's divergence description.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DivergenceProfile:
    """Control-flow character of a kernel.

    Attributes
    ----------
    divergent_fraction:
        Fraction of dynamic instructions that sit inside data-dependent
        divergent branches.
    branch_paths:
        Average number of distinct paths lanes of a warp take inside
        those regions (2 for a plain if/else).
    tail_fraction:
        Fraction of warps that are ragged boundary warps.
    tail_active_lanes:
        Average number of active lanes in a ragged warp.
    """

    divergent_fraction: float = 0.0
    branch_paths: float = 2.0
    tail_fraction: float = 0.0
    tail_active_lanes: float = 16.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.divergent_fraction <= 1.0):
            raise ValueError("divergent_fraction must be in [0,1]")
        if self.branch_paths < 1.0:
            raise ValueError("branch_paths must be >= 1")
        if not (0.0 <= self.tail_fraction <= 1.0):
            raise ValueError("tail_fraction must be in [0,1]")
        if not (0.0 < self.tail_active_lanes <= 32.0):
            raise ValueError("tail_active_lanes must be in (0,32]")


#: A kernel with no divergence at all.
UNIFORM = DivergenceProfile()


def warp_execution_efficiency(profile: DivergenceProfile, warp_size: int = 32) -> float:
    """Average active lanes per executed warp-instruction / warp size.

    In a divergent region with *p* serialised paths the hardware
    executes *p* warp-instructions whose active-lane counts sum to at
    most the warp size, so the average active count in that region is
    ``warp_size / p``.
    """
    diverged = profile.divergent_fraction
    uniform = 1.0 - diverged
    # Active lanes per issued warp instruction, averaged over regions.
    active = uniform * warp_size + diverged * (warp_size / profile.branch_paths)
    wee = active / warp_size
    # Ragged boundary warps scale the whole kernel's average.
    tail = profile.tail_fraction
    lane_fill = (1.0 - tail) + tail * (profile.tail_active_lanes / warp_size)
    return max(min(wee * lane_fill, 1.0), 1.0 / warp_size)


def divergence_slowdown(profile: DivergenceProfile) -> float:
    """Execution-time multiplier caused by serialising divergent paths:
    the divergent fraction of instructions issues ``branch_paths``
    times."""
    return 1.0 + profile.divergent_fraction * (profile.branch_paths - 1.0)
