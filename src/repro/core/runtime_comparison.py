"""Head-to-head runtime comparison (paper Fig. 3, section IV-B).

Runs the seven implementations over the five one-parameter sweeps
around the base 5-tuple ``(64, 128, 64, 11, 1)`` and records the
training-iteration runtime of a single convolutional layer
("the total runtime we test here does not include the time of network
initialization and data preparation" — accordingly only GPU kernel
time plus exposed transfer time is charged).

Unsupported configurations record ``None`` — these are the paper's
shape limitations (cuda-convnet2 off its multiples grid, FFT
implementations at stride > 1).

Every point goes through :func:`repro.core.evalcache.evaluate`, so
points revisited by another sweep, by the memory and metric pipelines
or by a previous run against the same on-disk store cost a lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..config import SWEEPS, ConvConfig, sweep_configs
from ..frameworks.base import ConvImplementation
from ..frameworks.registry import all_implementations
from ..gpusim.device import DeviceSpec, K40C
from . import evalcache
from .evalcache import CacheArg
from .report import series


@dataclass
class SweepResult:
    """All implementations over one parameter sweep."""

    sweep: str
    xs: List[int]
    configs: List[ConvConfig]
    #: implementation name -> per-config times (None where unsupported).
    times: Dict[str, List[Optional[float]]]

    def fastest_at(self, index: int) -> str:
        """Name of the fastest implementation at one sweep point."""
        best_name, best_t = None, None
        for name, col in self.times.items():
            t = col[index]
            if t is not None and (best_t is None or t < best_t):
                best_name, best_t = name, t
        if best_name is None:
            raise ValueError(f"no implementation supports point {index}")
        return best_name

    def speedup(self, fast: str, slow: str, index: int) -> Optional[float]:
        """slow/fast runtime ratio at one point (None if either is
        unsupported)."""
        a, b = self.times[fast][index], self.times[slow][index]
        if a is None or b is None:
            return None
        return b / a

    def render(self, unit_ms: bool = True) -> str:
        scale = 1000.0 if unit_ms else 1.0
        columns = {
            name: [None if t is None else t * scale for t in col]
            for name, col in self.times.items()
        }
        return series(self.sweep, self.xs, columns,
                      title=f"Fig. 3 ({self.sweep} sweep) — runtime "
                            f"[{'ms' if unit_ms else 's'}] per training iteration")

    def render_plot(self, width: int = 64, height: int = 16) -> str:
        """The same series as an ASCII chart (the figure, not the
        table)."""
        from .report import ascii_plot

        columns = {
            name: [None if t is None else t * 1000.0 for t in col]
            for name, col in self.times.items()
        }
        return ascii_plot(self.xs, columns, width=width, height=height,
                          title=f"Fig. 3 ({self.sweep} sweep) — runtime "
                                f"[ms] per training iteration")


_X_OF = {
    "batch": lambda c: c.batch,
    "input": lambda c: c.input_size,
    "filters": lambda c: c.filters,
    "kernel": lambda c: c.kernel_size,
    "stride": lambda c: c.stride,
}


def runtime_sweep(sweep: str,
                  implementations: Optional[Sequence[ConvImplementation]] = None,
                  device: DeviceSpec = K40C,
                  cache: CacheArg = None) -> SweepResult:
    """Run one of the five Fig. 3 sweeps over all implementations.

    ``cache`` selects the evaluation cache (None = the shared
    process-wide store, ``evalcache.DISABLED`` = always recompute).
    """
    if sweep not in SWEEPS:
        raise KeyError(f"unknown sweep {sweep!r}; options: {sorted(SWEEPS)}")
    impls = list(implementations) if implementations else all_implementations()
    configs = sweep_configs(sweep)
    xs = [_X_OF[sweep](c) for c in configs]
    times = {impl.paper_name: [evalcache.evaluate(impl, cfg, device,
                                                  cache=cache).time_s
                               for cfg in configs]
             for impl in impls}
    return SweepResult(sweep=sweep, xs=xs, configs=configs, times=times)


def all_runtime_sweeps(device: DeviceSpec = K40C,
                       cache: CacheArg = None) -> Dict[str, SweepResult]:
    """All five sweeps of Fig. 3."""
    return {name: runtime_sweep(name, device=device, cache=cache)
            for name in SWEEPS}
