"""Implementation advisor.

The paper's stated goal is "to assist practitioners identifying the
implementations that best serve their CNN computation needs in
different scenarios".  :class:`Advisor` operationalises that: given a
convolution configuration and the practitioner's constraints (device
memory budget, need for arbitrary shapes), it ranks the seven
implementations by *measured* (simulated) runtime subject to the
constraints, and annotates the result with the paper's qualitative
guidance:

* fbfft for large kernels — "the fastest implementation to train a
  CNN model with large kernels";
* cuDNN for small kernels and for strides > 1;
* cuda-convnet2 "for cases when the memory is limited";
* cuDNN "if a good balance between memory, speed and flexibility is
  needed".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..config import ConvConfig
from ..frameworks.base import ConvImplementation, Strategy
from ..frameworks.registry import all_implementations
from ..gpusim.device import DeviceSpec, K40C
from ..obs.context import get_obs
from .evalcache import CacheArg, evaluate

#: The rationale's clause for a winning strategy, given only when an
#: FFT implementation was feasible (so the two strategies competed).
_STRATEGY_CLAUSES = {
    Strategy.FFT: "FFT-based convolution wins here (its cost barely "
                  "grows with kernel size)",
    Strategy.UNROLLING: "unrolling wins here (the FFT transforms and "
                        "padding cost more than they save)",
}


@dataclass(frozen=True)
class Candidate:
    """One implementation's evaluated fitness for a scenario."""

    implementation: str
    time_s: float
    peak_memory_bytes: int
    supported: bool
    fits_memory: bool

    @property
    def feasible(self) -> bool:
        return self.supported and self.fits_memory


@dataclass(frozen=True)
class RankedPlan:
    """The advisor's decision distilled to what a dispatcher needs.

    This is the cacheable unit: it carries no live objects, so it can
    be memoized per ``(shape, batch, device)`` by
    :class:`repro.serve.plan_cache.PlanCache` and replayed at dispatch
    time without re-ranking.
    """

    implementation: str
    time_s: float
    peak_memory_bytes: int

    def __post_init__(self) -> None:
        if self.time_s <= 0:
            raise ValueError(f"plan time must be positive, got {self.time_s}")


@dataclass(frozen=True)
class Recommendation:
    """Advisor output: ranked feasible candidates plus rationale."""

    config: ConvConfig
    candidates: List[Candidate]
    best: Optional[str]
    rationale: str

    def render(self) -> str:
        lines = [f"Scenario: {self.config}"]
        for c in self.candidates:
            status = "ok" if c.feasible else (
                "unsupported shape" if not c.supported else "exceeds memory budget")
            lines.append(
                f"  {c.implementation:15s} {c.time_s * 1000:9.2f} ms  "
                f"{c.peak_memory_bytes / 2**20:8.0f} MB  [{status}]"
            )
        lines.append(f"Recommendation: {self.best} — {self.rationale}")
        return "\n".join(lines)


class Advisor:
    """Ranks implementations for a scenario.

    Per-implementation evaluation routes through the shared analytic
    cache (:mod:`repro.core.evalcache`) — the advisor, the serving
    scheduler and the figure pipelines all draw on the same records,
    so a scenario the sweeps already visited ranks without re-running
    the model.  Pass ``cache=evalcache.DISABLED`` to force recompute,
    or a private :class:`~repro.core.evalcache.EvalCache` to isolate.
    """

    def __init__(self, device: DeviceSpec = K40C,
                 implementations: Optional[Sequence[ConvImplementation]] = None,
                 cache: CacheArg = None):
        self.device = device
        self.implementations = (list(implementations) if implementations
                                else all_implementations())
        self.cache = cache

    def evaluate(self, config: ConvConfig,
                 memory_budget: Optional[int] = None,
                 device: Optional[DeviceSpec] = None) -> List[Candidate]:
        """Evaluate every implementation on one configuration.

        ``device`` overrides the advisor's own device for this call —
        one advisor instance can serve a heterogeneous fleet, ranking
        each replica on its own hardware while sharing the evaluation
        cache across all of them.
        """
        target = device if device is not None else self.device
        budget = memory_budget if memory_budget is not None \
            else target.global_memory_bytes
        out: List[Candidate] = []
        with get_obs().tracer.span(
                "advisor.rank", cat="advisor", device=target.name,
                implementations=len(self.implementations)) as sp:
            for impl in self.implementations:
                record = evaluate(impl, config, target, cache=self.cache)
                if not record.supported:
                    out.append(Candidate(impl.paper_name, float("inf"), 0,
                                         supported=False, fits_memory=False))
                elif record.oom:
                    out.append(Candidate(impl.paper_name, float("inf"),
                                         record.oom_bytes,
                                         supported=True, fits_memory=False))
                else:
                    mem = record.peak_memory_bytes
                    out.append(Candidate(impl.paper_name, record.time_s, mem,
                                         supported=True,
                                         fits_memory=mem <= budget))
            # Feasible first, then by time.
            out.sort(key=lambda c: (not c.feasible, c.time_s))
            sp.annotate(feasible=sum(1 for c in out if c.feasible))
        return out

    def recommend(self, config: ConvConfig,
                  memory_budget: Optional[int] = None,
                  device: Optional[DeviceSpec] = None) -> Recommendation:
        """Pick the fastest feasible implementation and explain it in
        the paper's terms."""
        candidates = self.evaluate(config, memory_budget, device=device)
        feasible = [c for c in candidates if c.feasible]
        if not feasible:
            return Recommendation(config=config, candidates=candidates,
                                  best=None,
                                  rationale="no implementation satisfies the "
                                            "constraints")
        rationale = self._rationale(config, feasible, memory_budget)
        return Recommendation(config=config, candidates=candidates,
                              best=feasible[0].implementation,
                              rationale=rationale)

    def plan(self, config: ConvConfig,
             memory_budget: Optional[int] = None,
             device: Optional[DeviceSpec] = None) -> Optional[RankedPlan]:
        """Rank once and return the winner as a cacheable plan.

        Unlike :meth:`recommend`, the result is a plain value object
        (no candidate list, no prose rationale) suitable for per-shape
        memoization; ``None`` means no implementation is feasible.
        """
        ranked = self.plan_ranked(config, memory_budget, device=device)
        return ranked[0] if ranked else None

    def plan_ranked(self, config: ConvConfig,
                    memory_budget: Optional[int] = None,
                    device: Optional[DeviceSpec] = None
                    ) -> Tuple[RankedPlan, ...]:
        """Every feasible implementation as a cacheable plan, fastest
        first.

        The resilient dispatcher consumes the whole ordering: when the
        first choice faults past its retry budget (or its circuit
        breaker is open) it substitutes the next-ranked plan — the
        implementations are interchangeable wherever both are feasible,
        so substitution preserves correctness and only costs the
        runtime gap the ranking already quantifies.  Empty means no
        implementation is feasible.
        """
        candidates = self.evaluate(config, memory_budget, device=device)
        return tuple(RankedPlan(implementation=c.implementation,
                                time_s=c.time_s,
                                peak_memory_bytes=c.peak_memory_bytes)
                     for c in candidates if c.feasible)

    def _rationale(self, config: ConvConfig, feasible: List[Candidate],
                   memory_budget: Optional[int]) -> str:
        """Explain the pick (``feasible[0]``): the strategy clause comes
        from the winner's strategy, not from a kernel-size threshold."""
        strategy = {impl.paper_name: impl.strategy
                    for impl in self.implementations}
        best = feasible[0]
        parts = []
        if config.stride > 1:
            parts.append("stride > 1 rules out the FFT implementations")
        winner = strategy[best.implementation]
        if winner in _STRATEGY_CLAUSES and any(
                strategy[c.implementation] is Strategy.FFT for c in feasible):
            parts.append(_STRATEGY_CLAUSES[winner])
        if memory_budget is not None and memory_budget < 4 * 2**30:
            parts.append("a tight memory budget favours direct convolution "
                         "(no workspace)")
        parts.append(f"fastest feasible at {best.time_s * 1000:.2f} ms "
                     f"and {best.peak_memory_bytes / 2**20:.0f} MB")
        return "; ".join(parts)
