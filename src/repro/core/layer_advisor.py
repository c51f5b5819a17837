"""Per-layer implementation selection over whole models.

The paper's bottom line — "no single implementation ... performs well
in all scenarios" — implies a follow-up question it never answers:
*how much is lost by committing one framework to a whole network?*
This module walks a real model, runs every implementation on every
convolutional layer, reports the per-layer winner, and quantifies the
gap between the best single implementation and a per-layer "oracle"
mix (what a dispatching library like later cuDNN versions effectively
implements).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import ConvConfig
from ..frameworks.base import ConvImplementation
from ..frameworks.registry import all_implementations
from ..gpusim.device import DeviceSpec, K40C
from ..nn.conv_layer import Conv2d
from .evalcache import evaluate
from .report import table


@dataclass(frozen=True)
class LayerChoice:
    """One conv layer's per-implementation times and winner."""

    layer_name: str
    config: ConvConfig
    times: Dict[str, float]      # implementation -> seconds
    winner: str

    @property
    def winner_time(self) -> float:
        return self.times[self.winner]


@dataclass(frozen=True)
class MixReport:
    """Whole-model single-implementation vs per-layer-oracle totals."""

    model: str
    choices: List[LayerChoice]
    single_totals: Dict[str, float]   # implementation -> total conv time
    best_single: str
    oracle_total: float

    @property
    def best_single_total(self) -> float:
        return self.single_totals[self.best_single]

    @property
    def oracle_speedup(self) -> float:
        """How much the per-layer mix saves over the best single
        implementation (>= 1)."""
        return self.best_single_total / self.oracle_total

    def render(self) -> str:
        impls = sorted(self.single_totals)
        body = []
        for c in self.choices:
            row = [c.layer_name, str(c.config.tuple5)]
            for name in impls:
                t = c.times.get(name)
                row.append("-" if t is None else f"{t * 1000:.2f}")
            row.append(c.winner)
            body.append(row)
        out = table(["layer", "(b,i,f,k,s)"] + impls + ["winner"], body,
                    title=f"per-layer implementation choice — {self.model}")
        lines = [out, ""]
        for name in impls:
            mark = " <- best single" if name == self.best_single else ""
            lines.append(f"  {name:15s} {self.single_totals[name] * 1000:9.2f} ms{mark}")
        lines.append(f"  {'oracle mix':15s} {self.oracle_total * 1000:9.2f} ms "
                     f"(x{self.oracle_speedup:.2f} over best single)")
        return "\n".join(lines)


def conv_configs_of(model, input_shape: Tuple[int, ...]) -> List[Tuple[str, ConvConfig]]:
    """(layer name, ConvConfig) for every conv layer of a model."""
    out = []
    for layer, in_shape, _ in model.shape_walk(input_shape):
        if isinstance(layer, Conv2d):
            shape = in_shape[0] if isinstance(in_shape, list) else in_shape
            out.append((layer.name, layer.conv_config(shape)))
    return out


def per_layer_choices(model, input_shape: Tuple[int, ...],
                      implementations: Optional[Sequence[ConvImplementation]] = None,
                      device: DeviceSpec = K40C) -> List[LayerChoice]:
    """Best implementation per conv layer."""
    impls = list(implementations) if implementations else all_implementations()
    choices = []
    for name, config in conv_configs_of(model, input_shape):
        times: Dict[str, float] = {}
        for impl in impls:
            if impl.supports(config):
                times[impl.paper_name] = evaluate(impl, config, device).time_s
        if not times:
            continue
        choices.append(LayerChoice(
            layer_name=name, config=config, times=times,
            winner=min(times, key=times.get)))
    return choices


def oracle_mix(model_name: str, model, input_shape: Tuple[int, ...],
               implementations: Optional[Sequence[ConvImplementation]] = None,
               device: DeviceSpec = K40C) -> MixReport:
    """Compare committing to one implementation vs the per-layer mix.

    Only implementations that support *every* conv layer of the model
    enter the single-implementation totals (you cannot train half a
    network on fbfft if one layer is strided); all of them contribute
    to the oracle.
    """
    choices = per_layer_choices(model, input_shape, implementations, device)
    if not choices:
        raise ValueError(f"{model_name} has no convolutional layers")
    universal = set.intersection(*(set(c.times) for c in choices))
    if not universal:
        raise ValueError("no implementation supports every conv layer")
    single_totals = {
        name: sum(c.times[name] for c in choices) for name in universal
    }
    best_single = min(single_totals, key=single_totals.get)
    oracle_total = sum(c.winner_time for c in choices)
    return MixReport(model=model_name, choices=choices,
                     single_totals=single_totals, best_single=best_single,
                     oracle_total=oracle_total)
