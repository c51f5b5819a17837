"""Hotspot-layer analysis (paper Fig. 2, section IV-A).

Breaks the four real-life CNN models down by layer type over one
training iteration (forward + backward), averaged over ``iterations``
simulated runs, "to investigate where hotspot layers are".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..gpusim.device import DeviceSpec, K40C
from ..nn.models import FIG2_MODELS
from ..nn.simulate import breakdown_by_type, model_breakdown
from .report import bar_breakdown


@dataclass(frozen=True)
class ModelBreakdown:
    """Layer-type runtime shares of one model's training iteration."""

    model: str
    batch: int
    iteration_time_s: float
    shares: Dict[str, float]  # layer type -> fraction of runtime

    @property
    def conv_share(self) -> float:
        return self.shares.get("Conv", 0.0)

    def render(self) -> str:
        return bar_breakdown(
            self.shares,
            title=f"{self.model} (batch {self.batch}, "
                  f"{self.iteration_time_s * 1000:.1f} ms/iteration)")


#: Per-model batch sizes used for the breakdown (the paper does not
#: state them; these fit comfortably in the K40c's 12 GB).
DEFAULT_BATCHES = {"GoogLeNet": 128, "VGG": 64, "OverFeat": 128, "AlexNet": 128}


def hotspot_layer_analysis(implementation: str = "cudnn",
                           batches: Optional[Dict[str, int]] = None,
                           device: DeviceSpec = K40C,
                           models: Optional[List[str]] = None
                           ) -> List[ModelBreakdown]:
    """Reproduce Fig. 2: runtime breakdown of the four CNN models.

    Parameters
    ----------
    implementation:
        Which framework carries the convolutional layers.
    batches:
        Per-model batch sizes (defaults above).
    models:
        Restrict to a subset of the four model names.
    """
    batches = {**DEFAULT_BATCHES, **(batches or {})}
    selected = models or list(FIG2_MODELS)
    results = []
    for name in selected:
        try:
            ctor, shape = FIG2_MODELS[name]
        except KeyError:
            raise KeyError(
                f"unknown model {name!r}; options: {sorted(FIG2_MODELS)}"
            ) from None
        model = ctor()
        batch = batches[name]
        costs = model_breakdown(model, (batch,) + shape,
                                implementation=implementation, device=device)
        total = sum(c.time_s for c in costs)
        results.append(ModelBreakdown(
            model=name,
            batch=batch,
            iteration_time_s=total,
            shares=breakdown_by_type(costs),
        ))
    return results
