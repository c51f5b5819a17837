"""Whole-training-run cost estimation.

The paper's introduction motivates the entire study with training
cost: "training on those large-scale datasets requires significant
runtime, and several weeks or months is not uncommon."  This module
closes that loop: it combines the per-iteration model simulation
(Fig. 2 machinery) with the dataset descriptors to estimate what a
full training run of each reference model costs on the simulated
K40c — and how the choice of convolution implementation moves it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import ShapeError
from ..gpusim.device import DeviceSpec, K40C
from ..gpusim.multigpu import strong_scaling
from ..nn.models import model_registry
from ..nn.simulate import model_breakdown
from ..workloads.datasets import DatasetSpec


@dataclass(frozen=True)
class TrainingEstimate:
    """Projected cost of one full training run."""

    model: str
    dataset: str
    implementation: str
    batch: int
    epochs: int
    iteration_time_s: float
    iterations_per_epoch: int
    epoch_time_s: float
    total_time_s: float
    parameter_bytes: int

    @property
    def total_days(self) -> float:
        return self.total_time_s / 86_400.0

    def render(self) -> str:
        return (
            f"{self.model} on {self.dataset} ({self.epochs} epochs, "
            f"batch {self.batch}, conv via {self.implementation}):\n"
            f"  {self.iteration_time_s * 1000:8.1f} ms / iteration x "
            f"{self.iterations_per_epoch} iterations / epoch\n"
            f"  = {self.epoch_time_s / 3600:6.2f} h / epoch, "
            f"{self.total_days:6.2f} days total"
        )


def estimate_training(model_name: str, dataset: DatasetSpec,
                      implementation: str = "cudnn", batch: int = 128,
                      epochs: int = 90,
                      device: DeviceSpec = K40C) -> TrainingEstimate:
    """Estimate a full training run of a reference model.

    Uses the layer-by-layer simulated iteration time (section IV-A
    machinery) and the dataset's published size.
    """
    if batch <= 0:
        raise ShapeError(f"batch must be positive, got {batch}")
    if epochs <= 0:
        raise ShapeError(f"epochs must be positive, got {epochs}")
    registry = model_registry()
    try:
        ctor, shape = registry[model_name]
    except KeyError:
        raise KeyError(
            f"unknown model {model_name!r}; options: {sorted(registry)}"
        ) from None

    model = ctor()
    costs = model_breakdown(model, (batch,) + shape,
                            implementation=implementation, device=device)
    iteration = sum(c.time_s for c in costs)
    iters_per_epoch = dataset.epoch_iterations(batch)
    epoch = iteration * iters_per_epoch
    return TrainingEstimate(
        model=model_name,
        dataset=dataset.name,
        implementation=implementation,
        batch=batch,
        epochs=epochs,
        iteration_time_s=iteration,
        iterations_per_epoch=iters_per_epoch,
        epoch_time_s=epoch,
        total_time_s=epoch * epochs,
        parameter_bytes=model.parameter_count() * 4,
    )


def multi_gpu_projection(estimate: TrainingEstimate, gpus: int,
                         device: DeviceSpec = K40C) -> Tuple[float, float]:
    """(total_days, efficiency) of the same run on ``gpus`` K40c cards
    under synchronous data parallelism."""
    point = strong_scaling(estimate.iteration_time_s,
                           estimate.parameter_bytes, gpus, device)
    total = (point.iteration_time_s * estimate.iterations_per_epoch
             * estimate.epochs)
    return total / 86_400.0, point.efficiency
