"""Fully-connected (inner-product) layer."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ShapeError
from .module import Layer, Parameter, he_normal


class Linear(Layer):
    """Affine map ``y = x @ W.T + b`` on 2-D ``(batch, features)``
    inputs — the FC layers of Fig. 2's breakdown.

    ``rng`` seeds the He-scaled weight as in :class:`~repro.nn.Conv2d`:
    a seed or ``None`` defers the draw to the weight's first read, a
    ``Generator`` is drawn from here, in construction order.
    """

    layer_type = "FC"

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng=None, name: str = ""):
        super().__init__(name or "fc")
        if in_features <= 0 or out_features <= 0:
            raise ShapeError("features must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = he_normal(rng, (out_features, in_features),
                                in_features, f"{self.name}.weight")
        self.bias = Parameter(np.zeros(out_features),
                              name=f"{self.name}.bias") if bias else None

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 2 or input_shape[1] != self.in_features:
            raise ShapeError(
                f"{self.name}: expected (batch, {self.in_features}), got {input_shape}"
            )
        return (input_shape[0], self.out_features)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2:
            raise ShapeError(f"{self.name}: expected 2-D input, got ndim={x.ndim}")
        if x.shape[1] != self.in_features:
            raise ShapeError(
                f"{self.name}: expected {self.in_features} features, got {x.shape[1]}"
            )
        self._x = x
        y = x @ self.weight.value.T
        if self.bias is not None:
            y += self.bias.value
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        self.weight.grad += dy.T @ self._x
        if self.bias is not None:
            self.bias.grad += dy.sum(axis=0)
        return dy @ self.weight.value

    def parameters(self):
        return [self.weight] + ([self.bias] if self.bias is not None else [])
