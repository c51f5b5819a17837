"""Fully-connected (inner-product) layer."""

from __future__ import annotations

from typing import Tuple

from ..errors import ShapeError
from .module import Layer, Parameter


class Linear(Layer):
    """Affine map ``y = x @ W.T + b`` on 2-D ``(batch, features)``
    inputs — the FC layers of Fig. 2's breakdown."""

    layer_type = "FC"

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 name: str = ""):
        super().__init__(name or "fc")
        if in_features <= 0 or out_features <= 0:
            raise ShapeError("features must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(f"{self.name}.weight",
                                (out_features, in_features))
        self.bias = (Parameter(f"{self.name}.bias", (out_features,))
                     if bias else None)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 2 or input_shape[1] != self.in_features:
            raise ShapeError(
                f"{self.name}: expected (batch, {self.in_features}), got {input_shape}"
            )
        return (input_shape[0], self.out_features)

    def parameters(self):
        return [self.weight] + ([self.bias] if self.bias is not None else [])
