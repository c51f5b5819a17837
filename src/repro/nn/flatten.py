"""Flatten NCHW activations into (batch, features) for FC layers."""

from __future__ import annotations

from typing import Tuple

from .module import Layer


class Flatten(Layer):
    """Reshape ``(b, ...)`` activations to ``(b, features)``."""

    layer_type = "Flatten"

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        n = 1
        for d in input_shape[1:]:
            n *= d
        return (input_shape[0], n)
