"""Rectified linear unit."""

from __future__ import annotations

from typing import Tuple

from .module import Layer


class ReLU(Layer):
    """Elementwise ``max(x, 0)``."""

    layer_type = "ReLU"

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(input_shape)
