"""Inverted dropout."""

from __future__ import annotations

from typing import Tuple

from ..errors import ShapeError
from .module import Layer


class Dropout(Layer):
    """Inverted dropout with drop probability ``p``: activations are
    scaled by ``1/(1-p)`` at train time so evaluation is a
    pass-through."""

    layer_type = "Dropout"

    def __init__(self, p: float = 0.5, name: str = ""):
        super().__init__(name or "dropout")
        if not (0.0 <= p < 1.0):
            raise ShapeError(f"drop probability must be in [0,1), got {p}")
        self.p = p

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(input_shape)
