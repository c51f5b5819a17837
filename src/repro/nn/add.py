"""Elementwise addition of branches — the residual connection.

Like :class:`~repro.nn.concat.Concat`, this is a multi-input layer
routed by the :class:`~repro.nn.network.Graph` container; unlike
Concat, all inputs must share the full shape.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..errors import ShapeError
from .module import Layer


class Add(Layer):
    """Sum a list of same-shaped tensors (residual merge)."""

    layer_type = "Add"
    multi_input = True

    def output_shape(self, input_shapes: Sequence[Tuple[int, ...]]) -> Tuple[int, ...]:
        base = tuple(input_shapes[0])
        for s in input_shapes[1:]:
            if tuple(s) != base:
                raise ShapeError(
                    f"{self.name}: all inputs must share a shape; got "
                    f"{list(input_shapes)}"
                )
        return base
