"""Channel concatenation — GoogLeNet's Concat layer (Fig. 2)."""

from __future__ import annotations

from typing import Sequence, Tuple

from ..errors import ShapeError
from .module import Layer


class Concat(Layer):
    """Concatenate a list of NCHW tensors along the channel axis.

    Unlike the other layers, ``output_shape`` takes a *list* of input
    shapes — the :class:`~repro.nn.network.Graph` container routes
    them.
    """

    layer_type = "Concat"
    multi_input = True

    def output_shape(self, input_shapes: Sequence[Tuple[int, ...]]) -> Tuple[int, ...]:
        if not input_shapes:
            raise ShapeError(f"{self.name}: needs at least one input")
        b, _, h, w = input_shapes[0]
        for s in input_shapes[1:]:
            if len(s) != 4 or (s[0], s[2], s[3]) != (b, h, w):
                raise ShapeError(
                    f"{self.name}: inputs must share batch and spatial dims; "
                    f"got {list(input_shapes)}"
                )
        channels = sum(s[1] for s in input_shapes)
        return (b, channels, h, w)
