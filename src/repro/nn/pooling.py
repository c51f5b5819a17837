"""Pooling layers.

Max and average pooling with Caffe-style ceil-mode geometry (the
models the paper profiles are Caffe-era definitions).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..errors import ShapeError
from ..tensor.shapes import pool_output_size
from .module import Layer


class _Pool2d(Layer):
    layer_type = "Pooling"

    def __init__(self, window: int, stride: Optional[int] = None,
                 padding: int = 0, ceil_mode: bool = True, name: str = ""):
        super().__init__(name)
        if window <= 0:
            raise ShapeError(f"window must be positive, got {window}")
        self.window = window
        self.stride = stride if stride is not None else window
        if self.stride <= 0:
            raise ShapeError(f"stride must be positive, got {self.stride}")
        if padding < 0:
            raise ShapeError(f"padding must be non-negative, got {padding}")
        if padding >= window:
            raise ShapeError("padding must be smaller than the window")
        self.padding = padding
        self.ceil_mode = ceil_mode

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        b, c, h, w = input_shape
        oh = pool_output_size(h, self.window, self.stride, self.padding,
                              self.ceil_mode)
        ow = pool_output_size(w, self.window, self.stride, self.padding,
                              self.ceil_mode)
        return (b, c, oh, ow)


class MaxPool2d(_Pool2d):
    """Max pooling."""


class AvgPool2d(_Pool2d):
    """Average pooling."""
