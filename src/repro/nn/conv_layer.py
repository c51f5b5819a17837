"""Convolutional layer — "the central part in CNNs" (section II-A).

The layer describes geometry only; the arithmetic of a convolution
lives in the seven :mod:`repro.frameworks` implementations, which the
runtime simulator times through :meth:`Conv2d.conv_config`.
"""

from __future__ import annotations

from typing import Tuple

from ..config import ConvConfig
from ..errors import ShapeError
from ..tensor.shapes import conv_output_size
from .module import Layer, Parameter


class Conv2d(Layer):
    """2-D convolution with square kernels.

    Parameters
    ----------
    in_channels, out_channels, kernel_size, stride, padding:
        Usual convolution geometry.
    bias:
        Whether the layer has a per-filter bias.
    groups:
        Channel groups (AlexNet's two-tower split); each filter sees
        ``in_channels // groups`` input channels.
    """

    layer_type = "Conv"

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 groups: int = 1, name: str = ""):
        super().__init__(name or f"conv{kernel_size}x{kernel_size}")
        if in_channels <= 0 or out_channels <= 0 or kernel_size <= 0:
            raise ShapeError("channels and kernel_size must be positive")
        if stride <= 0:
            raise ShapeError(f"stride must be positive, got {stride}")
        if padding < 0:
            raise ShapeError(f"padding must be non-negative, got {padding}")
        if groups <= 0:
            raise ShapeError(f"groups must be positive, got {groups}")
        if in_channels % groups or out_channels % groups:
            raise ShapeError(
                f"channels ({in_channels} -> {out_channels}) must divide "
                f"into {groups} groups")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        self.weight = Parameter(
            f"{self.name}.weight",
            (out_channels, in_channels // groups, kernel_size, kernel_size))
        self.bias = (Parameter(f"{self.name}.bias", (out_channels,))
                     if bias else None)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        b, c, h, w = input_shape
        if c != self.in_channels:
            raise ShapeError(
                f"{self.name}: expected {self.in_channels} channels, got {c}"
            )
        oh = conv_output_size(h, self.kernel_size, self.stride, self.padding)
        ow = conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (b, self.out_channels, oh, ow)

    def conv_config(self, input_shape: Tuple[int, ...]) -> ConvConfig:
        """The benchmark 5-tuple view of this layer on a given input
        (requires square spatial dims).

        Grouping is not part of the paper's 5-tuple space; grouped
        layers report the full-channel configuration, so simulated
        times for them are conservative (up to ``groups`` x high).
        """
        b, c, h, w = input_shape
        if h != w:
            raise ShapeError(f"{self.name}: ConvConfig requires square input, got {(h, w)}")
        return ConvConfig(batch=b, input_size=h, filters=self.out_channels,
                          kernel_size=self.kernel_size, stride=self.stride,
                          channels=c, padding=self.padding)

    def parameters(self):
        return [self.weight] + ([self.bias] if self.bias is not None else [])
