"""Batch normalisation (Ioffe & Szegedy 2015).

Contemporaneous with the paper's study window (GoogLeNet v2 trained
with it), and the layer that reshaped conv-layer benchmarking soon
after — included so the model descriptions can express post-2015
models.
"""

from __future__ import annotations

from typing import Tuple

from ..errors import ShapeError
from .module import Layer, Parameter


class BatchNorm2d(Layer):
    """Per-channel batch normalisation over (N, H, W), with a learnt
    per-channel scale (``gamma``) and shift (``beta``)."""

    layer_type = "BatchNorm"

    def __init__(self, channels: int, eps: float = 1e-5,
                 momentum: float = 0.1, name: str = ""):
        super().__init__(name or "batchnorm")
        if channels <= 0:
            raise ShapeError(f"channels must be positive, got {channels}")
        if eps <= 0:
            raise ShapeError(f"eps must be positive, got {eps}")
        if not (0.0 < momentum <= 1.0):
            raise ShapeError(f"momentum must be in (0,1], got {momentum}")
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(f"{self.name}.gamma", (channels,))
        self.beta = Parameter(f"{self.name}.beta", (channels,))

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 4 or input_shape[1] != self.channels:
            raise ShapeError(
                f"{self.name}: expected (b, {self.channels}, h, w), "
                f"got {input_shape}")
        return tuple(input_shape)

    def parameters(self):
        return [self.gamma, self.beta]
