"""Local response normalisation (across channels).

AlexNet/GoogLeNet-era layer:

    y_i = x_i / (k + alpha/n * sum_{j in window(i)} x_j^2)^beta
"""

from __future__ import annotations

from typing import Tuple

from ..errors import ShapeError
from .module import Layer


class LocalResponseNorm(Layer):
    """Cross-channel LRN with AlexNet's default hyper-parameters."""

    layer_type = "LRN"

    def __init__(self, size: int = 5, alpha: float = 1e-4, beta: float = 0.75,
                 k: float = 1.0, name: str = ""):
        super().__init__(name or "lrn")
        if size <= 0 or size % 2 == 0:
            raise ShapeError(f"size must be a positive odd integer, got {size}")
        if alpha <= 0 or beta <= 0 or k <= 0:
            raise ShapeError("alpha, beta, k must be positive")
        self.size = size
        self.alpha = alpha
        self.beta = beta
        self.k = k

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(input_shape)
