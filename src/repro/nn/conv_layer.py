"""Convolutional layer — "the central part in CNNs" (section II-A).

The numerical backend is pluggable: any of the seven
:mod:`repro.frameworks` implementations (or a bare strategy name) can
carry the arithmetic, which is how the examples demonstrate that
swapping implementations changes speed, not results.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ..config import ConvConfig
from ..conv import unrolled
from ..errors import ShapeError
from ..tensor.shapes import conv_output_size
from .module import Layer, Parameter, check_nchw, he_normal

# Lazy import of frameworks to keep nn importable standalone.
_STRATEGIES = {"direct", "unrolled", "fft"}


def _resolve_backend(backend):
    """Accept None (default unrolled), a strategy name (``direct``,
    ``unrolled``, ``fft``, ``winograd``), an implementation name, or a
    ConvImplementation / strategy-module instance."""
    if backend is None:
        return unrolled
    if isinstance(backend, str):
        from ..conv.registry import STRATEGIES, get_strategy
        if backend in STRATEGIES:
            return get_strategy(backend)
        from ..frameworks.registry import get_implementation
        return get_implementation(backend)
    return backend  # assume ConvImplementation-like or strategy module


class Conv2d(Layer):
    """2-D convolution with square kernels.

    Parameters
    ----------
    in_channels, out_channels, kernel_size, stride, padding:
        Usual convolution geometry.
    backend:
        ``None``/``"unrolled"``/``"direct"``/``"fft"`` for a bare
        strategy, or an implementation name (``"cudnn"``, ``"fbfft"``,
        ...) / instance from :mod:`repro.frameworks`.
    rng:
        Seed or generator for weight initialisation (He et al. scaling).
        A seed or ``None`` defers the draw until the weight is first
        read, so building a model only to walk its shapes allocates no
        weights; the array is the same as an immediate draw.  A
        ``Generator`` is drawn from here, in construction order.
    """

    layer_type = "Conv"

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 groups: int = 1, backend=None, rng=None, name: str = ""):
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
        self.backend = _resolve_backend(backend)

        self.weight = he_normal(
            rng, (out_channels, in_channels // groups, kernel_size,
                  kernel_size),
            (in_channels // groups) * kernel_size * kernel_size,
            f"{self.name}.weight")
        self.bias = Parameter(np.zeros(out_channels),
                              name=f"{self.name}.bias") if bias else None
        self._x: Optional[np.ndarray] = None

    # -- geometry ----------------------------------------------------------

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

    # -- compute -----------------------------------------------------------

    def _group_slices(self):
        """(input channel slice, output channel slice) per group."""
        cin = self.in_channels // self.groups
        cout = self.out_channels // self.groups
        for g in range(self.groups):
            yield (slice(g * cin, (g + 1) * cin),
                   slice(g * cout, (g + 1) * cout))

    def forward(self, x: np.ndarray) -> np.ndarray:
        check_nchw(x, self)
        self.output_shape(x.shape)  # validates channels
        self._x = x
        bias = self.bias.value if self.bias is not None else None
        if self.groups == 1:
            return self.backend.forward(x, self.weight.value, bias,
                                        self.stride, self.padding)
        # Grouped convolution (AlexNet's historical two-tower split):
        # each group convolves its own channel slice.
        parts = [
            self.backend.forward(x[:, ci], self.weight.value[co],
                                 bias[co] if bias is not None else None,
                                 self.stride, self.padding)
            for ci, co in self._group_slices()
        ]
        return np.concatenate(parts, axis=1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        x = self._x
        k = self.kernel_size
        if self.groups == 1:
            self.weight.grad += self.backend.backward_weights(
                dy, x, (k, k), self.stride, self.padding)
            if self.bias is not None:
                self.bias.grad += dy.sum(axis=(0, 2, 3))
            return self.backend.backward_input(
                dy, self.weight.value, (x.shape[2], x.shape[3]),
                self.stride, self.padding)
        if self.bias is not None:
            self.bias.grad += dy.sum(axis=(0, 2, 3))
        dx = np.empty_like(x)
        for ci, co in self._group_slices():
            self.weight.grad[co] += self.backend.backward_weights(
                dy[:, co], x[:, ci], (k, k), self.stride, self.padding)
            dx[:, ci] = self.backend.backward_input(
                dy[:, co], self.weight.value[co],
                (x.shape[2], x.shape[3]), self.stride, self.padding)
        return dx

    def parameters(self):
        return [self.weight] + ([self.bias] if self.bias is not None else [])
