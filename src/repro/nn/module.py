"""Layer base class and parameter container."""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import ShapeError
from ..rng import RngLike, make_rng


class Parameter:
    """A learnable tensor and its gradient accumulator.

    Each array is allocated the first time it is read: ``grad`` as
    zeros, ``value`` as ``draw()`` when built from a ``draw`` callable
    instead of an array.  ``shape`` and ``size`` never allocate.
    """

    def __init__(self, value: Optional[np.ndarray], name: str = "", *,
                 draw: Optional[Callable[[], np.ndarray]] = None,
                 shape: Tuple[int, ...] = ()):
        self.name = name
        self._grad: Optional[np.ndarray] = None
        if draw is None:
            self.value = value
        else:
            self._value, self._draw, self._shape = None, draw, tuple(shape)

    @property
    def value(self) -> np.ndarray:
        if self._value is None:
            self.value = self._draw()
        return self._value

    @value.setter
    def value(self, value: np.ndarray) -> None:
        self._value = np.asarray(value, dtype=np.float64)
        self._draw, self._shape = None, self._value.shape
        if self._grad is not None and self._grad.shape != self._shape:
            self._grad = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros(self._shape)
        return self._grad

    @grad.setter
    def grad(self, grad: np.ndarray) -> None:
        self._grad = grad

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._shape

    @property
    def size(self) -> int:
        return math.prod(self._shape)

    def zero_grad(self) -> None:
        if self._grad is not None:
            self._grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter({self.name or 'unnamed'}, shape={self.shape})"


def he_normal(rng: RngLike, shape: Tuple[int, ...], fan_in: int,
              name: str = "") -> Parameter:
    """A weight drawn as ``make_rng(rng).standard_normal(shape) *
    sqrt(2 / fan_in)`` (He et al. scaling).

    An integer seed or ``None`` defers the draw to the first read of
    ``value``.  The draw re-seeds from ``rng`` and holds no live
    generator, so the array is the same whenever, and in whatever
    layer order, it is first read.  A ``Generator`` is drawn from at
    once, so layers sharing one stream keep construction order.
    """
    scale = np.sqrt(2.0 / fan_in)
    if isinstance(rng, np.random.Generator):
        return Parameter(_he_draw(rng, shape, scale), name)
    make_rng(rng)  # a bad seed raises TypeError here, not on first read
    return Parameter(None, name, shape=shape,
                     draw=partial(_he_draw, rng, shape, scale))


def _he_draw(rng: RngLike, shape, scale) -> np.ndarray:
    return make_rng(rng).standard_normal(shape) * scale


class Layer:
    """Base class for all layers.

    Subclasses implement ``forward`` (stashing whatever the backward
    pass needs on ``self``) and ``backward`` (accumulating parameter
    gradients and returning the input gradient).  ``layer_type`` is
    the Fig. 2 grouping label ("Conv", "Pooling", "ReLU", "FC",
    "Concat", ...).
    """

    layer_type = "Other"

    def __init__(self, name: str = ""):
        self.name = name or type(self).__name__
        self.training = True

    # -- interface ----------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> List[Parameter]:
        """Learnable parameters (default: none)."""
        return []

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Shape arithmetic without computing anything; used by model
        inspection and the runtime simulator."""
        raise NotImplementedError

    # -- conveniences ----------------------------------------------------------

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True) -> "Layer":
        self.training = mode
        return self

    def eval(self) -> "Layer":
        return self.train(False)

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


def check_nchw(x: np.ndarray, layer: Layer) -> None:
    """Common input validation for spatial layers."""
    if x.ndim != 4:
        raise ShapeError(
            f"{layer.name}: expected NCHW input, got ndim={x.ndim}"
        )
