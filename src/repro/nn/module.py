"""Layer base class and parameter shapes."""

from __future__ import annotations

import math
from typing import List, NamedTuple, Tuple


class Parameter(NamedTuple):
    """A learnable tensor's name and shape.

    A model is a description: it holds no weights, only the shapes a
    framework would allocate for them.
    """

    name: str
    shape: Tuple[int, ...]

    @property
    def size(self) -> int:
        return math.prod(self.shape)


class Layer:
    """Base class for all layers.

    Subclasses implement ``output_shape`` (shape arithmetic for one
    input) and list their ``parameters``.  ``layer_type`` is the
    Fig. 2 grouping label ("Conv", "Pooling", "ReLU", "FC", "Concat",
    ...).
    """

    layer_type = "Other"

    def __init__(self, name: str = ""):
        self.name = name or type(self).__name__

    def parameters(self) -> List[Parameter]:
        """Learnable parameters (default: none)."""
        return []

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Shape arithmetic; used by model inspection and the runtime
        simulator."""
        raise NotImplementedError

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
