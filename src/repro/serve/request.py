"""The serving request model.

A request is one inference sample for one convolutional layer shape —
the unit the batcher coalesces.  Its record is the trace's own
:class:`~repro.serve.loadgen.Arrival`: the queue, batcher, stats and
fleet pass that object through unchanged, and the queue owns the one
timeout every request is shed by.  Shapes are identified by a
:data:`ShapeKey`, the :class:`~repro.config.ConvConfig` 6-tuple with
the batch dimension removed: two requests share a key exactly when
they can ride in the same batch, and the plan cache keys on
``(ShapeKey, batch, device)``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from ..config import ConvConfig

#: (input_size, filters, kernel_size, stride, channels, padding) —
#: a ConvConfig minus its batch dimension.
ShapeKey = Tuple[int, int, int, int, int, int]


def shape_key(config: ConvConfig) -> ShapeKey:
    """The batch-independent identity of a configuration."""
    return (config.input_size, config.filters, config.kernel_size,
            config.stride, config.channels, config.padding)


@lru_cache(maxsize=4096)
def batched_config(key: ShapeKey, batch: int) -> ConvConfig:
    """Rebuild a :class:`ConvConfig` from a shape key at ``batch``.

    Memoized: the serving hot path rebuilds the same few hundred
    (shape, bucketed batch) configurations millions of times, and
    ``ConvConfig`` is frozen, so sharing one instance per point is
    safe and skips the dataclass construction cost.
    """
    i, f, k, s, c, p = key
    return ConvConfig(batch=batch, input_size=i, filters=f, kernel_size=k,
                      stride=s, channels=c, padding=p)
