"""Deterministic random-number helpers.

All stochastic pieces of the package (serving traffic, fault
injection, routing) draw from :func:`make_rng` so that every
experiment, test and example is reproducible from a single integer
seed.  Following the NumPy guidance in the HPC guides, we use the
modern ``Generator`` API rather than the legacy global state.
"""

from __future__ import annotations

from typing import Union

import numpy as np

#: Default seed used across examples and benchmarks.
DEFAULT_SEED = 20160816  # ICPP 2016 conference date.

RngLike = Union[int, np.random.Generator, None]


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator``.

    Parameters
    ----------
    seed:
        ``None`` for the package default seed, an ``int`` seed, or an
        existing ``Generator`` which is passed through unchanged (so
        functions can accept either form).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be None, int, or Generator, got {type(seed)!r}")
    return np.random.default_rng(int(seed))


def spawn(rng: np.random.Generator, n: int) -> list:
    """Split ``rng`` into ``n`` independent child generators.

    Used when a workload wants per-epoch or per-worker streams that do
    not perturb each other's sequences.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(n)]
