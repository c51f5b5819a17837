"""Switchable memoization for the pure analytic layer.

Every quantity the gpusim substrate derives — bank-conflict degrees,
coalescing transactions, occupancy, and whole kernel timings — is a
pure function of frozen, hashable inputs (:class:`DeviceSpec`,
:class:`KernelSpec` and their nested access patterns).  The figure
pipelines and the serving scheduler re-derive the same values millions
of times across sweeps, so the hot functions are wrapped with
:func:`memoized`, a registry-aware ``lru_cache`` that can be disabled
and cleared globally:

* :func:`set_enabled` — turn memoization off (every call recomputes),
  used by the benchmarks to measure the unmemoized baseline;
* :func:`clear_all` — drop every registered cache, used to measure
  true cold-start costs and by tests that need isolation;
* :func:`stats` — per-function ``hits/misses/size`` counters.

``functools.lru_cache`` is thread-safe, so memoized functions may be
called concurrently from several threads.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional

#: Registered (name, cached callable) pairs, in decoration order.
_REGISTRY: List[tuple] = []
_ENABLED = True


def memoized(maxsize: Optional[int] = 65536) -> Callable:
    """Decorator: memoize a pure function of hashable arguments.

    The wrapper consults the module-wide enable flag on every call, so
    :func:`set_enabled` takes effect immediately — including for
    callers that imported the function before the flag changed.
    """

    def deco(fn: Callable) -> Callable:
        cached = functools.lru_cache(maxsize=maxsize)(fn)
        _REGISTRY.append((f"{fn.__module__}.{fn.__qualname__}", cached))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if _ENABLED:
                return cached(*args, **kwargs)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.cache = cached
        return wrapper

    return deco


def cached_instance_hash(cls):
    """Make a frozen dataclass compute its hash once per instance.

    Dataclass hashes walk every field (and nested frozen dataclasses)
    on *every* call; memo-cache keys hash the same :class:`DeviceSpec`
    / access-pattern instances millions of times across a sweep.  The
    wrapped ``__hash__`` stashes the value in the instance ``__dict__``
    (``object.__setattr__`` bypasses the frozen guard), which is sound
    because every field is immutable.  The hot path is a plain
    attribute read — the except arm only runs once per instance.
    """
    base_hash = cls.__hash__

    def __hash__(self, _base=base_hash):
        try:
            return self._cached_hash
        except AttributeError:
            h = _base(self)
            object.__setattr__(self, "_cached_hash", h)
            return h

    cls.__hash__ = __hash__
    return cls


def set_enabled(enabled: bool) -> None:
    """Globally enable/disable all registered memo caches."""
    global _ENABLED
    _ENABLED = bool(enabled)


def clear_all() -> None:
    """Drop every registered cache (counters reset too)."""
    for _, cached in _REGISTRY:
        cached.cache_clear()


def stats() -> Dict[str, Dict[str, int]]:
    """Per-function cache statistics, keyed by qualified name."""
    out: Dict[str, Dict[str, int]] = {}
    for name, cached in _REGISTRY:
        info = cached.cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses,
                     "size": info.currsize}
    return out
