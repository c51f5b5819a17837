"""Registry of the analytic layer's lookup tables.

The timing engine (:func:`~repro.gpusim.timing.time_plan`) keeps a few
tables of values derived once per device and per launch shape or
access pattern: occupancy, coalescing efficiency, bank-conflict degree
and warp-execution efficiency.  Each table registers here so that

* :func:`clear_all` drops every table (cold-start measurements, test
  isolation);
* :func:`stats` reports each table's ``hits/misses/size``.

Entries are pure values of frozen inputs.  Two threads that miss the
same key compute the same value, so concurrent use is safe; only the
hit and miss counters may drift.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

#: Registered (name, clear, stats) triples, in registration order.
_REGISTRY: List[Tuple[str, Callable[[], None],
                      Callable[[], Dict[str, int]]]] = []


def register(name: str, clear: Callable[[], None],
             stats: Callable[[], Dict[str, int]]) -> None:
    """Register a table: ``clear()`` empties it and resets its
    counters, ``stats()`` returns its ``hits/misses/size``."""
    _REGISTRY.append((name, clear, stats))


def clear_all() -> None:
    """Drop every registered table (counters reset too)."""
    for _, clear, _ in _REGISTRY:
        clear()


def stats() -> Dict[str, Dict[str, int]]:
    """Per-table statistics, keyed by table name."""
    return {name: table_stats() for name, _, table_stats in _REGISTRY}
