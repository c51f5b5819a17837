"""Observability context: one tracer + one registry, propagated.

Cross-layer tracing needs the advisor, the evaluation cache, the
profiler and the fault plane to find the *current run's* tracer
without threading it through every signature.
Since simulated runs are single-threaded by construction (one virtual
clock), propagation is a module-level current-context slot:

* :func:`get_obs` — the active :class:`Observability` (the shared
  :data:`NULL_OBS` when nothing is installed, so instrumented call
  sites never branch);
* :func:`obs_session` — install a context for the duration of a
  ``with`` block (the serving scheduler wraps each run in one).

Every instrumented module calls ``get_obs()`` at use time, so code
outside a session pays two attribute reads and a no-op call.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from .metrics import MetricsRegistry, NULL_REGISTRY
from .tracer import NULL_TRACER


class Observability:
    """A tracer and a registry travelling together.

    ``Observability()`` is the serving default: tracing off (the null
    tracer) but a real registry, because the serving stats are a view
    over it.  :data:`NULL_OBS` disables both.
    """

    __slots__ = ("tracer", "registry")

    def __init__(self, tracer=None, registry=None):
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.registry = MetricsRegistry() if registry is None else registry

    @property
    def tracing(self) -> bool:
        """Whether spans are actually being recorded."""
        return self.tracer.enabled

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Observability(tracing={self.tracing}, "
                f"registry={type(self.registry).__name__})")


#: Fully disabled context — the process-wide default.
NULL_OBS = Observability(tracer=NULL_TRACER, registry=NULL_REGISTRY)

_current = NULL_OBS


def get_obs() -> Observability:
    """The active observability context (never None)."""
    return _current


def set_obs(obs: Optional[Observability]) -> Observability:
    """Install ``obs`` (None → :data:`NULL_OBS`); returns the previous
    context so callers can restore it."""
    global _current
    previous = _current
    _current = obs if obs is not None else NULL_OBS
    return previous


@contextmanager
def obs_session(obs: Observability):
    """Install ``obs`` for the duration of the block (restores the
    previous context on exit, exception or not)."""
    previous = set_obs(obs)
    try:
        yield obs
    finally:
        set_obs(previous)
