"""Host-time attribution for the traced run, measured from outside.

Two instruments, each used on its own repetition so that neither
distorts the other:

* :class:`SpanRecorder` with :func:`patch_boundaries` wraps each
  declared layer boundary (``spec.BOUNDARIES``) and records one span
  per call: name, start, end and the enclosing span.  A span's self
  time is its duration minus the time its child spans cover.
* :func:`profile_fold` runs a repetition under cProfile and folds self
  time by ``repro`` package.  Built-in functions (NumPy's C methods
  among them) have no package of their own, so their time goes to the
  package of the caller.  ``other`` is ``repro`` code outside the
  named packages; ``unattributed`` is time the fold cannot place in
  the program or NumPy (the standard library, the harness, built-ins
  called from built-ins).

A wrapper placed where no caller looks it up records nothing, so each
boundary is patched where its callers resolve it: methods on their
class, functions in every ``repro`` module that bound them with
``from ... import``, and model constructors also in ``FIG2_MODELS``.
"""

from __future__ import annotations

import cProfile
import functools
import gzip
import json
import os
import pstats
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

import spec


class SpanRecorder:
    """Boundary spans kept in memory as parallel arrays."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.labels: List[str] = []
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._t0 = time.perf_counter()

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, label: str, fn: Callable) -> Callable:
        """``fn`` wrapped so every call records a span named ``label``."""
        if label not in self.labels:
            self.labels.append(label)
        ix = self.labels.index(label)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(end)
            name.append(ix)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return wrapper

    def summary(self) -> Dict[str, Tuple[int, float]]:
        """``{label: (calls, self seconds)}`` over every recorded span."""
        n = len(self)
        start, end, parent = self.start, self.end, self.parent
        covered = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        for i in range(n):
            label = self.labels[self.name[i]]
            calls[label] += 1
            self_s[label] += end[i] - start[i] - covered[i]
        return {label: (calls[label], self_s[label]) for label in calls}

    def write(self, path: str) -> None:
        """All spans as gzipped JSON lines, times relative to the
        recorder's creation."""
        t0 = self._t0
        with gzip.open(path, "wt") as fh:
            for i in range(len(self)):
                fh.write(json.dumps({
                    "run": self.run_id, "id": i,
                    "name": self.labels[self.name[i]],
                    "start": self.start[i] - t0, "end": self.end[i] - t0,
                    "parent": self.parent[i] if self.parent[i] >= 0 else None,
                }) + "\n")


def _boundary_targets():
    """``(methods, functions)``: ``{label: (class, attribute)}`` and
    ``{label: [function, ...]}`` for every declared boundary."""
    from repro.cluster.fleet import Cluster
    from repro.cluster.health import HealthPlane
    from repro.cluster.replica import Replica
    from repro.cluster.router import Router
    from repro.cluster.telemetry import FleetTelemetry
    from repro.core import evalcache
    from repro.core.advisor import Advisor
    from repro.frameworks.base import ConvImplementation
    from repro.gpusim.profiler import Profiler
    from repro.nn import models, simulate
    from repro.serve.plan_cache import PlanCache
    from repro.serve.scheduler import Server

    methods = {
        "advisor.evaluate": (Advisor, "evaluate"),
        "frameworks.profile_iteration": (ConvImplementation,
                                         "profile_iteration"),
        "frameworks.peak_memory": (ConvImplementation, "peak_memory_bytes"),
        "gpusim.launch": (Profiler, "launch"),
        "serve.run": (Server, "run"),
        "serve.plan_cache": (PlanCache, "get_or_compute"),
        "cluster.run": (Cluster, "run"),
        "cluster.route": (Router, "route"),
        "cluster.replica_poll": (Replica, "poll"),
        "cluster.health_poll": (HealthPlane, "poll"),
        "cluster.telemetry_poll": (FleetTelemetry, "poll"),
    }
    functions = {
        "nn.build": sorted({ctor for ctor, _ in
                            models.model_registry().values()},
                           key=lambda f: f.__name__),
        "nn.breakdown": [simulate.model_breakdown],
        "evalcache.evaluate": [evalcache.evaluate],
        "evalcache.compute": [evalcache.compute_record],
    }
    missing = set(spec.BOUNDARIES) ^ (set(methods) | set(functions))
    if missing:
        raise RuntimeError(f"boundaries without a target: {sorted(missing)}")
    return methods, functions


def patch_boundaries(recorder: SpanRecorder) -> Callable[[], None]:
    """Install span wrappers on every boundary; returns the undo."""
    from repro.nn.models import FIG2_MODELS

    methods, functions = _boundary_targets()
    undo: List[Callable[[], None]] = []
    for label, (cls, attr) in methods.items():
        original = cls.__dict__[attr]
        setattr(cls, attr, recorder.wrap(label, original))
        undo.append(functools.partial(setattr, cls, attr, original))
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "repro"
                                     or name.startswith("repro."))]
    for label, originals in functions.items():
        for original in originals:
            wrapped = recorder.wrap(label, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        undo.append(functools.partial(setattr, module, attr,
                                                      original))
            for key, (ctor, shape) in list(FIG2_MODELS.items()):
                if ctor is original:
                    FIG2_MODELS[key] = (wrapped, shape)
                    undo.append(functools.partial(FIG2_MODELS.__setitem__,
                                                  key, (original, shape)))

    def restore() -> None:
        for step in reversed(undo):
            step()

    return restore


def profile_fold(fn: Callable[[], object]
                 ) -> Tuple[object, Dict[str, float], Dict[str, float]]:
    """Run ``fn`` under cProfile.

    Returns its result, the share of profiled self time per package
    (``spec.PACKAGE_SHARES``, summing to 1) and the profile's totals:
    ``wall_s`` of the profiled call and ``self_s``, the self time the
    profile recorded (the difference is the profiler's own cost).
    """
    import numpy
    import repro

    repro_dir = os.path.dirname(repro.__file__) + os.sep
    numpy_dir = os.path.dirname(numpy.__file__) + os.sep

    def package(filename: str) -> str:
        if filename.startswith(repro_dir):
            rel = filename[len(repro_dir):].replace(os.sep, "/")
            for name, prefix in spec.PACKAGES:
                if rel.startswith(prefix):
                    return name
            return "other"
        if filename.startswith(numpy_dir):
            return "numpy"
        return "unattributed"

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    wall = time.perf_counter() - start
    totals = dict.fromkeys(spec.PACKAGE_SHARES, 0.0)
    for (filename, _, _), (_, _, tt, _, callers) in \
            pstats.Stats(profiler).stats.items():
        if filename == "~" and callers:
            for (caller_file, _, _), edge in callers.items():
                totals[package(caller_file)] += edge[2]
        else:
            totals[package(filename)] += tt
    self_s = sum(totals.values())
    shares = {name: seconds / self_s for name, seconds in totals.items()}
    return result, shares, {"wall_s": wall, "self_s": self_s}
