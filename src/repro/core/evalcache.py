"""Shared analytic-evaluation cache.

Every consumer of the performance model needs the same pure
derivation per ``(implementation, configuration, device)`` point:
kernel plan → occupancy → roofline timing → peak memory → profiler
metrics.  The consumers are the paper's figures (the Fig. 2 layer
walk in :mod:`repro.nn.simulate`, the Fig. 3 runtime sweeps, the
Fig. 4 hotspot kernels, the Fig. 5 memory sweeps, the Fig. 6 metric
profiles and the Fig. 7 transfer overheads), the extensions (the
ablations, the cross-device sensitivity study, the per-layer oracle,
the implementation audit and the calibration headlines), the advisor
and the serving scheduler.  None of them runs the model itself.

:func:`evaluate` is the single entry point.  It returns an
:class:`EvalRecord` — the complete analytic evaluation, content-
addressed by :func:`cache_key` over the implementation name, every
:class:`~repro.config.ConvConfig` field and the device name — from the
process-wide :class:`EvalCache` (hit) or by running the model once
(miss).  Records are plain frozen values: JSON-serializable for the
optional on-disk store under ``benchmarks/results/``, and rich enough
to answer every downstream question (runtime, peak memory/OOM,
per-kernel timings, Fig. 4 hotspot shares, runtime-weighted Fig. 6
metric summaries, the Fig. 7 transfer fraction) without touching the
model again.

Thread safety: the cache takes a lock around its dictionary, and the
underlying model layers are either pure or memoized with thread-safe
``lru_cache``, so threads may evaluate concurrently.
"""

from __future__ import annotations

import json
import math
import os
import threading
import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from ..config import ConvConfig
from ..errors import DeviceOOMError
from ..frameworks.base import ConvImplementation
from ..gpusim.allocator import replay
from ..gpusim.device import DEVICES, DeviceSpec, K40C, spec_digest
from ..gpusim.metrics import MetricSummary, weighted_summary
from ..obs.context import get_obs

#: Bump when the analytic model or the record layout changes in a way
#: that invalidates stored records; keys embed it, so stale disk
#: stores miss instead of serving wrong data.  v2: keys carry the
#: device-spec digest, not just the display name.
EVALCACHE_VERSION = 2


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelRecord:
    """One kernel launch of an evaluation: name, role and the timing /
    metric row the profiler derived.

    Freshly computed records carry the profiler's own
    :class:`~repro.gpusim.timing.KernelTiming` rows (no copying on the
    hot path); records loaded from a JSON store carry these instead.
    Both types expose ``name``, ``role`` and the metric fields under
    the same names, so :mod:`repro.gpusim.metrics` and every other
    consumer read either type without asking which it holds."""

    name: str
    role: str
    time_s: float
    achieved_occupancy: float
    ipc: float
    warp_execution_efficiency: float
    gld_efficiency: float
    gst_efficiency: float
    shared_efficiency: float
    shared_load_bank_conflicts: int
    shared_store_bank_conflicts: int


#: Marks a stored field as a number: an int or a float, not a bool.
_NUMBER = (int, float)

#: Stored kernel-row field -> its type, in the store's field order.
_KERNEL_ROW_TYPES = {
    "time_s": _NUMBER, "achieved_occupancy": _NUMBER, "ipc": _NUMBER,
    "warp_execution_efficiency": _NUMBER, "gld_efficiency": _NUMBER,
    "gst_efficiency": _NUMBER, "shared_efficiency": _NUMBER,
    "shared_load_bank_conflicts": _NUMBER,
    "shared_store_bank_conflicts": _NUMBER, "name": str, "role": str,
}
_KERNEL_ROW_FIELDS = tuple(_KERNEL_ROW_TYPES)

#: Stored record field -> (its type, whether it may be None).
_RECORD_TYPES = {
    "implementation": (str, False), "paper_name": (str, False),
    "device": (str, False), "supported": (bool, False),
    "time_s": (_NUMBER, True), "gpu_time_s": (_NUMBER, True),
    "transfer_time_s": (_NUMBER, True),
    "exposed_transfer_s": (_NUMBER, True),
    "peak_memory_bytes": (_NUMBER, True), "oom": (bool, False),
    "oom_bytes": (_NUMBER, True),
}


def _typed(name: str, value, kind, optional: bool = False):
    """``value`` when it has its stored field's type (see
    :data:`_RECORD_TYPES`); raises ``ValueError`` otherwise."""
    if value is None and optional:
        return value
    if (isinstance(value, bool) and kind is not bool) or \
            not isinstance(value, kind):
        raise ValueError(f"stored field {name!r} has the wrong type: "
                         f"{value!r}")
    return value


@dataclass(frozen=True)
class EvalRecord:
    """The full analytic evaluation of one (implementation, config,
    device) point."""

    implementation: str          # registry name, e.g. "cudnn"
    paper_name: str              # figure label, e.g. "cuDNN"
    config: ConvConfig
    device: str
    supported: bool
    #: Total simulated training-iteration time (None if unsupported).
    time_s: Optional[float]
    gpu_time_s: Optional[float]
    transfer_time_s: Optional[float]
    exposed_transfer_s: Optional[float]
    #: Peak device footprint (None if unsupported or OOM).
    peak_memory_bytes: Optional[int]
    oom: bool
    #: requested + in-use bytes at the OOM, when ``oom`` is True.
    oom_bytes: Optional[int]
    #: Per-kernel rows: ``KernelTiming`` when computed in-process (the
    #: profiler's own objects, shared not copied), ``KernelRecord``
    #: when loaded from a JSON store.  Both types feed every
    #: aggregate of :mod:`repro.gpusim.metrics`.
    kernels: Tuple[object, ...]

    def summary(self, top_n: Optional[int] = None) -> MetricSummary:
        """Runtime-weighted Fig. 6 metric estimate, recomputed from the
        cached per-kernel rows (any ``top_n``)."""
        if not self.kernels:
            raise ValueError(
                f"no kernel records for {self.implementation} (unsupported?)")
        return weighted_summary(self.kernels, top_n=top_n)

    @property
    def transfer_fraction(self) -> float:
        """Share of iteration time spent (visibly) on transfers — the
        quantity of Fig. 7."""
        if self.time_s is None or self.time_s <= 0:
            return 0.0
        return self.exposed_transfer_s / self.time_s

    # -- JSON (disk store) -------------------------------------------------

    def to_dict(self) -> dict:
        d = {
            "implementation": self.implementation,
            "paper_name": self.paper_name,
            "config": {
                "batch": self.config.batch,
                "input_size": self.config.input_size,
                "filters": self.config.filters,
                "kernel_size": self.config.kernel_size,
                "stride": self.config.stride,
                "channels": self.config.channels,
                "padding": self.config.padding,
            },
            "device": self.device,
            "supported": self.supported,
            "time_s": self.time_s,
            "gpu_time_s": self.gpu_time_s,
            "transfer_time_s": self.transfer_time_s,
            "exposed_transfer_s": self.exposed_transfer_s,
            "peak_memory_bytes": self.peak_memory_bytes,
            "oom": self.oom,
            "oom_bytes": self.oom_bytes,
            "kernels": [{f: getattr(k, f) for f in _KERNEL_ROW_FIELDS}
                        for k in self.kernels],
        }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EvalRecord":
        """Rebuild a stored record, checking every field's type (the
        config's seven ints are checked by
        :class:`~repro.config.ConvConfig`).  A mismatch raises
        ``ValueError``, so :meth:`EvalCache.load` quarantines the
        store instead of handing a consumer a string for a time."""
        fields = {name: _typed(name, d[name], kind, optional)
                  for name, (kind, optional) in _RECORD_TYPES.items()}
        kernels = []
        for row in _typed("kernels", d["kernels"], list):
            for name, value in _typed("kernel row", row, dict).items():
                _typed(name, value, _KERNEL_ROW_TYPES[name])
            kernels.append(KernelRecord(**row))
        return cls(config=ConvConfig(**_typed("config", d["config"], dict)),
                   kernels=tuple(kernels), **fields)


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------

def config_key(config: ConvConfig) -> str:
    """Canonical content key of one configuration: every field, in a
    fixed order, so equal-but-distinct instances key identically."""
    return (f"b{config.batch}.i{config.input_size}.f{config.filters}"
            f".k{config.kernel_size}.s{config.stride}"
            f".c{config.channels}.p{config.padding}")


def device_key(device: Union[DeviceSpec, str]) -> str:
    """Cache-key component naming a device *identity*, not a label.

    ``name@digest``, with the digest covering every spec field
    (:func:`~repro.gpusim.device.spec_digest`).  Two profiles that
    model different hardware under the same display name therefore key
    differently, so a record computed on one can never serve the other
    — the cross-device isolation the devices subsystem relies on.  A
    bare name resolves through the catalogue
    (:data:`~repro.gpusim.device.DEVICES`) so spec and string spellings
    of the same device stay interchangeable; an unknown label has no
    spec to digest and keys on the label alone.
    """
    if not isinstance(device, DeviceSpec):
        spec = DEVICES.get(device)
        if spec is None:
            return device
        device = spec
    return f"{device.name}@{spec_digest(device)}"


def cache_key(implementation: str, config: ConvConfig,
              device: Union[DeviceSpec, str]) -> str:
    """Content-addressed key of one evaluation point."""
    return (f"v{EVALCACHE_VERSION}|{implementation}|{config_key(config)}"
            f"|{device_key(device)}")


# ---------------------------------------------------------------------------
# the model run (cache-miss path)
# ---------------------------------------------------------------------------

def compute_record(impl: ConvImplementation, config: ConvConfig,
                   device: DeviceSpec = K40C) -> EvalRecord:
    """Run the analytic model once and freeze the result (no cache)."""
    if not impl.supports(config):
        return EvalRecord(
            implementation=impl.name, paper_name=impl.paper_name,
            config=config, device=device.name, supported=False,
            time_s=None, gpu_time_s=None, transfer_time_s=None,
            exposed_transfer_s=None, peak_memory_bytes=None,
            oom=False, oom_bytes=None, kernels=())
    profile = impl.profile_iteration(config, device)
    kernels = tuple(profile.profiler.executions)
    try:
        peak: Optional[int] = impl.peak_memory_bytes(config, device)
        oom, oom_bytes = False, None
    except DeviceOOMError as e:
        peak, oom, oom_bytes = None, True, e.requested + e.in_use
    return EvalRecord(
        implementation=impl.name, paper_name=impl.paper_name,
        config=config, device=device.name, supported=True,
        time_s=profile.total_time_s, gpu_time_s=profile.gpu_time_s,
        transfer_time_s=profile.transfer_time_s,
        exposed_transfer_s=profile.exposed_transfer_s,
        peak_memory_bytes=peak, oom=oom, oom_bytes=oom_bytes,
        kernels=kernels)


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------

class EvalCache:
    """Process-wide content-addressed store of :class:`EvalRecord`.

    Unbounded by design: the paper's whole sweep space is a few hundred
    points and a record is ~2 kB, so eviction would only cost rework.
    An optional JSON store (``path``) makes repeat CLI runs warm-start;
    loading tolerates missing/stale files (version-mismatched keys
    simply never match).
    """

    def __init__(self, path: Optional[str] = None):
        self._store: Dict[str, EvalRecord] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.path = path
        if path and os.path.exists(path):
            self.load(path)

    # -- bookkeeping -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        return key in self._store

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "entries": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0

    # -- storage -----------------------------------------------------------

    def get(self, key: str) -> Optional[EvalRecord]:
        """Record for ``key`` or None; counts a hit or a miss."""
        with self._lock:
            record = self._store.get(key)
            if record is None:
                self.misses += 1
            else:
                self.hits += 1
            return record

    def peek(self, key: str) -> Optional[EvalRecord]:
        """Like :meth:`get` but without touching the counters."""
        with self._lock:
            return self._store.get(key)

    def put(self, record: EvalRecord, key: Optional[str] = None) -> None:
        if key is None:
            key = cache_key(record.implementation, record.config,
                            record.device)
        with self._lock:
            self._store[key] = record

    # -- disk store --------------------------------------------------------

    def save(self, path: Optional[str] = None) -> str:
        """Write all records as one JSON document; returns the path."""
        path = path or self.path
        if not path:
            raise ValueError("no path given and none configured")
        with self._lock:
            payload = {
                "version": EVALCACHE_VERSION,
                "records": {k: r.to_dict() for k, r in self._store.items()},
            }
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
        return path

    def load(self, path: str) -> int:
        """Merge records from a JSON store; returns how many loaded.

        A store that cannot be trusted — truncated or corrupt JSON,
        malformed records, a value of the wrong type, or a different
        ``EVALCACHE_VERSION`` — is
        *quarantined*: renamed to ``<path>.bad`` with a warning, and
        the cache warm-starts empty.  A damaged disk store must never
        crash a run (nor silently keep resurfacing on every run).
        """
        try:
            with open(path) as fh:
                payload = json.load(fh)
            if not isinstance(payload, dict):
                raise ValueError("store root is not an object")
            if payload.get("version") != EVALCACHE_VERSION:
                raise ValueError(
                    f"store version {payload.get('version')!r} != "
                    f"{EVALCACHE_VERSION}")
            if not isinstance(payload.get("records"), dict):
                raise ValueError("store records are not an object")
            records = {k: EvalRecord.from_dict(d)
                       for k, d in payload["records"].items()}
        except OSError as exc:
            warnings.warn(f"eval cache store {path!r} unreadable "
                          f"({exc}); starting empty")
            return 0
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            self._quarantine(path, str(exc))
            return 0
        with self._lock:
            self._store.update(records)
        return len(records)

    @staticmethod
    def _quarantine(path: str, reason: str) -> None:
        """Move a damaged store aside (``<path>.bad``) and warn."""
        bad = f"{path}.bad"
        try:
            os.replace(path, bad)
            moved = f"quarantined to {bad!r}"
        except OSError as exc:   # pragma: no cover - racing FS trouble
            moved = f"could not quarantine ({exc})"
        warnings.warn(f"eval cache store {path!r} is unusable ({reason}); "
                      f"{moved}; starting empty")


# ---------------------------------------------------------------------------
# process-wide default + entry point
# ---------------------------------------------------------------------------

_default_cache = EvalCache()
_default_lock = threading.Lock()


def get_cache() -> EvalCache:
    """The process-wide shared cache."""
    return _default_cache


def set_cache(cache: EvalCache) -> EvalCache:
    """Swap the process-wide cache (returns the previous one)."""
    global _default_cache
    with _default_lock:
        previous = _default_cache
        _default_cache = cache
        return previous


def reset_cache() -> None:
    """Drop every record and counter in the process-wide cache."""
    _default_cache.clear()


#: ``cache=DISABLED`` bypasses caching entirely (every call recomputes).
DISABLED = False

#: What pipeline functions accept: the shared default (None), a
#: specific cache instance, or DISABLED.
CacheArg = Union[None, EvalCache, bool]


def resolve_cache(cache: CacheArg) -> Optional[EvalCache]:
    """Map a pipeline ``cache=`` argument onto an actual cache."""
    if cache is None:
        return get_cache()
    if cache is DISABLED:
        return None
    return cache


_REGISTRY_CLASSES: Optional[frozenset] = None


def cacheable(impl: ConvImplementation, device: DeviceSpec) -> bool:
    """Whether a point may enter the shared store.

    Keys are *names*, so only the seven registry implementations and
    the catalogued devices are content-addressable.  A test double
    named ``"cudnn"`` or an ad-hoc :class:`DeviceSpec` reusing a
    catalogue name would poison the store for every other consumer —
    such points are computed directly instead.
    """
    global _REGISTRY_CLASSES
    if _REGISTRY_CLASSES is None:
        from ..frameworks.registry import IMPLEMENTATION_CLASSES
        _REGISTRY_CLASSES = frozenset(IMPLEMENTATION_CLASSES)
    if type(impl) not in _REGISTRY_CLASSES:
        return False
    known = DEVICES.get(device.name)
    return known is device or known == device


# ---------------------------------------------------------------------------
# dispatch memo (serving fast path)
# ---------------------------------------------------------------------------

class DispatchMemo:
    """In-process memo of a batch's device memory plan.

    The serving scheduler's dispatch loop re-derives the same memory
    plan — ``impl.memory_plan(config)`` — for the same ``(shape, batch,
    implementation, device)`` point on every batch; a million-request
    run repeats a few dozen points hundreds of thousands of times.
    This memo caches the plan's buffers with their footprint, as
    :func:`~repro.gpusim.allocator.replay` computes it from zero, so a
    memo hit charges the allocation episode through
    :meth:`~repro.gpusim.allocator.DeviceAllocator.replay_transient`
    without touching the adapter.

    Keys carry a *fault-window epoch* (the serving plan cache's
    corruption count): a fault plan that corrupts cached plans bumps
    the epoch, so post-corruption dispatches recompute from the adapter
    exactly as the unmemoized path would.  Entries are pure values —
    the memo changes host wall-time only, never simulated time, stats
    or traces; its own hit/miss counters deliberately stay out of the
    metrics registry so memo-on and memo-off runs export byte-identical
    reports.
    """

    def __init__(self) -> None:
        self._store: Dict[tuple, Tuple[Tuple[Tuple[str, int], ...], int]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "entries": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }

    def memory_plan(self, key: tuple, impl: ConvImplementation,
                    config: ConvConfig
                    ) -> Tuple[Tuple[Tuple[str, int], ...], int]:
        """``(plan, total)`` for one dispatch point: the memory plan's
        ``(tag, size)`` buffers and their footprint from zero.

        ``key`` is the caller's full memo key — shape, batch,
        implementation, device and epoch; ``impl``/``config`` are only
        consulted on a miss.
        """
        entry = self._store.get(key)
        if entry is None:
            self.misses += 1
            plan = tuple(impl.memory_plan(config))
            entry = self._store[key] = (plan, replay(plan, 0, math.inf))
        else:
            self.hits += 1
        return entry


def evaluate(impl: ConvImplementation, config: ConvConfig,
             device: DeviceSpec = K40C,
             cache: CacheArg = None) -> EvalRecord:
    """Evaluate one point through the shared cache.

    ``cache``: None → the process-wide cache; an :class:`EvalCache` →
    that instance; :data:`DISABLED` → compute without caching.
    Uncacheable points (see :func:`cacheable`) always compute.

    Every call reports into the active observability context
    (:mod:`repro.obs`): an ``evalcache.evaluate`` span and one tick of
    ``evalcache_requests_total{result="hit"|"miss"|"uncached"}``,
    labeled with the device *identity* (``device="name@digest"``) so
    mixed-fleet telemetry rollups split cache traffic per device class.
    """
    resolved = resolve_cache(cache)
    obs = get_obs()
    with obs.tracer.span("evalcache.evaluate", cat="evalcache",
                         implementation=impl.name) as sp:
        if resolved is None or not cacheable(impl, device):
            result = "uncached"
            record = compute_record(impl, config, device)
        else:
            key = cache_key(impl.name, config, device)
            record = resolved.get(key)
            result = "hit" if record is not None else "miss"
            if record is None:
                record = compute_record(impl, config, device)
                resolved.put(record, key)
        sp.annotate(result=result, config=config_key(config),
                    time_s=record.time_s)
    obs.registry.counter("evalcache_requests_total", result=result,
                         device=device_key(device)).inc()
    return record


def evaluate_fitting(impl: ConvImplementation, config: ConvConfig,
                     device: DeviceSpec = K40C) -> EvalRecord:
    """:func:`evaluate` for callers that read ``peak_memory_bytes``.

    An out-of-memory point raises the allocator's typed
    :class:`~repro.errors.DeviceOOMError` instead of returning a record
    whose peak is None.  The record keeps only the failed total
    (``oom_bytes``), so the error is rebuilt by replaying the memory
    plan; that happens on the failure path alone.
    """
    record = evaluate(impl, config, device)
    if record.oom:
        impl.peak_memory_bytes(config, device)   # raises DeviceOOMError
    return record
