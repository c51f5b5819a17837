"""Device specifications and the device catalogue.

A device's numbers are written once, in the ``spec`` section of its
profile document under ``repro/devices/profiles/``.  This module reads
that catalogue once, at import, into :data:`DEVICES` — a read-only
display-name -> :class:`DeviceSpec` map holding every shipped device —
and :data:`K40C`, :data:`K20X`, :data:`TITAN_X` and :data:`M40` are
names for four of its entries.  A damaged or missing profile fails the
import with a :class:`~repro.errors.ProfileValidationError` naming the
file and the field, so no process ever runs on a partial catalogue.
The rest of a profile (power, cost) belongs to :mod:`repro.devices`,
which wraps these same spec objects.

:data:`K40C` reproduces the card described in section III-A of the
paper: 15 SMs x 192 CUDA cores at 745 MHz boost (4.29 TFLOP/s single
precision), 12 GB of GDDR5 at 288 GB/s, 64K 32-bit registers and 48 KB
of shared memory per SM.  The occupancy-relevant limits follow the CUDA
C Programming Guide for compute capability 3.5.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from types import MappingProxyType
from typing import Dict, List, Mapping

from ..errors import ProfileValidationError
from .memo import cached_instance_hash


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a CUDA device for the analytic model."""

    name: str
    sm_count: int
    cores_per_sm: int
    clock_hz: float
    #: FLOPs retired per core per cycle (FMA counts as 2).
    flops_per_core_cycle: int
    global_memory_bytes: int
    #: Peak global-memory bandwidth, bytes/second.
    memory_bandwidth: float
    #: 32-bit registers per SM.
    registers_per_sm: int
    #: Register allocation granularity (per warp), in registers.
    register_alloc_unit: int
    #: Maximum registers addressable by one thread.
    max_registers_per_thread: int
    shared_memory_per_sm: int
    #: Shared-memory allocation granularity per block, bytes.
    shared_alloc_unit: int
    max_shared_per_block: int
    max_threads_per_sm: int
    max_threads_per_block: int
    max_blocks_per_sm: int
    warp_size: int
    #: Number of shared-memory banks and bank width in bytes.
    shared_banks: int
    bank_width_bytes: int
    #: Size of one global-memory transaction (L1 cache line), bytes.
    transaction_bytes: int
    #: Fixed host-side cost of launching one kernel, seconds.
    kernel_launch_overhead_s: float
    #: PCIe bandwidths (bytes/s) for pinned and pageable host memory,
    #: and per-transfer latency (seconds).  Gen-3 x16 figures.
    pcie_pinned_bandwidth: float = 11.5e9
    pcie_pageable_bandwidth: float = 6.0e9
    pcie_latency_s: float = 10e-6
    #: Maximum dual-issue rate: instructions per cycle per SM the
    #: schedulers can sustain (4 warp schedulers x 2 dispatch on GK110).
    max_ipc_per_sm: float = 8.0
    #: Simulated cost of recovering one transiently-faulted launch:
    #: ECC scrub + driver-level replay of the kernel.  Charged by the
    #: fault-injection plane on top of the launch overhead.
    ecc_retry_cost_s: float = 500e-6

    # -- derived quantities -------------------------------------------------

    @property
    def max_warps_per_sm(self) -> int:
        return self.max_threads_per_sm // self.warp_size

    @property
    def cuda_cores(self) -> int:
        return self.sm_count * self.cores_per_sm

    @property
    def peak_flops(self) -> float:
        """Peak single-precision FLOP/s."""
        return self.cuda_cores * self.clock_hz * self.flops_per_core_cycle

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.name}: {self.sm_count} SMs x {self.cores_per_sm} cores @ "
            f"{self.clock_hz / 1e6:.0f} MHz = {self.peak_flops / 1e12:.2f} TFLOP/s, "
            f"{self.global_memory_bytes / 2**30:.0f} GiB @ "
            f"{self.memory_bandwidth / 1e9:.0f} GB/s"
        )


# A handful of device instances are hashed on every memo-cache lookup
# in the analytic layer; cache the 20-field hash per instance.
cached_instance_hash(DeviceSpec)


def spec_digest(device: "DeviceSpec") -> str:
    """Short content digest of every field of a device spec.

    Two specs that model different hardware digest differently even
    when they share a display name, which is what lets the evaluation
    caches key on *device identity* rather than the label (see
    :func:`repro.core.evalcache.device_key`).  The digest is stable
    across processes (sha256 over the canonical ``field=value``
    serialization, not :func:`hash`) and cached per instance — every
    field is immutable, so computing it once is sound.
    """
    try:
        return device._cached_digest
    except AttributeError:
        blob = ";".join(f"{f.name}={getattr(device, f.name)!r}"
                        for f in fields(device))
        digest = hashlib.sha256(blob.encode()).hexdigest()[:12]
        object.__setattr__(device, "_cached_digest", digest)
        return digest


# ---------------------------------------------------------------------------
# the profile ``spec`` section
# ---------------------------------------------------------------------------

#: DeviceSpec field names, in declaration order (the canonical
#: serialization order for profile documents and digests).
SPEC_FIELDS = tuple(f.name for f in fields(DeviceSpec))

#: DeviceSpec fields that are integral counts/sizes (the rest are
#: floats: rates, bandwidths, seconds).
_INT_SPEC_FIELDS = frozenset((
    "sm_count", "cores_per_sm", "flops_per_core_cycle",
    "global_memory_bytes", "registers_per_sm", "register_alloc_unit",
    "max_registers_per_thread", "shared_memory_per_sm",
    "shared_alloc_unit", "max_shared_per_block", "max_threads_per_sm",
    "max_threads_per_block", "max_blocks_per_sm", "warp_size",
    "shared_banks", "bank_width_bytes", "transaction_bytes",
))


def _is_int(value: object) -> bool:
    # bool is an int subclass but never a valid count.
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    # JSON admits NaN and Infinity; neither is a usable figure.
    return _is_int(value) or (isinstance(value, float)
                              and math.isfinite(value))


def spec_errors(spec: dict) -> List[str]:
    """Every problem with a profile's ``spec`` section, one
    ``spec.<field>: problem`` string each (empty list == valid)."""
    errors: List[str] = []
    for name in SPEC_FIELDS:
        path = f"spec.{name}"
        if name not in spec:
            errors.append(f"{path}: missing")
            continue
        value = spec[name]
        if name == "name":
            if not isinstance(value, str) or not value:
                errors.append(f"{path}: expected non-empty string")
        elif name in _INT_SPEC_FIELDS:
            # JSON has one number type; accept 2048.0 but not 20.5.
            if not (_is_int(value) or (isinstance(value, float)
                                       and value.is_integer())):
                errors.append(f"{path}: expected integral number")
            elif value <= 0:
                errors.append(f"{path}: must be positive")
        elif not _is_number(value):
            errors.append(f"{path}: expected number")
        elif value < 0:
            errors.append(f"{path}: must be non-negative")
    errors.extend(f"spec.{name}: unknown field"
                  for name in spec if name not in SPEC_FIELDS)
    return errors


def spec_to_dict(spec: DeviceSpec) -> Dict[str, object]:
    """Every spec field as a JSON-ready mapping, declaration order."""
    return {name: getattr(spec, name) for name in SPEC_FIELDS}


def spec_from_dict(doc: Dict[str, object]) -> DeviceSpec:
    """Rebuild a spec from :func:`spec_to_dict` output (or a ``spec``
    section :func:`spec_errors` passes).  Integral fields tolerate JSON
    floats with integral values (``1.2884901888e9``-style scientific
    notation), everything else coerces to float."""
    kwargs = {}
    for name in SPEC_FIELDS:
        value = doc[name]
        if name == "name":
            kwargs[name] = str(value)
        elif name in _INT_SPEC_FIELDS:
            kwargs[name] = int(value)
        else:
            kwargs[name] = float(value)
    return DeviceSpec(**kwargs)


# ---------------------------------------------------------------------------
# the shipped catalogue
# ---------------------------------------------------------------------------

#: Directory holding the shipped profile documents.
PROFILE_DIR = Path(__file__).resolve().parent.parent / "devices" / "profiles"


def load_catalogue(directory: Path = PROFILE_DIR) -> Mapping[str, DeviceSpec]:
    """Read the ``spec`` section of every ``*.json`` profile under
    ``directory`` (in file-name order) into a read-only display-name ->
    spec map.

    All or nothing: a missing directory, an unreadable document, a
    ``spec`` section :func:`spec_errors` rejects, or two documents
    claiming one display name raise :class:`ProfileValidationError`
    naming the file and the field.
    """
    paths = sorted(Path(directory).glob("*.json"))
    if not paths:
        raise ProfileValidationError(
            str(directory), ["no *.json profile documents"])
    specs: Dict[str, DeviceSpec] = {}
    for path in paths:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ProfileValidationError(str(path), [f"document: {exc}"]) \
                from None
        section = doc.get("spec") if isinstance(doc, dict) else None
        if not isinstance(section, dict):
            raise ProfileValidationError(str(path), ["spec: expected object"])
        errors = spec_errors(section)
        if errors:
            raise ProfileValidationError(str(path), errors)
        spec = spec_from_dict(section)
        if spec.name in specs:
            raise ProfileValidationError(str(path), [
                f"spec.name: {spec.name!r} is already another profile's"])
        specs[spec.name] = spec
    return MappingProxyType(specs)


#: Every shipped device by display name (read-only).
DEVICES = load_catalogue()


def _shipped(name: str) -> DeviceSpec:
    try:
        return DEVICES[name]
    except KeyError:
        raise ProfileValidationError(str(PROFILE_DIR), [
            f"spec.name: no profile defines {name!r}"]) from None


#: The Tesla K40c of section III-A (GK110B, compute capability 3.5).
K40C = _shipped("Tesla K40c")
#: Tesla K20X — the K40c's smaller GK110 sibling, for "what if the
#: paper had run on the previous card" sensitivity studies.
K20X = _shipped("Tesla K20X")
#: GeForce GTX TITAN X (Maxwell GM200): wider SMs, a 96 KB shared
#: array and 32 resident blocks per SM.
TITAN_X = _shipped("GTX TITAN X (Maxwell)")
#: Tesla M40 — the Maxwell datacentre part.
M40 = _shipped("Tesla M40")
