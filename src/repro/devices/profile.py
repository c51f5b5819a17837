"""Named, versioned device profiles.

A :class:`DeviceProfile` wraps one :class:`~repro.gpusim.device
.DeviceSpec` — the analytic model's view of the silicon — together
with everything the layers above the model need to treat the device as
a *unit of capacity*:

* a short registry slug (``k40c``, ``maxwell``, ``pascal``) that CLI
  flags and fleet strings (``k40c:4,maxwell:2``) refer to;
* board-power parameters (TDP and idle fraction) consumed by the
  energy model (:mod:`repro.gpusim.energy`);
* a relative hourly cost, the objective the capacity planner
  (:mod:`repro.devices.plan`) minimises when ranking fleet mixes;
* a profile ``version`` and a content :attr:`~DeviceProfile.digest`
  so caches can prove two evaluations used the same device model.

Profiles are declarative: the shipped catalogue lives as JSON under
``repro/devices/profiles/`` (schema in :mod:`repro.devices.schema`),
and :meth:`DeviceProfile.to_dict` / :meth:`DeviceProfile.from_dict`
round-trip exactly.  A profile of a shipped device wraps the very spec
object :data:`repro.gpusim.device.DEVICES` holds for it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from ..gpusim.device import (DEVICES, DeviceSpec, spec_digest, spec_from_dict,
                             spec_to_dict)

#: Bump when the profile document layout changes incompatibly.
PROFILE_SCHEMA_VERSION = 1


def _catalogued(spec: DeviceSpec) -> DeviceSpec:
    """The catalogue's own object when ``spec`` is a shipped device, so
    every profile of it wraps one spec (and its cached digest)."""
    shipped = DEVICES.get(spec.name)
    return shipped if shipped == spec else spec


@dataclass(frozen=True)
class DeviceProfile:
    """One named device: the analytic spec plus capacity metadata."""

    #: Registry slug (``k40c``); lower-case, stable across versions.
    name: str
    #: Monotonic profile version (calibration refits bump it).
    version: int
    description: str
    spec: DeviceSpec
    #: Board power limit, watts (drives :mod:`repro.gpusim.energy`).
    tdp_w: float
    #: Fraction of TDP burned at idle (static/leakage power).
    idle_fraction: float
    #: Relative cost of one device-hour, in arbitrary but
    #: catalogue-consistent units (the capacity planner's objective).
    cost_per_hour: float
    #: Where the numbers came from (paper section, datasheet, ...).
    source: str = ""

    def __post_init__(self) -> None:
        if not self.name or self.name != self.name.lower():
            raise ValueError(f"profile name must be a lower-case slug, "
                             f"got {self.name!r}")
        if self.version < 1:
            raise ValueError(f"version must be >= 1, got {self.version}")
        if self.tdp_w <= 0:
            raise ValueError(f"tdp_w must be positive, got {self.tdp_w}")
        if not (0.0 <= self.idle_fraction < 1.0):
            raise ValueError(f"idle_fraction must be in [0, 1), "
                             f"got {self.idle_fraction}")
        if self.cost_per_hour <= 0:
            raise ValueError(f"cost_per_hour must be positive, "
                             f"got {self.cost_per_hour}")

    # -- identity ----------------------------------------------------------

    @property
    def digest(self) -> str:
        """Content digest over the whole profile document (short sha256
        of the canonical JSON serialization).  Evaluation-cache keys
        embed the *spec* digest (:func:`~repro.gpusim.device
        .spec_digest`); this one additionally covers the capacity
        metadata, so archived planner artifacts can prove which
        catalogue they were computed against."""
        blob = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    @property
    def spec_digest(self) -> str:
        """Digest of the analytic spec alone (the cache-key component)."""
        return spec_digest(self.spec)

    # -- JSON --------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema_version": PROFILE_SCHEMA_VERSION,
            "name": self.name,
            "version": self.version,
            "description": self.description,
            "source": self.source,
            "spec": spec_to_dict(self.spec),
            "power": {
                "tdp_w": self.tdp_w,
                "idle_fraction": self.idle_fraction,
            },
            "economics": {
                "cost_per_hour": self.cost_per_hour,
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "DeviceProfile":
        """Build from a *validated* profile document (see
        :func:`repro.devices.schema.validate_profile`)."""
        power = doc["power"]
        return cls(
            name=doc["name"],
            version=int(doc["version"]),
            description=doc["description"],
            source=doc.get("source", ""),
            spec=_catalogued(spec_from_dict(doc["spec"])),
            tdp_w=float(power["tdp_w"]),
            idle_fraction=float(power["idle_fraction"]),
            cost_per_hour=float(doc["economics"]["cost_per_hour"]),
        )
