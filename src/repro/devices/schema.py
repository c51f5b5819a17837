"""Declarative schema validation for device-profile documents.

The shipped catalogue under ``repro/devices/profiles/`` is plain JSON;
this module is the gate between those files and
:class:`~repro.devices.profile.DeviceProfile`.  Validation is
hand-rolled (the container has no ``jsonschema``) but declarative: the
shape lives in the :data:`PROFILE_SCHEMA` table, and
:func:`validate_profile` walks it, accumulating *every* problem with a
JSON-pointer-style path (``spec.sm_count: expected int``) rather than
bailing on the first, so ``repro devices --validate`` reports a broken
profile in one pass.  The ``spec`` section's rules are
:func:`repro.gpusim.device.spec_errors`, the same ones the import-time
catalogue load applies.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import ProfileValidationError
from ..gpusim.device import _is_int, _is_number, spec_errors
from .profile import PROFILE_SCHEMA_VERSION


# (required, type, predicate, description) per field.  ``type`` of
# "number" admits int and float; "int" requires an integral value.
_FieldRule = Tuple[bool, str, str]

#: Top-level document shape.  Nested sections carry their own tables.
PROFILE_SCHEMA: Dict[str, _FieldRule] = {
    "schema_version": (True, "int", "== PROFILE_SCHEMA_VERSION"),
    "name": (True, "str", "non-empty lower-case slug"),
    "version": (True, "int", ">= 1"),
    "description": (True, "str", "non-empty"),
    "source": (False, "str", ""),
    "spec": (True, "object", "one entry per DeviceSpec field"),
    "power": (True, "object", "tdp_w > 0, 0 <= idle_fraction < 1"),
    "economics": (True, "object", "cost_per_hour > 0"),
}

POWER_SCHEMA: Dict[str, _FieldRule] = {
    "tdp_w": (True, "number", "> 0"),
    "idle_fraction": (True, "number", "in [0, 1)"),
}

ECONOMICS_SCHEMA: Dict[str, _FieldRule] = {
    "cost_per_hour": (True, "number", "> 0"),
}


def _check_table(doc: dict, table: Dict[str, _FieldRule], prefix: str,
                 errors: List[str]) -> None:
    for key, (required, kind, _desc) in table.items():
        path = f"{prefix}{key}"
        if key not in doc:
            if required:
                errors.append(f"{path}: missing")
            continue
        value = doc[key]
        if kind == "str" and not isinstance(value, str):
            errors.append(f"{path}: expected string")
        elif kind == "int" and not _is_int(value):
            errors.append(f"{path}: expected int")
        elif kind == "number" and not _is_number(value):
            errors.append(f"{path}: expected number")
        elif kind == "object" and not isinstance(value, dict):
            errors.append(f"{path}: expected object")
    for key in doc:
        if key not in table:
            errors.append(f"{prefix}{key}: unknown field")


def validate_profile(doc: object) -> List[str]:
    """Return every schema violation in ``doc`` (empty list == valid)."""
    if not isinstance(doc, dict):
        return ["document: expected a JSON object"]
    errors: List[str] = []
    _check_table(doc, PROFILE_SCHEMA, "", errors)

    if _is_int(doc.get("schema_version")) and \
            doc["schema_version"] != PROFILE_SCHEMA_VERSION:
        errors.append(f"schema_version: expected {PROFILE_SCHEMA_VERSION}, "
                      f"got {doc['schema_version']}")
    name = doc.get("name")
    if isinstance(name, str) and (not name or name != name.lower()):
        errors.append("name: must be a non-empty lower-case slug")
    if _is_int(doc.get("version")) and doc["version"] < 1:
        errors.append("version: must be >= 1")
    if isinstance(doc.get("description"), str) and not doc["description"]:
        errors.append("description: must be non-empty")

    spec = doc.get("spec")
    if isinstance(spec, dict):
        errors.extend(spec_errors(spec))

    power = doc.get("power")
    if isinstance(power, dict):
        _check_table(power, POWER_SCHEMA, "power.", errors)
        tdp = power.get("tdp_w")
        if _is_number(tdp) and tdp <= 0:
            errors.append("power.tdp_w: must be positive")
        idle = power.get("idle_fraction")
        if _is_number(idle) and not (0.0 <= idle < 1.0):
            errors.append("power.idle_fraction: must be in [0, 1)")

    econ = doc.get("economics")
    if isinstance(econ, dict):
        _check_table(econ, ECONOMICS_SCHEMA, "economics.", errors)
        cost = econ.get("cost_per_hour")
        if _is_number(cost) and cost <= 0:
            errors.append("economics.cost_per_hour: must be positive")

    return errors


def ensure_valid(doc: object, name: str = "<anonymous>") -> dict:
    """Validate and return ``doc``, raising on any violation."""
    errors = validate_profile(doc)
    if errors:
        raise ProfileValidationError(name, errors)
    assert isinstance(doc, dict)
    return doc
