"""Named device profiles and heterogeneous-fleet capacity planning.

The device catalogue is the shipped ``profiles/*.json`` documents, one
per device (``k40c``, ``k20x``, ``maxwell``, ``m40``, ``pascal``).
:mod:`repro.gpusim.device` reads their ``spec`` sections at import into
:data:`~repro.gpusim.device.DEVICES`; this subsystem wraps those same
spec objects with power and cost and threads device *identity* through
the stack:

* :mod:`repro.devices.profile` — :class:`DeviceProfile`: a spec plus
  power (TDP, idle fraction) and economics (cost/hour), with a
  content digest and a canonical JSON form;
* :mod:`repro.devices.schema` — declarative validation of profile
  documents (:func:`validate_profile` accumulates every violation;
  :func:`ensure_valid` raises :class:`ProfileValidationError`);
* :mod:`repro.devices.registry` — loads the shipped profiles and looks
  them up by slug or display name; :func:`selftest` round-trips each
  through its JSON form;
* :mod:`repro.devices.plan` — the capacity planner: sweep every fleet
  mix within ``--fleet`` ceilings through the cluster simulator and
  SLO engine, rank passing mixes cheapest first
  (:func:`plan_capacity`).

Cache isolation: evaluation-cache and dispatch-memo keys carry
:func:`~repro.gpusim.device.spec_digest`, so a plan computed for one
device can never serve another — even a spec that reuses a catalogued
display name with different numbers.
"""

from .plan import (MAX_MIXES, WORKLOADS, CapacityPlan, FleetOption,
                   enumerate_mixes, evaluate_mix, mix_cost, mix_label,
                   mix_slots, parse_fleet, plan_capacity)
from .profile import PROFILE_SCHEMA_VERSION, DeviceProfile, spec_from_dict, \
    spec_to_dict
from .registry import (PROFILE_DIR, DeviceRegistry, default_registry,
                       get_profile, profile_names, resolve_device, selftest)
from .schema import ProfileValidationError, ensure_valid, validate_profile

__all__ = [
    "CapacityPlan",
    "DeviceProfile",
    "DeviceRegistry",
    "FleetOption",
    "MAX_MIXES",
    "PROFILE_DIR",
    "PROFILE_SCHEMA_VERSION",
    "ProfileValidationError",
    "WORKLOADS",
    "default_registry",
    "ensure_valid",
    "enumerate_mixes",
    "evaluate_mix",
    "get_profile",
    "mix_cost",
    "mix_label",
    "mix_slots",
    "parse_fleet",
    "plan_capacity",
    "profile_names",
    "resolve_device",
    "selftest",
    "spec_from_dict",
    "spec_to_dict",
    "validate_profile",
]
