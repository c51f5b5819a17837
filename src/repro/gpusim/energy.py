"""Energy model — performance per watt.

A K40c draws up to its 235 W board power under load; datacentre
operators of the paper's era were already ranking accelerators by
images-per-joule.  This extension derives per-kernel and per-iteration
energy from the timing model:

* dynamic power scales with how hard the kernel drives the SMs and the
  DRAM interface (its compute and bandwidth utilisation);
* idle/static power burns regardless (about a third of board power on
  GK110).

Both figures — board power (TDP) and the idle fraction — come from the
``power`` section of each device's profile (:mod:`repro.devices`).

The result is a second axis on which the seven implementations
separate: fbfft's short, bandwidth-heavy iterations versus the
unrolling family's long, compute-heavy ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .device import DeviceSpec
from .timing import KernelTiming


def _power_profile(device: DeviceSpec):
    """The catalogue profile registered under ``device``'s display name
    (the K40c's for a name the catalogue does not hold).  The registry
    import is deferred: energy is a gpusim leaf module and
    :mod:`repro.devices` sits above gpusim in the layering."""
    from ..devices.registry import default_registry
    registry = default_registry()
    return registry.find(device.name) or registry.get("k40c")


def device_tdp(device: DeviceSpec) -> float:
    """Board power limit for a modelled device, watts (its profile's
    ``power.tdp_w``)."""
    return _power_profile(device).tdp_w


def device_static_fraction(device: DeviceSpec) -> float:
    """Idle/static share of board power (its profile's
    ``power.idle_fraction``)."""
    return _power_profile(device).idle_fraction


def kernel_power(device: DeviceSpec, timing: KernelTiming) -> float:
    """Average board power during one kernel, watts.

    ``P = P_static + P_dyn_max * max(compute_util, memory_util)`` with
    the utilisations taken from the roofline terms of the timing.
    """
    tdp = device_tdp(device)
    static = device_static_fraction(device) * tdp
    spec = timing.spec
    # Utilisations of the two limiting resources during the kernel.
    compute_util = 0.0
    if timing.time_s > 0:
        compute_util = min(
            spec.total_flops / (timing.time_s * device.peak_flops), 1.0)
        memory_util = min(
            spec.total_bytes / (timing.time_s * device.memory_bandwidth), 1.0)
    else:  # pragma: no cover - defensive
        memory_util = 0.0
    activity = max(compute_util, memory_util)
    return static + (tdp - static) * activity


def kernel_energy(device: DeviceSpec, timing: KernelTiming) -> float:
    """Energy of one kernel launch set, joules."""
    return kernel_power(device, timing) * timing.time_s


@dataclass(frozen=True)
class EnergyReport:
    """Energy accounting of one iteration's kernel set."""

    energy_j: float
    time_s: float

    @property
    def average_power_w(self) -> float:
        return self.energy_j / self.time_s if self.time_s else 0.0

    def images_per_joule(self, batch: int) -> float:
        if batch <= 0:
            raise ValueError(f"batch must be positive, got {batch}")
        return batch / self.energy_j if self.energy_j else 0.0


def iteration_energy(device: DeviceSpec,
                     timings: Sequence[KernelTiming]) -> EnergyReport:
    """Total energy and time of a kernel set."""
    if not timings:
        raise ValueError("cannot account an empty timing list")
    energy = sum(kernel_energy(device, t) for t in timings)
    time = sum(t.time_s for t in timings)
    return EnergyReport(energy_j=energy, time_s=time)
