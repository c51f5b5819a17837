"""Registry loading, lookup, publication and the legacy selftest."""

import json

import pytest

from repro.devices import (PROFILE_DIR, DeviceProfile, DeviceRegistry,
                           default_registry, get_profile, profile_names,
                           resolve_device, selftest)
from repro.gpusim import device as device_module
from repro.gpusim.device import DEVICES, K40C
from repro.gpusim.energy import (STATIC_FRACTION, TDP_WATTS,
                                 device_static_fraction, device_tdp)


class TestDefaultRegistry:
    def test_ships_five_profiles(self):
        assert profile_names() == ["k20x", "k40c", "m40", "maxwell",
                                   "pascal"]

    def test_lookup_by_slug_and_display_name(self):
        assert get_profile("k40c") is get_profile("Tesla K40c")

    def test_unknown_profile(self):
        with pytest.raises(KeyError, match="unknown device profile"):
            get_profile("h100")

    def test_selftest_clean(self):
        assert selftest() == []

    def test_publishes_into_devices_map(self):
        # pascal has no hand-built constant; the registry adds it.
        assert "Tesla P100 (Pascal)" in DEVICES
        assert DEVICES["Tesla P100 (Pascal)"] is \
            get_profile("pascal").spec

    def test_legacy_names_keep_module_constants(self):
        # Publishing never replaces a hand-built spec object.
        assert DEVICES["Tesla K40c"] is device_module.K40C

    def test_resolve_device(self):
        assert resolve_device("k40c") == K40C
        assert resolve_device("Tesla K40c") == K40C
        assert resolve_device(K40C) is K40C
        with pytest.raises(KeyError):
            resolve_device("not-a-gpu")


class TestIsolatedRegistry:
    def make_registry(self) -> DeviceRegistry:
        registry = DeviceRegistry()
        registry.load_dir(PROFILE_DIR)
        return registry

    def test_len_iter_contains(self):
        registry = self.make_registry()
        assert len(registry) == 5
        assert "k40c" in registry
        assert "Tesla K40c" in registry
        assert sorted(p.name for p in registry) == registry.names()

    def test_reregister_identical_is_idempotent(self):
        registry = self.make_registry()
        before = len(registry)
        registry.register(registry.get("k40c"))
        assert len(registry) == before

    def test_reregister_conflicting_content_rejected(self):
        registry = self.make_registry()
        doc = registry.get("k40c").to_dict()
        doc["version"] = 2
        with pytest.raises(ValueError, match="different content"):
            registry.register(DeviceProfile.from_dict(doc))

    def test_publish_conflicting_spec_rejected(self):
        registry = DeviceRegistry()
        with open(PROFILE_DIR / "k40c.json") as fh:
            doc = json.load(fh)
        doc["name"] = "k40c-tweaked"
        doc["spec"]["sm_count"] = 16     # same display name, new numbers
        with pytest.raises(ValueError, match="different spec"):
            registry.register(DeviceProfile.from_dict(doc), publish=True)

    def test_file_name_must_match_profile_name(self, tmp_path):
        with open(PROFILE_DIR / "k40c.json") as fh:
            doc = json.load(fh)
        path = tmp_path / "renamed.json"
        path.write_text(json.dumps(doc))
        registry = DeviceRegistry()
        with pytest.raises(ValueError, match="must match"):
            registry.load_file(path)

    def test_profile_for_spec(self):
        registry = default_registry()
        assert registry.profile_for_spec(K40C).name == "k40c"
        from dataclasses import replace
        tweaked = replace(K40C, sm_count=16)
        assert registry.profile_for_spec(tweaked) is None


class TestTDPConsolidation:
    """Satellite: the scattered per-module K40c power constants now
    read from the registry — byte-identical figures."""

    def test_registry_tdp_matches_legacy_table(self):
        for name, tdp in TDP_WATTS.items():
            assert device_tdp(DEVICES[name]) == tdp

    def test_static_fraction_matches_legacy_constant(self):
        for name in TDP_WATTS:
            assert device_static_fraction(DEVICES[name]) == STATIC_FRACTION

    def test_unknown_device_falls_back(self):
        from dataclasses import replace
        unknown = replace(K40C, name="Mystery GPU")
        assert device_tdp(unknown) == 235.0
        assert device_static_fraction(unknown) == STATIC_FRACTION

    def test_profiles_carry_the_power_figures(self):
        for slug, display in (("k40c", "Tesla K40c"),
                              ("k20x", "Tesla K20X"),
                              ("maxwell", "GTX TITAN X (Maxwell)"),
                              ("m40", "Tesla M40")):
            assert get_profile(slug).tdp_w == TDP_WATTS[display]

    def test_kernel_power_unchanged(self):
        """End-to-end: energy figures through the registry path equal
        the legacy constants' arithmetic."""
        from repro.config import ConvConfig
        from repro.frameworks.registry import get_implementation
        from repro.gpusim.energy import iteration_energy

        impl = get_implementation("cudnn")
        config = ConvConfig(batch=64, input_size=32, filters=64,
                            kernel_size=3)
        profiled = impl.profile_iteration(config)
        report = iteration_energy(K40C, profiled.profiler.executions)
        tdp = TDP_WATTS["Tesla K40c"]
        static = STATIC_FRACTION * tdp
        lo = static * report.time_s
        assert lo <= report.energy_j <= tdp * report.time_s
        assert report.energy_j > 0
