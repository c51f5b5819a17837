"""Registry loading, lookup, the catalogue's power figures and the
selftest."""

import json

import pytest

from repro.devices import (PROFILE_DIR, DeviceProfile, DeviceRegistry,
                           get_profile, profile_names, resolve_device,
                           selftest)
from repro.gpusim import device as device_module
from repro.gpusim.device import DEVICES, K40C
from repro.gpusim.energy import device_static_fraction, device_tdp

#: The shipped devices' power figures, written out: 235 W for the GK110
#: parts, 250 W for the Maxwell and Pascal parts, 28% idle for all.
TDP_WATTS = {"Tesla K40c": 235.0, "Tesla K20X": 235.0,
             "GTX TITAN X (Maxwell)": 250.0, "Tesla M40": 250.0,
             "Tesla P100 (Pascal)": 250.0}
STATIC_FRACTION = 0.28


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

    def test_profiles_wrap_the_catalogue_specs(self):
        for name in profile_names():
            spec = get_profile(name).spec
            assert spec is DEVICES[spec.name]

    def test_legacy_names_keep_module_constants(self):
        # The module constants are names for catalogue entries.
        assert DEVICES["Tesla K40c"] is device_module.K40C
        assert DEVICES["Tesla K20X"] is device_module.K20X
        assert DEVICES["GTX TITAN X (Maxwell)"] is device_module.TITAN_X
        assert DEVICES["Tesla M40"] is device_module.M40

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

    def test_file_name_must_match_profile_name(self, tmp_path):
        with open(PROFILE_DIR / "k40c.json") as fh:
            doc = json.load(fh)
        path = tmp_path / "renamed.json"
        path.write_text(json.dumps(doc))
        registry = DeviceRegistry()
        with pytest.raises(ValueError, match="must match"):
            registry.load_file(path)

    def test_isolated_load_wraps_the_catalogue_specs(self):
        registry = self.make_registry()
        assert registry.get("k40c").spec is K40C


class TestTDPConsolidation:
    """The energy model reads board power from the catalogue and
    returns the figures written out above."""

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

    def test_modified_spec_keeps_its_names_figures(self):
        from dataclasses import replace
        assert device_tdp(replace(K40C, sm_count=16)) == 235.0
        tweaked = replace(DEVICES["Tesla M40"], clock_hz=1.0e9)
        assert device_tdp(tweaked) == 250.0
        assert device_static_fraction(tweaked) == STATIC_FRACTION

    def test_profiles_carry_the_power_figures(self):
        for slug, display in (("k40c", "Tesla K40c"),
                              ("k20x", "Tesla K20X"),
                              ("maxwell", "GTX TITAN X (Maxwell)"),
                              ("m40", "Tesla M40"),
                              ("pascal", "Tesla P100 (Pascal)")):
            assert get_profile(slug).tdp_w == TDP_WATTS[display]

    def test_kernel_power_unchanged(self):
        """End-to-end: energy figures through the registry path stay
        between the written-out static and board power."""
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
