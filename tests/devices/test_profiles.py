"""Device-profile value objects and schema validation."""

import json

import pytest

from repro.devices import (PROFILE_DIR, PROFILE_SCHEMA_VERSION, DeviceProfile,
                           ProfileValidationError, ensure_valid, get_profile,
                           spec_from_dict, spec_to_dict, validate_profile)
from repro.gpusim.device import K40C, TITAN_X, DeviceSpec, spec_digest


def load_doc(name: str) -> dict:
    with open(PROFILE_DIR / f"{name}.json") as fh:
        return json.load(fh)


#: The Tesla K40c of section III-A, written out field by field: 15 SMs
#: x 192 cores at 745 MHz, 2 FLOPs per core per cycle, 12 GiB at
#: 288 GB/s, 64K registers and 48 KiB of shared memory per SM, 5 us
#: launch overhead, the compute-capability-3.5 occupancy limits, and
#: DeviceSpec's PCIe, dual-issue and ECC-replay defaults.
PAPER_K40C = DeviceSpec(
    name="Tesla K40c", sm_count=15, cores_per_sm=192, clock_hz=745e6,
    flops_per_core_cycle=2, global_memory_bytes=12 * 2**30,
    memory_bandwidth=288e9, registers_per_sm=65536, register_alloc_unit=256,
    max_registers_per_thread=255, shared_memory_per_sm=48 * 1024,
    shared_alloc_unit=256, max_shared_per_block=48 * 1024,
    max_threads_per_sm=2048, max_threads_per_block=1024, max_blocks_per_sm=16,
    warp_size=32, shared_banks=32, bank_width_bytes=4, transaction_bytes=128,
    kernel_launch_overhead_s=5e-6,
)


class TestK40cByteIdentity:
    """The catalogue's k40c is the calibrated card of section III-A:
    the model every paper figure is computed on."""

    def test_spec_equal(self):
        assert K40C == PAPER_K40C
        assert get_profile("k40c").spec is K40C

    def test_every_field_identical(self):
        from dataclasses import fields
        for f in fields(DeviceSpec):
            assert getattr(K40C, f.name) == getattr(PAPER_K40C, f.name), \
                f.name
            # Same type too: 12884901888 (int) must not become a float.
            assert type(getattr(K40C, f.name)) is \
                type(getattr(PAPER_K40C, f.name)), f.name

    def test_digest_matches_hand_built(self):
        assert spec_digest(K40C) == spec_digest(PAPER_K40C) == "644a6f716191"

    def test_maxwell_matches_titan_x(self):
        assert get_profile("maxwell").spec is TITAN_X
        assert TITAN_X.name == "GTX TITAN X (Maxwell)"


class TestRoundTrip:
    @pytest.mark.parametrize("name",
                             ["k40c", "k20x", "maxwell", "m40", "pascal"])
    def test_profile_round_trip(self, name):
        profile = get_profile(name)
        rebuilt = DeviceProfile.from_dict(profile.to_dict())
        assert rebuilt == profile
        assert rebuilt.digest == profile.digest

    def test_spec_round_trip(self):
        assert spec_from_dict(spec_to_dict(K40C)) == K40C

    def test_to_dict_shape(self):
        doc = get_profile("k40c").to_dict()
        assert doc["schema_version"] == PROFILE_SCHEMA_VERSION
        assert doc["power"]["tdp_w"] == 235.0
        assert doc["economics"]["cost_per_hour"] > 0

    def test_digest_changes_with_content(self):
        doc = load_doc("k40c")
        base = DeviceProfile.from_dict(doc).digest
        doc["spec"]["sm_count"] = 16
        assert DeviceProfile.from_dict(doc).digest != base


class TestSchemaValidation:
    def test_shipped_profiles_clean(self):
        for path in sorted(PROFILE_DIR.glob("*.json")):
            with open(path) as fh:
                assert validate_profile(json.load(fh)) == [], path.name

    def test_missing_spec_field(self):
        doc = load_doc("k40c")
        del doc["spec"]["sm_count"]
        errors = validate_profile(doc)
        assert any("sm_count" in e for e in errors)

    def test_wrong_type(self):
        doc = load_doc("k40c")
        doc["spec"]["sm_count"] = "fifteen"
        assert any("sm_count" in e for e in validate_profile(doc))

    def test_bool_is_not_an_int(self):
        doc = load_doc("k40c")
        doc["spec"]["sm_count"] = True
        assert any("sm_count" in e for e in validate_profile(doc))

    def test_unknown_spec_field(self):
        doc = load_doc("k40c")
        doc["spec"]["tensor_cores"] = 8
        assert any("tensor_cores" in e for e in validate_profile(doc))

    def test_bad_slug(self):
        doc = load_doc("k40c")
        doc["name"] = "Tesla K40c"
        assert validate_profile(doc)

    def test_schema_version_mismatch(self):
        doc = load_doc("k40c")
        doc["schema_version"] = 99
        assert any("schema_version" in e for e in validate_profile(doc))

    def test_errors_accumulate(self):
        doc = load_doc("k40c")
        del doc["spec"]["sm_count"]
        doc["power"]["tdp_w"] = -1
        doc["name"] = "BAD SLUG"
        assert len(validate_profile(doc)) >= 3

    def test_ensure_valid_raises_with_all_errors(self):
        doc = load_doc("k40c")
        del doc["spec"]["sm_count"]
        doc["power"]["tdp_w"] = -1
        with pytest.raises(ProfileValidationError) as exc:
            ensure_valid(doc, name="k40c.json")
        assert len(exc.value.errors) >= 2

    def test_ensure_valid_passes_clean(self):
        ensure_valid(load_doc("pascal"), name="pascal.json")
