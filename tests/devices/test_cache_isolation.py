"""Cross-device cache isolation.

Evaluation-cache and serving plan-cache keys carry the device-spec
digest, so a record or ranking computed on one device can never serve
another — even one under the same display name with different
numbers.
"""

from dataclasses import replace

from repro.config import ConvConfig
from repro.core import evalcache
from repro.core.evalcache import cache_key, device_key
from repro.frameworks.registry import get_implementation
from repro.gpusim.device import DEVICES, K40C, TITAN_X, spec_digest

CONFIG = ConvConfig(batch=64, input_size=32, filters=64, kernel_size=3)


class TestDeviceKey:
    def test_carries_digest(self):
        assert device_key(K40C) == f"Tesla K40c@{spec_digest(K40C)}"

    def test_spec_and_name_spellings_agree(self):
        # EvalCache.put defaults the key from record.device (a string),
        # so both spellings must produce the same key.
        assert device_key(K40C) == device_key("Tesla K40c")
        assert cache_key("cudnn", CONFIG, K40C) == \
            cache_key("cudnn", CONFIG, "Tesla K40c")

    def test_unknown_name_keys_on_label(self):
        assert device_key("some-future-gpu") == "some-future-gpu"

    def test_same_name_different_spec_distinct(self):
        """The core isolation property: a tweaked device under the
        same display name can never hit the original's records."""
        impostor = replace(K40C, memory_bandwidth=2 * K40C.memory_bandwidth)
        assert impostor.name == K40C.name
        assert device_key(impostor) != device_key(K40C)
        assert cache_key("cudnn", CONFIG, impostor) != \
            cache_key("cudnn", CONFIG, K40C)

    def test_distinct_devices_distinct_keys(self):
        keys = {cache_key("cudnn", CONFIG, d) for d in DEVICES.values()}
        assert len(keys) == len(DEVICES)

    def test_version_bumped_for_digest_keys(self):
        # v2 keys: old disk stores quarantine/miss instead of serving
        # name-keyed records to digest-keyed lookups.
        assert evalcache.EVALCACHE_VERSION == 2
        assert cache_key("cudnn", CONFIG, K40C).startswith("v2|")


class TestSpecDigest:
    def test_stable_across_calls(self):
        assert spec_digest(K40C) == spec_digest(K40C)

    def test_equal_specs_equal_digests(self):
        clone = replace(K40C)
        assert clone is not K40C
        assert spec_digest(clone) == spec_digest(K40C)

    def test_any_field_change_changes_digest(self):
        for change in (dict(sm_count=16), dict(clock_hz=746e6),
                       dict(ecc_retry_cost_s=0.0006)):
            assert spec_digest(replace(K40C, **change)) != spec_digest(K40C)


class TestPlanCacheIsolation:
    def test_server_plan_cache_key_carries_digest(self):
        from repro.serve.request import shape_key
        from repro.serve.scheduler import Server, ServerConfig
        server = Server(ServerConfig(device=TITAN_X))
        assert server._device_key == (TITAN_X.name, spec_digest(TITAN_X))
        server._plan_for(shape_key(CONFIG), 64)
        assert list(server.plan_cache._entries) == [
            (shape_key(CONFIG), 64, server._device_key)]


class TestEvalCacheIsolation:
    def test_evaluate_per_device_records(self):
        from repro.core.evalcache import EvalCache, evaluate
        cache = EvalCache()
        impl = get_implementation("cudnn")
        a = evaluate(impl, CONFIG, K40C, cache=cache)
        b = evaluate(impl, CONFIG, TITAN_X, cache=cache)
        assert cache.misses == 2         # distinct entries per device
        assert a.time_s != b.time_s      # and genuinely different numbers
        evaluate(impl, CONFIG, K40C, cache=cache)
        assert cache.hits == 1
