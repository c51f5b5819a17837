"""Tests for the shared analytic-evaluation cache."""

import json
import threading

import pytest

from repro.config import BASE_CONFIG, ConvConfig
from repro.core import evalcache
from repro.core.evalcache import (EvalCache, EvalRecord, cache_key,
                                  cacheable, compute_record, config_key,
                                  evaluate)
from repro.core.gpu_metrics import gpu_metric_profile
from repro.core.memory_comparison import memory_sweep
from repro.core.runtime_comparison import all_runtime_sweeps, runtime_sweep
from repro.frameworks.registry import resolve_implementation
from repro.gpusim.device import DEVICES, K40C, DeviceSpec

SMALL = ConvConfig(batch=16, input_size=32, filters=16, kernel_size=3,
                   stride=1, channels=3)


@pytest.fixture
def cudnn():
    return resolve_implementation("cudnn")


class TestKeys:
    def test_equal_but_distinct_configs_key_identically(self):
        a = ConvConfig(batch=64, input_size=128, filters=64, kernel_size=11,
                       stride=1, channels=3)
        b = ConvConfig(batch=64, input_size=128, filters=64, kernel_size=11,
                       stride=1, channels=3)
        assert a is not b
        assert config_key(a) == config_key(b)
        assert cache_key("cudnn", a, K40C) == cache_key("cudnn", b, K40C)

    def test_every_config_field_is_keyed(self):
        base = cache_key("cudnn", SMALL, K40C)
        for field in ("batch", "input_size", "filters", "kernel_size",
                      "stride", "channels", "padding"):
            changed = SMALL.scaled(**{field: getattr(SMALL, field) + 1})
            assert cache_key("cudnn", changed, K40C) != base

    def test_implementation_and_device_are_keyed(self):
        assert (cache_key("cudnn", SMALL, K40C)
                != cache_key("caffe", SMALL, K40C))
        other = next(d for d in DEVICES.values() if d.name != K40C.name)
        assert (cache_key("cudnn", SMALL, K40C)
                != cache_key("cudnn", SMALL, other))

    def test_key_embeds_version(self):
        assert f"v{evalcache.EVALCACHE_VERSION}|" in cache_key(
            "cudnn", SMALL, K40C)

    def test_device_accepts_name_or_spec(self):
        assert (cache_key("cudnn", SMALL, K40C)
                == cache_key("cudnn", SMALL, K40C.name))


class TestCounters:
    def test_miss_then_hit(self, cudnn):
        cache = EvalCache()
        first = evaluate(cudnn, SMALL, cache=cache)
        second = evaluate(cudnn, SMALL, cache=cache)
        assert first is second
        assert cache.misses == 1 and cache.hits == 1
        assert len(cache) == 1
        assert cache.hit_rate == 0.5

    def test_stats_shape(self, cudnn):
        cache = EvalCache()
        evaluate(cudnn, SMALL, cache=cache)
        assert cache.stats() == {"entries": 1, "hits": 0, "misses": 1,
                                 "hit_rate": 0.0}

    def test_peek_does_not_count(self, cudnn):
        cache = EvalCache()
        key = cache_key(cudnn.name, SMALL, K40C)
        assert cache.peek(key) is None
        assert cache.misses == 0

    def test_clear_resets_everything(self, cudnn):
        cache = EvalCache()
        evaluate(cudnn, SMALL, cache=cache)
        evaluate(cudnn, SMALL, cache=cache)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_distinct_configs_are_distinct_entries(self, cudnn):
        cache = EvalCache()
        evaluate(cudnn, SMALL, cache=cache)
        evaluate(cudnn, SMALL.scaled(batch=32), cache=cache)
        assert len(cache) == 2 and cache.misses == 2


class TestRecords:
    def test_supported_record_is_complete(self, cudnn):
        record = compute_record(cudnn, SMALL)
        assert record.supported and not record.oom
        assert record.time_s > 0
        assert record.peak_memory_bytes > 0
        assert record.kernels
        summary = record.summary(top_n=5)
        assert 0 < summary.achieved_occupancy <= 1

    def test_unsupported_record(self):
        fbfft = resolve_implementation("fbfft")
        record = compute_record(fbfft, SMALL.scaled(stride=2))
        assert not record.supported
        assert record.time_s is None and record.kernels == ()
        with pytest.raises(ValueError):
            record.summary()

    def test_record_matches_direct_model_run(self, cudnn):
        record = compute_record(cudnn, SMALL)
        profile = cudnn.profile_iteration(SMALL)
        assert record.time_s == profile.total_time_s
        assert record.peak_memory_bytes == cudnn.peak_memory_bytes(SMALL)


class TestDiskRoundTrip:
    def _populated(self, cudnn):
        cache = EvalCache()
        evaluate(cudnn, SMALL, cache=cache)
        evaluate(cudnn, SMALL.scaled(kernel_size=5), cache=cache)
        evaluate(resolve_implementation("fbfft"), SMALL.scaled(stride=2),
                 cache=cache)
        return cache

    def test_round_trip_preserves_records(self, tmp_path, cudnn):
        cache = self._populated(cudnn)
        path = str(tmp_path / "store.json")
        cache.save(path)
        fresh = EvalCache()
        assert fresh.load(path) == 3
        for key in cache._store:
            assert fresh.peek(key).to_dict() == cache.peek(key).to_dict()

    def test_loaded_record_supports_summaries(self, tmp_path, cudnn):
        cache = self._populated(cudnn)
        path = str(tmp_path / "store.json")
        cache.save(path)
        fresh = EvalCache(path=path)
        key = cache_key(cudnn.name, SMALL, K40C)
        original = cache.peek(key).summary(top_n=5)
        loaded = fresh.peek(key).summary(top_n=5)
        assert loaded.achieved_occupancy == pytest.approx(
            original.achieved_occupancy)
        assert loaded.ipc == pytest.approx(original.ipc)

    def test_constructor_warm_start_serves_hits(self, tmp_path, cudnn):
        cache = self._populated(cudnn)
        path = str(tmp_path / "store.json")
        cache.save(path)
        warm = EvalCache(path=path)
        evaluate(cudnn, SMALL, cache=warm)
        assert warm.hits == 1 and warm.misses == 0

    def test_version_mismatch_loads_nothing(self, tmp_path, cudnn):
        cache = self._populated(cudnn)
        path = str(tmp_path / "store.json")
        cache.save(path)
        with open(path) as fh:
            payload = json.load(fh)
        payload["version"] = evalcache.EVALCACHE_VERSION + 1
        with open(path, "w") as fh:
            json.dump(payload, fh)
        assert EvalCache().load(path) == 0

    def test_save_requires_a_path(self):
        with pytest.raises(ValueError):
            EvalCache().save()


class TestPoisoningGuard:
    def test_registry_points_are_cacheable(self, cudnn):
        assert cacheable(cudnn, K40C)

    def test_impostor_class_is_not(self, cudnn):
        class Impostor(type(cudnn)):
            pass

        assert not cacheable(Impostor(), K40C)

    def test_adhoc_device_reusing_a_name_is_not(self, cudnn):
        from dataclasses import replace
        fake = replace(K40C, sm_count=K40C.sm_count * 2)
        assert not cacheable(cudnn, fake)

    def test_uncacheable_point_bypasses_store(self, cudnn):
        class Impostor(type(cudnn)):
            pass

        cache = EvalCache()
        record = evaluate(Impostor(), SMALL, cache=cache)
        assert record.supported
        assert len(cache) == 0 and cache.misses == 0

    def test_disabled_bypasses_store(self, cudnn):
        previous = evalcache.set_cache(EvalCache())
        try:
            record = evaluate(cudnn, SMALL, cache=evalcache.DISABLED)
            assert record.supported
            assert len(evalcache.get_cache()) == 0
        finally:
            evalcache.set_cache(previous)


class TestThreadSafety:
    def test_concurrent_evaluate_computes_once_per_point(self, cudnn):
        cache = EvalCache()
        configs = [SMALL.scaled(batch=16 * (1 + i % 4)) for i in range(16)]
        results = [None] * len(configs)

        def worker(i):
            results[i] = evaluate(cudnn, configs[i], cache=cache)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(configs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) == 4
        for cfg, record in zip(configs, results):
            again = evaluate(cudnn, cfg, cache=cache)
            assert record.to_dict() == again.to_dict()


class TestSweeps:
    """The figure pipelines evaluate point by point through
    :func:`evaluate`, so the cache changes no figure."""

    def test_runtime_sweep_same_with_and_without_cache(self):
        assert (runtime_sweep("batch", cache=EvalCache()).times
                == runtime_sweep("batch", cache=evalcache.DISABLED).times)

    def test_memory_sweep_same_with_and_without_cache(self):
        cached = memory_sweep("batch", cache=EvalCache())
        uncached = memory_sweep("batch", cache=evalcache.DISABLED)
        assert cached.peaks == uncached.peaks
        assert cached.ooms == uncached.ooms

    def test_metric_profile_same_with_and_without_cache(self):
        assert (gpu_metric_profile(cache=EvalCache())
                == gpu_metric_profile(cache=evalcache.DISABLED))

    def test_revisited_points_compute_once(self):
        """Every Fig. 3 sweep passes through the base configuration;
        each revisit is a hit, not a second model run."""
        cache = EvalCache()
        sweeps = all_runtime_sweeps(cache=cache)
        points = sum(len(r.configs) * len(r.times) for r in sweeps.values())
        assert cache.misses == len(cache)
        assert cache.hits == points - len(cache) > 0


class TestSharedDefault:
    def test_pipelines_share_the_default_store(self):
        from repro.core.advisor import Advisor
        previous = evalcache.set_cache(EvalCache())
        try:
            Advisor().evaluate(BASE_CONFIG)
            store = evalcache.get_cache()
            assert len(store) == 7
            hits_before = store.hits
            Advisor().evaluate(BASE_CONFIG)     # a different Advisor instance
            assert len(store) == 7
            assert store.hits > hits_before
        finally:
            evalcache.set_cache(previous)


class TestQuarantine:
    """A damaged disk store must never take the process down."""

    def _saved(self, tmp_path, cudnn):
        cache = EvalCache()
        evaluate(cudnn, SMALL, cache=cache)
        path = str(tmp_path / "store.json")
        cache.save(path)
        return path

    def test_truncated_store_quarantines_and_warms_empty(self, tmp_path,
                                                         cudnn):
        path = self._saved(tmp_path, cudnn)
        blob = open(path).read()
        with open(path, "w") as fh:
            fh.write(blob[:len(blob) // 2])   # cut mid-JSON
        fresh = EvalCache()
        with pytest.warns(UserWarning, match="quarantined"):
            assert fresh.load(path) == 0
        import os
        assert not os.path.exists(path)
        assert os.path.exists(path + ".bad")
        # The store is usable (and saveable) after the warm start.
        evaluate(cudnn, SMALL, cache=fresh)
        fresh.save(path)

    def test_garbage_json_quarantines(self, tmp_path, cudnn):
        path = str(tmp_path / "store.json")
        with open(path, "w") as fh:
            fh.write("not json at all {{{")
        with pytest.warns(UserWarning, match="quarantined"):
            assert EvalCache().load(path) == 0

    def test_wrong_root_type_quarantines(self, tmp_path):
        path = str(tmp_path / "store.json")
        with open(path, "w") as fh:
            json.dump(["a", "list"], fh)
        with pytest.warns(UserWarning, match="quarantined"):
            assert EvalCache().load(path) == 0

    def test_version_mismatch_quarantines(self, tmp_path, cudnn):
        path = self._saved(tmp_path, cudnn)
        with open(path) as fh:
            payload = json.load(fh)
        payload["version"] = evalcache.EVALCACHE_VERSION + 1
        with open(path, "w") as fh:
            json.dump(payload, fh)
        import os
        with pytest.warns(UserWarning, match="quarantined"):
            assert EvalCache().load(path) == 0
        assert os.path.exists(path + ".bad")

    def test_missing_file_is_not_quarantined(self, tmp_path):
        path = str(tmp_path / "absent.json")
        with pytest.warns(UserWarning, match="unreadable"):
            assert EvalCache().load(path) == 0

    def test_constructor_warm_start_survives_damage(self, tmp_path, cudnn):
        path = self._saved(tmp_path, cudnn)
        with open(path, "w") as fh:
            fh.write("{")
        with pytest.warns(UserWarning):
            cache = EvalCache(path=path)
        evaluate(cudnn, SMALL, cache=cache)
        assert cache.misses == 1
