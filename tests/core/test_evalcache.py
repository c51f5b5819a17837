"""Tests for the shared analytic-evaluation cache."""

import hashlib
import json
import os
import threading
from dataclasses import replace

import pytest

from repro.config import BASE_CONFIG, ConvConfig
from repro.core import evalcache
from repro.core.evalcache import (EvalCache, EvalRecord, cache_key,
                                  cacheable, compute_record, config_key,
                                  evaluate, evaluate_fitting)
from repro.core.gpu_metrics import gpu_metric_profile
from repro.core.memory_comparison import memory_sweep
from repro.core.runtime_comparison import all_runtime_sweeps, runtime_sweep
from repro.errors import DeviceOOMError
from repro.frameworks.base import ConvImplementation
from repro.frameworks.registry import resolve_implementation
from repro.gpusim import memo
from repro.gpusim.device import DEVICES, K40C, DeviceSpec
from repro.gpusim.metrics import kernel_shares, runtime_shares, weighted_summary

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

    @pytest.mark.parametrize("records", [[], "not records"])
    def test_records_not_an_object_quarantines(self, tmp_path, records):
        path = str(tmp_path / "store.json")
        payload = {"version": evalcache.EVALCACHE_VERSION,
                   "records": records}
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.warns(UserWarning, match="quarantined"):
            assert EvalCache().load(path) == 0
        assert os.path.exists(path + ".bad")
        # The constructor's warm start survives the same store.
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.warns(UserWarning, match="quarantined"):
            assert len(EvalCache(path=path)) == 0

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


#: (path into a stored record, a value of the wrong type for it).
WRONG_TYPES = [
    (("implementation",), 7), (("paper_name",), None), (("device",), 1.5),
    (("supported",), "yes"), (("supported",), 1), (("oom",), None),
    (("time_s",), "fast"), (("time_s",), True), (("gpu_time_s",), "1"),
    (("transfer_time_s",), [0.0]), (("exposed_transfer_s",), {}),
    (("peak_memory_bytes",), "big"), (("oom_bytes",), False),
    (("config", "batch"), "64"), (("config", "input_size"), 128.0),
    (("config", "filters"), True), (("config", "kernel_size"), None),
    (("config", "stride"), "1"), (("config", "channels"), 3.0),
    (("config", "padding"), False), (("config",), [64, 128]),
    (("kernels",), {}), (("kernels", 0), "row"),
] + [(("kernels", 0, field), value) for field, value in [
    ("name", 3), ("role", None), ("time_s", "fast"),
    ("achieved_occupancy", True), ("ipc", "2"),
    ("warp_execution_efficiency", None), ("gld_efficiency", [1]),
    ("gst_efficiency", "x"), ("shared_efficiency", {}),
    ("shared_load_bank_conflicts", "0"),
    ("shared_store_bank_conflicts", False)]]


class TestValueTypes:
    """A stored value of the wrong type quarantines the whole store, so
    no consumer is handed, say, a string for a time."""

    @pytest.mark.parametrize(
        "path,value", WRONG_TYPES,
        ids=[".".join(map(str, p)) + f"={v!r}" for p, v in WRONG_TYPES])
    def test_wrong_type_quarantines(self, tmp_path, path, value):
        from repro.core.advisor import Advisor

        cache = EvalCache()
        evaluate(resolve_implementation("cudnn"), BASE_CONFIG, cache=cache)
        store = str(tmp_path / "store.json")
        cache.save(store)
        with open(store) as fh:
            payload = json.load(fh)
        (node,) = payload["records"].values()
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
        with open(store, "w") as fh:
            json.dump(payload, fh)
        with pytest.warns(UserWarning, match="quarantined"):
            loaded = EvalCache(path=store)
        assert len(loaded) == 0
        assert os.path.exists(store + ".bad")
        rec = Advisor(cache=loaded).recommend(BASE_CONFIG)
        assert rec.best == "fbfft"

    def test_every_stored_field_is_covered(self, cudnn):
        record = compute_record(cudnn, SMALL).to_dict()
        covered = {p for p, _ in WRONG_TYPES}
        assert {(f,) for f in record} <= covered
        assert {("config", f) for f in record["config"]} <= covered
        assert {("kernels", 0, f) for f in record["kernels"][0]} <= covered


class TestOnePath:
    """Every model run behind the report, the claims ledger and the
    audit is a cache-miss computation of :func:`evaluate`."""

    def test_every_profile_runs_inside_compute_record(self, monkeypatch):
        from repro.core import ledger
        from repro.core.full_report import generate_report
        from repro.core.validation import audit_all

        real_compute = evalcache.compute_record
        real_profile = ConvImplementation.profile_iteration
        depth, calls, outside = [0], [0], []

        def compute(*args, **kwargs):
            depth[0] += 1
            try:
                return real_compute(*args, **kwargs)
            finally:
                depth[0] -= 1

        def profile(impl, config, *args, **kwargs):
            calls[0] += 1
            if not depth[0]:
                outside.append((impl.name, config_key(config)))
            return real_profile(impl, config, *args, **kwargs)

        monkeypatch.setattr(evalcache, "compute_record", compute)
        monkeypatch.setattr(ConvImplementation, "profile_iteration", profile)
        previous = evalcache.set_cache(EvalCache())
        memo.clear_all()
        try:
            ledger.check()
            generate_report()
            audit_all(BASE_CONFIG)
        finally:
            evalcache.set_cache(previous)
        assert calls[0] > 0
        assert outside == []


#: sha256 of the JSON store that ``all_runtime_sweeps()`` leaves in a
#: fresh cache (518 records), recorded with the per-kernel timing
#: engine that ``time_plan`` replaced (CPython 3.9 and 3.11 agree).
#: The model sums times with ``obs.hist.ordered_sum``, not ``sum()``,
#: so CPython 3.12's compensated ``sum()`` leaves it unchanged (see
#: ``tests/test_sum_order.py``).
SWEEP_STORE_SHA256 = (
    "6fd9616f90c3ffaca07fc43c255a43e2e2a132fec13087bd70d56416c56abdf5")


def sweep_store_sha256(tmp_path) -> str:
    """sha256 of the store ``all_runtime_sweeps()`` leaves in a fresh
    cache."""
    cache = EvalCache()
    previous = evalcache.set_cache(cache)
    try:
        all_runtime_sweeps()
    finally:
        evalcache.set_cache(previous)
    assert len(cache) == 518
    with open(cache.save(str(tmp_path / "store.json")), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestRecordIdentity:
    """Rendered figures round to 2-4 digits; the stored records keep
    every bit, so a last-bit drift anywhere in the model shows here."""

    def test_sweep_store_is_bit_identical(self, tmp_path):
        assert sweep_store_sha256(tmp_path) == SWEEP_STORE_SHA256


class TestStoredRows:
    """Records loaded from a JSON store and fresh records build the same
    flat rows; every kernel-row consumer reads them alike."""

    def test_shares_and_summary_match_fresh_rows(self, tmp_path, cudnn):
        cache = EvalCache()
        fresh = evaluate(cudnn, BASE_CONFIG, cache=cache)
        path = str(tmp_path / "store.json")
        cache.save(path)
        stored = EvalCache(path=path).peek(
            cache_key(cudnn.name, BASE_CONFIG, K40C))
        assert type(stored.kernels[0]) is type(fresh.kernels[0])
        assert stored.kernels == fresh.kernels
        for fn in (runtime_shares, kernel_shares, weighted_summary):
            assert fn(stored.kernels) == fn(fresh.kernels)

    def test_fig4_from_a_stored_store(self, tmp_path):
        from repro.core.hotspot_kernels import hotspot_kernel_analysis

        cache = EvalCache()
        previous = evalcache.set_cache(cache)
        try:
            fresh = hotspot_kernel_analysis(BASE_CONFIG)
            path = str(tmp_path / "store.json")
            cache.save(path)
            loaded = EvalCache(path=path)
            evalcache.set_cache(loaded)
            stored = hotspot_kernel_analysis(BASE_CONFIG)
        finally:
            evalcache.set_cache(previous)
        # Every breakdown came from a stored record's flat rows.
        assert (loaded.hits, loaded.misses) == (len(fresh), 0)
        assert stored == fresh


class TestOutOfMemory:
    """A caller that reads a peak raises the typed out-of-memory error,
    not a ``TypeError`` on the record's ``None`` peak."""

    def test_headlines_on_a_small_device(self):
        from repro.core.sensitivity import headlines

        with pytest.raises(DeviceOOMError):
            headlines(replace(K40C, global_memory_bytes=2**30))

    def test_gradient_buffer_policy_at_a_huge_batch(self):
        from repro.core.ablations import gradient_buffer_policy

        with pytest.raises(DeviceOOMError):
            gradient_buffer_policy(BASE_CONFIG.scaled(batch=4096))

    def test_error_matches_the_direct_model_call(self, cudnn):
        huge = BASE_CONFIG.scaled(batch=4096)
        with pytest.raises(DeviceOOMError) as direct:
            cudnn.peak_memory_bytes(huge)
        record = evaluate(cudnn, huge)
        assert record.oom and record.peak_memory_bytes is None
        with pytest.raises(DeviceOOMError) as routed:
            evaluate_fitting(cudnn, huge)
        assert str(routed.value) == str(direct.value)
