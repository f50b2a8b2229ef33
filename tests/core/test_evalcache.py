"""Tests for the shared analytic-evaluation cache."""

import threading

import pytest

from repro.config import BASE_CONFIG, ConvConfig
from repro.core import evalcache
from repro.core.evalcache import (EvalCache, cache_key, cacheable,
                                  compute_record, config_key, evaluate)
from repro.frameworks.registry import (resolve_implementation,
                                       shared_implementations)
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

    def test_key_embeds_device_digest(self):
        assert cache_key("cudnn", SMALL, K40C).endswith(
            f"|{evalcache.device_key(K40C)}")

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
            assert record == evaluate(cudnn, cfg, cache=cache)

    def test_concurrent_grid_shares_one_store(self):
        cache = EvalCache()
        impls = shared_implementations()
        configs = [SMALL.scaled(batch=16 * (1 + i)) for i in range(3)]
        points = [(impl, cfg) for impl in impls for cfg in configs]
        first = [None] * len(points)

        def worker(i):
            impl, cfg = points[i]
            first[i] = evaluate(impl, cfg, K40C, cache=cache)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(points))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) == len(points)
        misses = cache.misses
        # a rerun is all hits, no recomputation
        again = [evaluate(impl, cfg, K40C, cache=cache)
                 for impl, cfg in points]
        assert cache.misses == misses
        assert [r.time_s for r in again] == [r.time_s for r in first]


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
