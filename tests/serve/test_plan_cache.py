"""Plan cache: LRU eviction, counters, cached infeasibility."""

import pytest

from repro.core.advisor import RankedPlan
from repro.serve.plan_cache import PlanCache, _MISSING


def plan(name="cudnn", t=0.001):
    return RankedPlan(implementation=name, time_s=t, peak_memory_bytes=100)


class TestBasics:
    def test_miss_then_hit(self):
        c = PlanCache(capacity=4)
        assert c.get("k") is _MISSING
        c.put("k", plan())
        assert c.get("k").implementation == "cudnn"
        assert (c.hits, c.misses) == (1, 1)

    def test_hit_rate(self):
        c = PlanCache(capacity=4)
        assert c.hit_rate == 0.0
        c.put("k", plan())
        c.get("k")
        c.get("nope")
        assert c.hit_rate == pytest.approx(0.5)

    def test_cached_infeasibility_is_a_hit(self):
        c = PlanCache(capacity=4)
        c.put("bad", None)
        assert c.get("bad") is None
        assert c.hits == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


class TestLRU:
    def test_evicts_least_recently_used(self):
        c = PlanCache(capacity=2)
        c.put("a", plan("a"))
        c.put("b", plan("b"))
        c.get("a")            # refresh a
        c.put("c", plan("c"))  # evicts b
        assert "a" in c and "c" in c and "b" not in c
        assert c.evictions == 1

    def test_put_refreshes_recency(self):
        c = PlanCache(capacity=2)
        c.put("a", plan("a"))
        c.put("b", plan("b"))
        c.put("a", plan("a2"))  # rewrite refreshes
        c.put("c", plan("c"))   # evicts b, not a
        assert "a" in c and "b" not in c

    def test_capacity_bound_holds(self):
        c = PlanCache(capacity=3)
        for i in range(10):
            c.put(i, plan(str(i)))
        assert len(c) == 3
        assert c.evictions == 7


def get_or_compute(cache, key, compute):
    """The lookup ``Server._plan_for`` builds from ``get``/``put``:
    rank only on a miss, and cache whatever the ranking returned."""
    value = cache.get(key)
    if value is _MISSING:
        value = compute()
        cache.put(key, value)
    return value


class TestGetOrCompute:
    def test_computes_once(self):
        c = PlanCache(capacity=4)
        calls = []

        def compute():
            calls.append(1)
            return plan()

        assert get_or_compute(c, "k", compute).implementation == "cudnn"
        assert get_or_compute(c, "k", compute).implementation == "cudnn"
        assert len(calls) == 1
        assert (c.hits, c.misses) == (1, 1)

    def test_caches_none_result(self):
        c = PlanCache(capacity=4)
        calls = []

        def compute():
            calls.append(1)
            return None

        assert get_or_compute(c, "k", compute) is None
        assert get_or_compute(c, "k", compute) is None
        assert len(calls) == 1

    def test_stats_dict(self):
        c = PlanCache(capacity=4)
        get_or_compute(c, "k", plan)
        stats = c.stats()
        assert stats["entries"] == 1
        assert stats["misses"] == 1
        assert set(stats) == {"capacity", "entries", "hits", "misses",
                              "evictions", "corruptions", "hit_rate"}
