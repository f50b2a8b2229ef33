"""The serving layer's per-server caches.

:class:`PlanCache` — the plan tier.  Ranking the seven implementations
for one configuration means seven simulated profiles — fine offline,
far too slow per batch.  Since the ranking is a pure function of
``(shape, batch)`` on the server's one device, the cache memoizes the
advisor's ranking per key — a tuple of
:class:`~repro.core.advisor.RankedPlan`, fastest first, so the
resilient dispatcher can fall back down the same cached ordering —
with LRU eviction, and the batcher's power-of-two bucketing keeps the
key space tiny, so steady-state dispatch is a dictionary hit.  The
dispatch path looks a key up with :meth:`PlanCache.get` and, on a
miss, ranks and stores it with :meth:`PlanCache.put`.

The per-implementation evaluation records underneath a ranking live
in the process-wide :class:`~repro.core.evalcache.EvalCache` (the
advisor routes every ``evaluate`` through it), so a plan-cache miss
whose points were already touched by a figure pipeline — or by
another server — still skips the simulation and only re-ranks.  That
store is shared across devices, so its keys carry the device digest;
the caches here belong to one server and one device, so theirs do
not.

Infeasible configurations are cached too (as ``None``): re-discovering
"nothing fits" per batch would be the same wasted ranking.

:class:`DispatchMemo` — the allocation tier: the rounded buffer sizes
of one dispatch's memory plan, replayed through the allocator while
nothing observes it.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, Hashable, Optional, Tuple

from ..core.advisor import RankedPlan
from ..gpusim.allocator import ALLOC_GRANULARITY

#: Sentinel distinguishing "not cached" from a cached None (infeasible).
_MISSING = object()


class PlanCache:
    """LRU map from hashable plan keys to :class:`RankedPlan` (or
    ``None`` for cached infeasibility), with hit/miss/eviction
    counters."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Optional[RankedPlan]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corruptions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, key: Hashable):
        """Cached value or the module sentinel; counts hit/miss and
        refreshes recency on hit."""
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return _MISSING
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, plan: Optional[RankedPlan]) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = plan
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def corrupt(self, n: int) -> int:
        """Invalidate up to ``n`` entries, least recently used first.

        The fault-injection plane's "plan-cache corruption" event:
        dropping an entry is the safe model of corruption — the next
        dispatch of that key re-ranks (a miss) rather than executing a
        corrupted plan.  Eviction order is the LRU order, so the effect
        is deterministic.  Returns how many entries were dropped.
        """
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        dropped = 0
        while self._entries and dropped < n:
            self._entries.popitem(last=False)
            dropped += 1
        self.corruptions += dropped
        return dropped

    def stats(self) -> Dict[str, float]:
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "corruptions": self.corruptions,
            "hit_rate": self.hit_rate,
        }


class DispatchMemo:
    """Per-server memo of a batch's device memory plan.

    The dispatch loop re-derives the same memory plan —
    ``impl.memory_plan(config)`` plus per-buffer 512-byte rounding —
    for the same ``(shape, batch, implementation)`` point on every
    batch; a million-request run repeats a few dozen points hundreds
    of thousands of times.  This memo caches the *rounded* buffer
    sizes (and their sum) so a hit replays the allocation episode
    through
    :meth:`~repro.gpusim.allocator.DeviceAllocator.replay_transient`
    without touching the adapter or constructing buffers.

    The memory plan is a pure function of the implementation and the
    batched configuration, so the key is exactly that point: no
    device (each server owns its memo and serves one device) and no
    fault epoch (plan-cache corruption drops rankings, never changes
    a memory plan).  Entries change host wall-time only, never
    simulated time, stats or traces; the hit/miss counters stay out
    of the metrics registry so replay and real-buffer runs export
    byte-identical reports.
    """

    def __init__(self) -> None:
        self._store: Dict[tuple, Tuple[Tuple[int, ...], int]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "entries": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }

    def memory_plan(self, key: tuple, impl,
                    config) -> Tuple[Tuple[int, ...], int]:
        """``(rounded_sizes, total_rounded)`` for one dispatch point.

        ``key`` is ``(shape key, padded batch, implementation name)``;
        ``impl``/``config`` are only consulted on a miss.
        """
        entry = self._store.get(key)
        if entry is None:
            self.misses += 1
            # Identical rounding expression to DeviceAllocator.alloc().
            sizes = tuple(
                math.ceil(size / ALLOC_GRANULARITY) * ALLOC_GRANULARITY
                for _tag, size in impl.memory_plan(config) if size > 0)
            entry = self._store[key] = (sizes, sum(sizes))
        else:
            self.hits += 1
        return entry
