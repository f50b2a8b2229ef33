"""Shared analytic-evaluation cache.

Every consumer of the performance model — the Fig. 3 runtime sweeps,
the Fig. 5 memory sweeps, the Fig. 6 metric profiles, the advisor and
the serving scheduler — needs the same pure derivation per
``(implementation, configuration, device)`` point: kernel plan →
occupancy → roofline timing → peak memory → profiler metrics.  Before
this module each pipeline re-derived it privately (and PR 1's serving
plan cache memoized only its own rankings), so a full study evaluated
identical points many times over.

:func:`evaluate` is the single entry point.  It returns an
:class:`EvalRecord` — the complete analytic evaluation, content-
addressed by :func:`cache_key` over the implementation name, every
:class:`~repro.config.ConvConfig` field and the device identity — from
the process-wide in-memory :class:`EvalCache` (hit) or by running the
model once (miss).  Records are plain frozen values, rich enough to
answer every downstream question (runtime, peak memory/OOM, per-kernel
timings, runtime-weighted Fig. 6 metric summaries) without touching
the model again.

Thread safety: the cache takes a lock around its dictionary, and the
underlying model layers are either pure or memoized with thread-safe
``lru_cache``, so threads may evaluate concurrently.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from ..config import ConvConfig
from ..errors import DeviceOOMError
from ..frameworks.base import ConvImplementation
from ..gpusim.device import DEVICES, DeviceSpec, K40C, spec_digest
from ..gpusim.metrics import MetricSummary, weighted_summary
from ..gpusim.timing import KernelTiming
from ..obs.context import get_obs


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalRecord:
    """The full analytic evaluation of one (implementation, config,
    device) point."""

    implementation: str          # registry name, e.g. "cudnn"
    paper_name: str              # figure label, e.g. "cuDNN"
    config: ConvConfig
    device: str
    supported: bool
    #: Total simulated training-iteration time (None if unsupported).
    time_s: Optional[float]
    gpu_time_s: Optional[float]
    transfer_time_s: Optional[float]
    exposed_transfer_s: Optional[float]
    #: Peak device footprint (None if unsupported or OOM).
    peak_memory_bytes: Optional[int]
    oom: bool
    #: requested + in-use bytes at the OOM, when ``oom`` is True.
    oom_bytes: Optional[int]
    #: Per-kernel rows: the profiler's own ``KernelTiming`` objects,
    #: shared not copied.
    kernels: Tuple[KernelTiming, ...]

    def summary(self, top_n: Optional[int] = None) -> MetricSummary:
        """Runtime-weighted Fig. 6 metric estimate, recomputed from the
        cached per-kernel rows (any ``top_n``)."""
        if not self.kernels:
            raise ValueError(
                f"no kernel records for {self.implementation} (unsupported?)")
        return weighted_summary(self.kernels, top_n=top_n)


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------

def config_key(config: ConvConfig) -> str:
    """Canonical content key of one configuration: every field, in a
    fixed order, so equal-but-distinct instances key identically."""
    return (f"b{config.batch}.i{config.input_size}.f{config.filters}"
            f".k{config.kernel_size}.s{config.stride}"
            f".c{config.channels}.p{config.padding}")


def device_key(device: Union[DeviceSpec, str]) -> str:
    """Cache-key component naming a device *identity*, not a label.

    ``name@digest``, with the digest covering every spec field
    (:func:`~repro.gpusim.device.spec_digest`).  Two profiles that
    model different hardware under the same display name therefore key
    differently, so a record computed on one can never serve the other
    — the cross-device isolation the devices subsystem relies on.  A
    bare name resolves through the catalogue
    (:data:`~repro.gpusim.device.DEVICES`) so spec and string spellings
    of the same device stay interchangeable; an unknown label has no
    spec to digest and keys on the label alone.
    """
    if not isinstance(device, DeviceSpec):
        spec = DEVICES.get(device)
        if spec is None:
            return device
        device = spec
    return f"{device.name}@{spec_digest(device)}"


def cache_key(implementation: str, config: ConvConfig,
              device: Union[DeviceSpec, str]) -> str:
    """Content-addressed key of one evaluation point."""
    return f"{implementation}|{config_key(config)}|{device_key(device)}"


# ---------------------------------------------------------------------------
# the model run (cache-miss path)
# ---------------------------------------------------------------------------

def compute_record(impl: ConvImplementation, config: ConvConfig,
                   device: DeviceSpec = K40C) -> EvalRecord:
    """Run the analytic model once and freeze the result (no cache)."""
    if not impl.supports(config):
        return EvalRecord(
            implementation=impl.name, paper_name=impl.paper_name,
            config=config, device=device.name, supported=False,
            time_s=None, gpu_time_s=None, transfer_time_s=None,
            exposed_transfer_s=None, peak_memory_bytes=None,
            oom=False, oom_bytes=None, kernels=())
    profile = impl.profile_iteration(config, device)
    kernels = tuple(profile.profiler.timings())
    try:
        peak: Optional[int] = impl.peak_memory_bytes(config, device)
        oom, oom_bytes = False, None
    except DeviceOOMError as e:
        peak, oom, oom_bytes = None, True, e.requested + e.in_use
    return EvalRecord(
        implementation=impl.name, paper_name=impl.paper_name,
        config=config, device=device.name, supported=True,
        time_s=profile.total_time_s, gpu_time_s=profile.gpu_time_s,
        transfer_time_s=profile.transfer_time_s,
        exposed_transfer_s=profile.exposed_transfer_s,
        peak_memory_bytes=peak, oom=oom, oom_bytes=oom_bytes,
        kernels=kernels)


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------

class EvalCache:
    """Process-wide content-addressed store of :class:`EvalRecord`.

    Unbounded by design: the paper's whole sweep space is a few hundred
    points and a record is ~2 kB, so eviction would only cost rework.
    """

    def __init__(self):
        self._store: Dict[str, EvalRecord] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    # -- bookkeeping -------------------------------------------------------

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

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0

    # -- storage -----------------------------------------------------------

    def get(self, key: str) -> Optional[EvalRecord]:
        """Record for ``key`` or None; counts a hit or a miss."""
        with self._lock:
            record = self._store.get(key)
            if record is None:
                self.misses += 1
            else:
                self.hits += 1
            return record

    def put(self, record: EvalRecord, key: str) -> None:
        with self._lock:
            self._store[key] = record


# ---------------------------------------------------------------------------
# process-wide default + entry point
# ---------------------------------------------------------------------------

_default_cache = EvalCache()
_default_lock = threading.Lock()


def get_cache() -> EvalCache:
    """The process-wide shared cache."""
    return _default_cache


def set_cache(cache: EvalCache) -> EvalCache:
    """Swap the process-wide cache (returns the previous one)."""
    global _default_cache
    with _default_lock:
        previous = _default_cache
        _default_cache = cache
        return previous


def reset_cache() -> None:
    """Drop every record and counter in the process-wide cache."""
    _default_cache.clear()


#: ``cache=DISABLED`` bypasses caching entirely (every call recomputes).
DISABLED = False

#: What pipeline functions accept: the shared default (None), a
#: specific cache instance, or DISABLED.
CacheArg = Union[None, EvalCache, bool]


_REGISTRY_CLASSES: Optional[frozenset] = None


def cacheable(impl: ConvImplementation, device: DeviceSpec) -> bool:
    """Whether a point may enter the shared store.

    Keys are *names*, so only the seven registry implementations and
    the catalogued devices are content-addressable.  A test double
    named ``"cudnn"`` or an ad-hoc :class:`DeviceSpec` reusing a
    catalogue name would poison the store for every other consumer —
    such points are computed directly instead.
    """
    global _REGISTRY_CLASSES
    if _REGISTRY_CLASSES is None:
        from ..frameworks.registry import IMPLEMENTATION_CLASSES
        _REGISTRY_CLASSES = frozenset(IMPLEMENTATION_CLASSES)
    if type(impl) not in _REGISTRY_CLASSES:
        return False
    known = DEVICES.get(device.name)
    return known is device or known == device


def evaluate(impl: ConvImplementation, config: ConvConfig,
             device: DeviceSpec = K40C,
             cache: CacheArg = None) -> EvalRecord:
    """Evaluate one point through the shared cache.

    ``cache``: None → the process-wide cache; an :class:`EvalCache` →
    that instance; :data:`DISABLED` → compute without caching.
    Uncacheable points (see :func:`cacheable`) always compute.

    Every call reports into the active observability context
    (:mod:`repro.obs`): an ``evalcache.evaluate`` span and one tick of
    ``evalcache_requests_total{result="hit"|"miss"|"uncached"}``,
    labeled with the device *identity* (``device="name@digest"``) so
    mixed-fleet telemetry rollups split cache traffic per device class.
    """
    if cache is None:
        cache = get_cache()
    obs = get_obs()
    with obs.tracer.span("evalcache.evaluate", cat="evalcache",
                         implementation=impl.name) as sp:
        if cache is DISABLED or not cacheable(impl, device):
            result = "uncached"
            record = compute_record(impl, config, device)
        else:
            key = cache_key(impl.name, config, device)
            record = cache.get(key)
            result = "hit" if record is not None else "miss"
            if record is None:
                record = compute_record(impl, config, device)
                cache.put(record, key)
        sp.annotate(result=result, config=config_key(config),
                    time_s=record.time_s)
    obs.registry.counter("evalcache_requests_total", result=result,
                         device=device_key(device)).inc()
    return record
