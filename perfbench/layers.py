"""Per-layer host-time attribution for the traced run.

The benchmark never edits the program: it wraps the public functions
and methods of each layer in place (:func:`timing`), runs one pass,
and restores the originals.  Every wrapped call is timed on a stack,
so a layer's *self* time is its inclusive time minus the time spent in
wrapped calls nested inside it.  The self times of all layers add up
to the inclusive time of the outermost wrapped calls; whatever part of
a pass no wrapped call covers is reported as ``bench.unattributed_s``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

#: (layer key, "module:Class" or "module", attribute).  A class target
#: also wraps every subclass that overrides the attribute; a module
#: target is patched in every loaded ``repro`` module that bound the
#: same function object under that name.
TIMED: Tuple[Tuple[str, str, str], ...] = (
    ("frameworks.kernel_plan", "repro.frameworks.base:ConvImplementation",
     "kernel_plan"),
    ("frameworks.memory_plan", "repro.frameworks.base:ConvImplementation",
     "memory_plan"),
    ("evalcache.evaluate", "repro.core.evalcache", "evaluate"),
    ("evalcache.compute_record", "repro.core.evalcache", "compute_record"),
    ("advisor.plan_ranked", "repro.core.advisor:Advisor", "plan_ranked"),
    ("figures.runtime_sweep", "repro.core.runtime_comparison",
     "runtime_sweep"),
    ("figures.memory_sweep", "repro.core.memory_comparison", "memory_sweep"),
    ("figures.gpu_metric_profile", "repro.core.gpu_metrics",
     "gpu_metric_profile"),
    ("loadgen.generate_trace", "repro.serve.loadgen", "generate_trace"),
    ("queue.offer", "repro.serve.queue:AdmissionQueue", "offer"),
    ("queue.shed_expired", "repro.serve.queue:AdmissionQueue",
     "shed_expired"),
    ("batcher.next_batch", "repro.serve.batcher:DynamicBatcher",
     "next_batch"),
    ("allocator.replay_transient", "repro.gpusim.allocator:DeviceAllocator",
     "replay_transient"),
    ("stats.record_dispatch", "repro.serve.stats:ServingStats",
     "record_dispatch"),
    ("stats.finalize", "repro.serve.stats:ServingStats", "finalize"),
    ("scheduler.run", "repro.serve.scheduler:Server", "run"),
    ("faults.check_launch", "repro.faults.injector:FaultInjector",
     "check_launch"),
    ("cluster.run", "repro.cluster.fleet:Cluster", "run"),
    ("router.route", "repro.cluster.router:Router", "route"),
    ("replica.poll", "repro.cluster.replica:Replica", "poll"),
    ("health.poll", "repro.cluster.health:HealthPlane", "poll"),
    ("obs.rollups.poll", "repro.obs.timeseries:Rollups", "poll"),
    ("obs.export_jsonl", "repro.obs.export", "cluster_jsonl_lines"),
    ("obs.analyze", "repro.obs.analyze", "parse_jsonl"),
    ("obs.analyze", "repro.obs.analyze", "analyze_run"),
)

#: The benchmark's definition: workload names and the metrics, with
#: units, that ``run.py`` prints.
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def benchmark_spec() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def per_layer_names() -> List[str]:
    """Every per-layer metric the traced run reports, in print order.
    A layer that does no work on a workload reports zero calls and time."""
    return [m["name"] for m in benchmark_spec()["per_layer"]]


class LayerClock:
    """Calls, self time and inclusive time per layer key."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []        # [key, time in wrapped children]

    def wrap(self, key: str, fn: Callable) -> Callable:
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        perf = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if stack and stack[-1][0] == key:
                # Direct recursion (or a subclass calling its base's
                # override): one call of this layer, not two.
                return fn(*args, **kwargs)
            frame = [key, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                stack.pop()
                calls[key] += 1
                self_s[key] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return timed

    def attributed_s(self) -> float:
        return sum(self.self_s.values())


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    module = importlib.import_module(module_name)
    return module, (getattr(module, class_name) if class_name else None)


def _subclasses(cls) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def _patches(key: str, target: str, attr: str):
    """Every (owner, attribute, original) one TIMED row replaces."""
    module, cls = _resolve(target)
    if cls is not None:
        for owner in _subclasses(cls):
            if attr in owner.__dict__:
                yield owner, attr, owner.__dict__[attr]
        return
    original = getattr(module, attr)
    for name, mod in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and \
                getattr(mod, attr, None) is original:
            yield mod, attr, original


@contextlib.contextmanager
def timing(clock: LayerClock):
    """Wrap every TIMED target for the duration of the block."""
    importlib.import_module("repro.frameworks.registry")  # load all impls
    applied = []
    try:
        for key, target, attr in TIMED:
            for owner, name, original in list(_patches(key, target, attr)):
                setattr(owner, name, clock.wrap(key, original))
                applied.append((owner, name, original))
        yield clock
    finally:
        for owner, name, original in reversed(applied):
            setattr(owner, name, original)
