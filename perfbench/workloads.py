"""The three benchmark workloads.

Each workload builds its inputs from the seed alone (a config grid or
an arrival trace), sets itself up once, and then runs *passes*: one
pass is the whole unit of work whose host time is measured.  A pass
returns its work count, the sha256 of its deterministic output, the
report identities it violated, and the counters the per-layer metrics
are derived from.

The program is called through module attributes (``loadgen.
generate_trace(...)``, not a ``from`` import) so that the traced run's
wrappers in :mod:`layers` see every call.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster import fleet as cluster_fleet
from repro.cluster import health as cluster_health
from repro.cluster.report import aggregate_shed_causes
from repro.config import SWEEPS, TABLE1_CONFIGS, sweep_configs
from repro.core import advisor as core_advisor
from repro.core import evalcache, gpu_metrics, memory_comparison
from repro.core import runtime_comparison
from repro.devices import default_registry
from repro.faults import named_fleet_plan
from repro.frameworks.registry import shared_implementations
from repro.gpusim import memo
from repro.obs import analyze, export
from repro.obs.timeseries import TelemetryConfig
from repro.serve import loadgen, scheduler
from repro.serve.request import batched_config, shape_key

#: The seed whose output digests are recorded in :data:`EXPECTED`.
DEFAULT_SEED = 1

#: sha256 of each workload's pass output at :data:`DEFAULT_SEED`.
#: Any other seed is checked for byte identity across its own passes.
EXPECTED: Dict[str, str] = {
    "model-cold":
        "a510118da724204b5cd265698ebe511c5f31c8f2c31c4b7b4c02c4aeca01b452",
    "serve-steady":
        "f65f24fb85ca02d65a5e57ae7ac1302a009d96c286272ce41ad99baa53752c5f",
    "cluster-chaos":
        "68c0c3d3b06f4b4c21f6cfb198e6d9aec25c67349d731f2ccfcb7fd712f836d2",
}

#: Causes under which a fleet request is dropped but completes (or is
#: dropped) elsewhere under another cause: not terminal outcomes.
NON_TERMINAL_CAUSES = ("requeued", "hedge_cancelled")

#: Batch sizes drawn per serving shape and device on model-cold.
PLAN_BATCHES = 7


@dataclass
class PassResult:
    """What one pass did and produced."""

    units: int
    wall_s: float
    digest: str
    violations: List[str]
    #: Units that ended in an unhandled error.
    failed_units: int = 0
    #: sha256 of the simulated report alone, where ``digest`` also
    #: covers derived artifacts (the trace analysis).
    report_digest: str = ""
    #: Host seconds of the pass's consecutive phases (generate, run,
    #: export, ...); together they cover ``wall_s``.
    phases: Dict[str, float] = field(default_factory=dict)
    #: Simulated statistics and cache counters of the pass.
    counters: Dict[str, float] = field(default_factory=dict)


def sha256_json(*docs) -> str:
    h = hashlib.sha256()
    for doc in docs:
        h.update(json.dumps(doc, sort_keys=True).encode())
    return h.hexdigest()


def cache_counters() -> Dict[str, float]:
    """Cumulative gpusim-memo and evaluation-cache traffic."""
    memo_stats = memo.stats().values()
    cache = evalcache.get_cache().stats()
    return {"memo_hits": sum(s["hits"] for s in memo_stats),
            "memo_misses": sum(s["misses"] for s in memo_stats),
            "eval_hits": cache["hits"], "eval_misses": cache["misses"]}


def _delta(before: Dict[str, float], after: Dict[str, float]):
    return {k: after[k] - before[k] for k in before}


def serving_shapes() -> List[Tuple[int, ...]]:
    """Every distinct layer shape the traffic generator can request."""
    return sorted({shape_key(config) for layers in loadgen.MODEL_SHAPES.values()
                   for _, config in layers})


def conservation_violations(offered: int, completed: int, rejected: int,
                            causes: Dict[str, int]) -> List[str]:
    """offered = completed + sum(shed_by_cause) + rejected, where the
    ``queue_full`` cause is the rejected count itself (so it is taken
    out of the sum) and fleet re-routing causes are not terminal."""
    out = []
    if causes.get("queue_full", 0) != rejected:
        out.append(f"queue_full {causes.get('queue_full', 0)} != "
                   f"rejected {rejected}")
    shed = sum(n for cause, n in causes.items()
               if cause != "queue_full" and cause not in NON_TERMINAL_CAUSES)
    if offered != completed + shed + rejected:
        out.append(f"offered {offered} != completed {completed} + "
                   f"shed {shed} + rejected {rejected}")
    return out


class ModelCold:
    """Cold model path: the paper's figure pipelines on every device
    profile, then advisor ranking of every serving shape."""

    name = "model-cold"
    unit = "evaluation points"
    throughput = "points_per_s"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        #: (shape, batch sizes) — PLAN_BATCHES distinct sizes in 1..64.
        self.grid = [(key, sorted(rng.sample(range(1, 65), PLAN_BATCHES)))
                     for key in serving_shapes()]
        self.devices = []

    def setup(self) -> None:
        registry = default_registry()
        self.devices = [registry.get(name).spec for name in registry.names()]
        self.impls = len(shared_implementations())

    @property
    def points_per_device(self) -> int:
        sweeps = sum(len(sweep_configs(name)) for name in SWEEPS)
        plans = sum(len(batches) for _, batches in self.grid)
        return self.impls * (2 * sweeps + len(TABLE1_CONFIGS) + plans)

    def run_pass(self) -> PassResult:
        memo.clear_all()
        evalcache.reset_cache()
        before = cache_counters()
        parts: List[str] = []
        phases: Dict[str, float] = {}
        t0 = time.perf_counter()
        for device in self.devices:
            for stage in ("runtime", "memory", "metrics", "plans"):
                start = time.perf_counter()
                parts += self._render(stage, device)
                phases[f"{device.name}:{stage}"] = time.perf_counter() - start
        wall = time.perf_counter() - t0
        return PassResult(
            units=self.points_per_device * len(self.devices), wall_s=wall,
            digest=sha256_json(parts), violations=[], phases=phases,
            counters=_delta(before, cache_counters()))

    def _render(self, stage: str, device) -> List[str]:
        if stage == "runtime":
            return [runtime_comparison.runtime_sweep(sweep, device=device)
                    .render() for sweep in SWEEPS]
        if stage == "memory":
            return [memory_comparison.memory_sweep(sweep, device=device)
                    .render() for sweep in SWEEPS]
        if stage == "metrics":
            return [gpu_metrics.render_metric_rows(
                gpu_metrics.gpu_metric_profile(device=device))]
        advisor = core_advisor.Advisor(
            device=device, implementations=shared_implementations())
        return [repr(advisor.plan_ranked(batched_config(key, batch)))
                for key, batches in self.grid for batch in batches]


class ServeSteady:
    """One default server under a saturating open-loop Poisson trace."""

    name = "serve-steady"
    unit = "simulated arrivals"
    throughput = "arrivals_per_s"
    rate_rps = 6000.0
    duration_s = 4.0

    def __init__(self, seed: int):
        self.spec = loadgen.TrafficSpec(duration_s=self.duration_s,
                                        rate_rps=self.rate_rps, seed=seed)
        self.config = scheduler.ServerConfig()

    def setup(self) -> None:
        default_registry()
        shared_implementations()
        self.run_pass()                     # warm-up: fills the caches

    def run_pass(self) -> PassResult:
        before = cache_counters()
        t0 = time.perf_counter()
        trace = loadgen.generate_trace(self.spec)
        t1 = time.perf_counter()
        server = scheduler.Server(self.config)
        report = server.run(trace)
        t2 = time.perf_counter()
        counters = _delta(before, cache_counters())
        counters.update(_serving_counters([report]))
        memo_stats = server.dispatch_memo_stats() or {}
        counters["dispatch_hits"] = memo_stats.get("hits", 0)
        counters["dispatch_misses"] = memo_stats.get("misses", 0)
        violations = conservation_violations(
            report.offered, report.completed, report.rejected,
            report.shed_by_cause)
        if report.unhandled_errors:
            violations.append(f"unhandled_errors {report.unhandled_errors}")
        return PassResult(
            units=len(trace), wall_s=t2 - t0,
            digest=sha256_json(report.to_dict()), violations=violations,
            failed_units=report.shed_by_cause.get("error", 0),
            phases={"generate_s": t1 - t0, "run_s": t2 - t1},
            counters=counters)


def _serving_counters(reports) -> Dict[str, float]:
    """Simulated statistics summed over one or more server reports."""
    batches = sum(sum(r.batch_histogram.values()) for r in reports)
    return {
        "batches": batches,
        "filled": sum(r.mean_batch_fill * sum(r.batch_histogram.values())
                      for r in reports),
        "padded": sum(size * n for r in reports
                      for size, n in r.batch_histogram.items()),
        "rejected": sum(r.rejected for r in reports),
        "plan_hits": sum(r.plan_cache.get("hits", 0) for r in reports),
        "plan_misses": sum(r.plan_cache.get("misses", 0) for r in reports),
        "faults_injected": sum(r.faults_injected for r in reports),
    }


class ClusterChaos:
    """A 4-replica p2c fleet under the fleet-chaos plan, with the
    health plane, hedging, telemetry rollups and full tracing, followed
    by JSONL export and trace analysis."""

    name = "cluster-chaos"
    unit = "simulated arrivals"
    throughput = "arrivals_per_s"
    rate_rps = 4000.0
    duration_s = 1.5
    replicas = 4

    def __init__(self, seed: int):
        self.spec = loadgen.TrafficSpec(duration_s=self.duration_s,
                                        rate_rps=self.rate_rps, seed=seed)
        self.config = cluster_fleet.ClusterConfig(
            replicas=self.replicas, policy="p2c", seed=seed,
            health=cluster_health.HealthConfig(hedge_after_s=0.05),
            fleet_fault_plan=named_fleet_plan(
                "fleet-chaos", duration_s=self.duration_s,
                replicas=self.replicas),
            telemetry=TelemetryConfig(window_s=0.1))

    def setup(self) -> None:
        default_registry()
        shared_implementations()
        # Warm-up: fills the caches.  Tracing, export and analysis keep
        # no cache, so the warm-up leaves them out; a traced pass after
        # it misses neither the evaluation cache nor the gpusim memo.
        self.run_side_pass()

    def run_side_pass(self) -> PassResult:
        """The pass with the program's tracing off and no export or
        analysis: its run time against a traced pass prices the spans."""
        return self.run_pass(traced=False)

    def run_pass(self, traced: bool = True) -> PassResult:
        before = cache_counters()
        t0 = time.perf_counter()
        trace = loadgen.generate_trace(self.spec)
        t1 = time.perf_counter()
        cluster = cluster_fleet.Cluster(self.config)
        if traced:
            cluster.enable_tracing()
        report = cluster.run(trace)
        t2 = time.perf_counter()
        phases = {"generate_s": t1 - t0, "run_s": t2 - t1}
        analysis = None
        if traced:
            lines = export.cluster_jsonl_lines(cluster.obs.tracer,
                                               cluster.replica_tracers)
            t3 = time.perf_counter()
            analysis = analyze.analyze_run(analyze.parse_jsonl(lines))
            t4 = time.perf_counter()
            phases.update(export_s=t3 - t2, analyze_s=t4 - t3)
        wall = time.perf_counter() - t0
        docs = [report.to_dict()]
        violations = []
        spans = 0
        if analysis is not None:
            docs.append(analysis.to_dict())
            spans = cluster.obs.tracer.span_count() + sum(
                tracer.span_count() for _, tracer in cluster.replica_tracers)
            if analysis.span_count != spans:
                violations.append(f"analyzed {analysis.span_count} spans "
                                  f"of {spans} recorded")
        servers = [r.report for r in report.replicas]
        counters = _delta(before, cache_counters())
        counters.update(_serving_counters(servers))
        dispatch = [r.server.dispatch_memo_stats() or {}
                    for r in cluster.replicas]
        counters["dispatch_hits"] = sum(d.get("hits", 0) for d in dispatch)
        counters["dispatch_misses"] = sum(d.get("misses", 0)
                                          for d in dispatch)
        health = report.health
        counters.update(spans=spans, hedges_issued=health["hedges_issued"],
                        restarts=health["restarts"])
        counters["faults_injected"] += health["crashes"]
        causes = aggregate_shed_causes(report)
        violations += conservation_violations(
            report.offered, report.completed,
            sum(s.rejected for s in servers), causes)
        if health["crashes"] != (health["restarts"] + health["restarts_pending"]
                                 + health["restarts_denied"]):
            violations.append("crashes != restarts + pending + denied")
        if health["hedges_issued"] != (health["hedge_wins"]
                                       + health["hedge_cancels"]):
            violations.append("hedges_issued != hedge_wins + hedge_cancels")
        unhandled = sum(s.unhandled_errors for s in servers)
        if unhandled:
            violations.append(f"unhandled_errors {unhandled}")
        return PassResult(
            units=len(trace), wall_s=wall, digest=sha256_json(*docs),
            report_digest=sha256_json(docs[0]),
            violations=violations, failed_units=causes.get("error", 0),
            phases=phases, counters=counters)


WORKLOADS = {cls.name: cls for cls in (ModelCold, ServeSteady, ClusterChaos)}


def expected_digest(workload: str, seed: int) -> Optional[str]:
    """The digest every pass must produce, or None when the seed has
    no recorded digest (passes are then checked against each other)."""
    return EXPECTED[workload] if seed == DEFAULT_SEED else None
