"""Frozen end-of-run fleet report.

The cluster's analogue of :class:`~repro.serve.stats.StatsReport`: one
:class:`ReplicaSummary` per fleet member (wrapping that replica's own
frozen report) plus fleet-level aggregates.  Fleet latency percentiles
are *exact* — computed over every completion's latency, not merged
from per-replica percentiles, which would be wrong — and ``offered``
counts trace arrivals, not the sum of per-replica offers: a requeued
request is offered to two replicas but arrived once, so the per-replica
numbers legitimately add up to more than the fleet's.

Everything is plain data with a sorted, stable :meth:`to_dict` — two
same-seed runs serialize byte-identically, which is what the CLI
``--json`` determinism checks (and the CI ``cluster-smoke`` job) diff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..errors import ReportSchemaError
from ..serve.stats import (StatsReport, doc_count, doc_counts, doc_numbers,
                           doc_object, doc_real, merge_shed_causes)


def _sorted_doc(doc: Optional[dict]) -> Optional[dict]:
    """Recursively key-sort a plain dict so serialization is stable
    regardless of the insertion order the producer happened to use."""
    if doc is None:
        return None
    return {k: (_sorted_doc(v) if isinstance(v, dict) else v)
            for k, v in sorted(doc.items())}


@dataclass(frozen=True)
class ReplicaSummary:
    """One fleet member's lifecycle plus its frozen serving report.

    ``slot`` is the fleet position the replica occupied (a supervisor
    replacement inherits its predecessor's slot under a fresh
    ``index``) and ``incarnation`` counts restarts in that slot — 0
    for every original member.
    """

    index: int
    name: str
    started_s: float
    retired_s: Optional[float]
    outcome: str        # 'ran' | 'drained' | 'killed' | 'crashed' | 'evicted'
    routed: int                   # requests the router sent here
    report: StatsReport
    slot: int = -1                # -1: pre-health report (slot == index)
    incarnation: int = 0
    #: Device display name — set only on heterogeneous fleets (None on
    #: homogeneous ones, keeping their serialized reports byte-identical
    #: to pre-devices builds).
    device: Optional[str] = None

    def to_dict(self) -> dict:
        doc = {
            "index": self.index,
            "name": self.name,
            "slot": self.slot if self.slot >= 0 else self.index,
            "incarnation": self.incarnation,
            "started_s": self.started_s,
            "retired_s": self.retired_s,
            "outcome": self.outcome,
            "routed": self.routed,
            "report": self.report.to_dict(),
        }
        if self.device is not None:
            doc["device"] = self.device
        return doc

    @classmethod
    def from_dict(cls, doc: dict, where: str = "ReplicaSummary"
                  ) -> "ReplicaSummary":
        """Rebuild from :meth:`to_dict` output, tolerating documents
        written before ``slot``/``incarnation`` existed; malformed ones
        raise :class:`~repro.errors.ReportSchemaError`."""
        doc = doc_object(doc, "document", where)
        index = doc_count(doc, "index", where)
        retired_s = doc.get("retired_s")
        return cls(
            index=index,
            name=doc.get("name", f"replica{index}"),
            started_s=float(doc_real(doc, "started_s", where)),
            retired_s=(None if retired_s is None
                       else doc_real(doc, "retired_s", where)),
            outcome=doc.get("outcome", "ran"),
            routed=doc_count(doc, "routed", where),
            report=StatsReport.from_dict(doc.get("report", {}),
                                         f"{where}: report"),
            slot=doc_count(doc, "slot", where, default=index),
            incarnation=doc_count(doc, "incarnation", where),
            device=doc.get("device"),
        )


@dataclass(frozen=True)
class ClusterReport:
    """Frozen end-of-run fleet metrics."""

    policy: str
    duration_s: float             # fleet makespan (max replica clock)
    offered: int                  # trace arrivals (not per-replica sums)
    completed: int
    requeued: int                 # drain/kill evacuations, re-routed
    no_replica_shed: int          # arrivals with the whole fleet down
    throughput_rps: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    replicas_started: int
    replicas_peak: int            # max concurrently-routable replicas
    replicas_final: int           # routable when the run ended
    scale_ups: int
    drains: int
    kills: int
    slo_violations: int
    slo_recoveries: int
    #: Whether any SLO rule was still in violation when the run ended
    #: (None: no SLO policy attached).  The CI recovery gate asserts
    #: violations > 0, recoveries > 0 and this False.
    slo_in_violation: Optional[bool]
    plan_cache: Dict[str, float]  # fleet-aggregated hits/misses/hit_rate
    replicas: Tuple[ReplicaSummary, ...]
    autoscale_actions: Tuple[dict, ...]
    #: Fleet-level sheds by cause — losses the *routing layer* (not any
    #: one replica) is responsible for: ``no_replica``,
    #: ``retry_budget_exhausted``.  Per-replica causes (``timeout``,
    #: ``hedge_cancelled``, …) live in each replica's report; an open
    #: set — see :data:`repro.serve.stats.SHED_CAUSES`.
    shed_by_cause: Dict[str, int] = field(default_factory=dict)
    #: Self-healing scorecard from the health plane (None: no health
    #: plane attached) — probes, detections, evictions, restarts,
    #: hedging and retry-budget counters; see
    #: :meth:`repro.cluster.health.HealthPlane.scorecard`.
    health: Optional[dict] = None
    #: Live-telemetry summary (None: no telemetry plane attached) —
    #: rollup window counts, incident bundle index and per-rule alert
    #: state; see :meth:`repro.cluster.telemetry.FleetTelemetry.report`.
    #: Emitted conditionally so telemetry-off reports stay
    #: byte-identical to pre-telemetry builds.
    telemetry: Optional[dict] = None

    @property
    def completion_rate(self) -> float:
        return self.completed / self.offered if self.offered else 0.0

    @property
    def routed_by_replica(self) -> Dict[int, int]:
        return {r.index: r.routed for r in self.replicas}

    def to_dict(self) -> dict:
        """JSON-ready form (``--json`` output); stable key order.

        The ``telemetry`` key appears only when the plane was attached:
        a telemetry-on run's report equals the telemetry-off run's
        report plus that one key (CI's ``telemetry-smoke`` diffs this).
        """
        doc = {
            "policy": self.policy,
            "duration_s": self.duration_s,
            "offered": self.offered,
            "completed": self.completed,
            "completion_rate": self.completion_rate,
            "requeued": self.requeued,
            "no_replica_shed": self.no_replica_shed,
            "throughput_rps": self.throughput_rps,
            "latency_ms": {
                "p50": self.latency_p50_ms,
                "p95": self.latency_p95_ms,
                "p99": self.latency_p99_ms,
            },
            "replicas_started": self.replicas_started,
            "replicas_peak": self.replicas_peak,
            "replicas_final": self.replicas_final,
            "autoscaler": {
                "scale_ups": self.scale_ups,
                "drains": self.drains,
                "actions": list(self.autoscale_actions),
            },
            "kills": self.kills,
            "slo": {
                "violations": self.slo_violations,
                "recoveries": self.slo_recoveries,
                "in_violation": self.slo_in_violation,
            },
            "plan_cache": dict(sorted(self.plan_cache.items())),
            "shed_by_cause": dict(sorted(self.shed_by_cause.items())),
            "health": _sorted_doc(self.health),
            "replicas": [r.to_dict() for r in self.replicas],
        }
        if self.telemetry is not None:
            doc["telemetry"] = _sorted_doc(self.telemetry)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ClusterReport":
        """Rebuild from :meth:`to_dict` output.

        Tolerant by construction: every field defaults when absent, so
        reports archived before the health plane (no ``shed_by_cause``
        / ``health`` / ``slot`` keys) load cleanly, and unknown shed
        causes are carried verbatim rather than validated against a
        closed taxonomy.  A document or section that is not an object,
        or a counter that is not a number, raises
        :class:`~repro.errors.ReportSchemaError` naming it.
        """
        where = "ClusterReport"
        doc = doc_object(doc, "document", where)
        latency = doc_object(doc.get("latency_ms", {}), "latency_ms", where)
        autoscaler = doc_object(doc.get("autoscaler", {}), "autoscaler",
                                where)
        slo = doc_object(doc.get("slo", {}), "slo", where)
        replicas = doc.get("replicas", [])
        actions = autoscaler.get("actions", [])
        for name, value in (("replicas", replicas),
                            ("autoscaler.actions", actions)):
            if not isinstance(value, (list, tuple)):
                raise ReportSchemaError(f"{where}: {name} must be a JSON "
                                        f"array, got {type(value).__name__}")
        for name in ("health", "telemetry"):
            if doc.get(name) is not None:
                doc_object(doc[name], name, where)
        return cls(
            policy=doc.get("policy", "round-robin"),
            duration_s=float(doc_real(doc, "duration_s", where)),
            offered=doc_count(doc, "offered", where),
            completed=doc_count(doc, "completed", where),
            requeued=doc_count(doc, "requeued", where),
            no_replica_shed=doc_count(doc, "no_replica_shed", where),
            throughput_rps=float(doc_real(doc, "throughput_rps", where)),
            latency_p50_ms=float(doc_real(latency, "p50",
                                          f"{where}: latency_ms")),
            latency_p95_ms=float(doc_real(latency, "p95",
                                          f"{where}: latency_ms")),
            latency_p99_ms=float(doc_real(latency, "p99",
                                          f"{where}: latency_ms")),
            replicas_started=doc_count(doc, "replicas_started", where),
            replicas_peak=doc_count(doc, "replicas_peak", where),
            replicas_final=doc_count(doc, "replicas_final", where),
            scale_ups=doc_count(autoscaler, "scale_ups",
                                f"{where}: autoscaler"),
            drains=doc_count(autoscaler, "drains", f"{where}: autoscaler"),
            kills=doc_count(doc, "kills", where),
            slo_violations=doc_count(slo, "violations", f"{where}: slo"),
            slo_recoveries=doc_count(slo, "recoveries", f"{where}: slo"),
            slo_in_violation=slo.get("in_violation"),
            plan_cache=doc_numbers(doc.get("plan_cache", {}), "plan_cache",
                                   where),
            replicas=tuple(ReplicaSummary.from_dict(
                r, f"{where}: replicas[{i}]") for i, r in enumerate(replicas)),
            autoscale_actions=tuple(actions),
            shed_by_cause=doc_counts(doc.get("shed_by_cause", {}),
                                     "shed_by_cause", where),
            health=doc.get("health"),
            telemetry=doc.get("telemetry"),
        )

    def render(self) -> str:
        lines = [
            f"cluster: {self.replicas_started} replica(s) started, "
            f"{self.replicas_final} routable at end "
            f"(peak {self.replicas_peak}), policy {self.policy}",
            f"simulated duration    {self.duration_s:10.3f} s",
            f"offered / completed   {self.offered} / {self.completed}"
            f"  (completion rate {self.completion_rate * 100:.1f} %)",
            f"throughput            {self.throughput_rps:10.1f} req/s",
            f"latency p50/p95/p99   {self.latency_p50_ms:.2f} / "
            f"{self.latency_p95_ms:.2f} / {self.latency_p99_ms:.2f} ms",
            f"plan cache (fleet)    {int(self.plan_cache['hits'])} hits / "
            f"{int(self.plan_cache['misses'])} misses "
            f"(hit rate {self.plan_cache['hit_rate'] * 100:.1f} %)",
            "routed per replica    " + " ".join(
                f"{r.index}:{r.routed}" for r in self.replicas),
        ]
        if self.requeued or self.no_replica_shed:
            lines.append(f"requeued / no-replica {self.requeued} / "
                         f"{self.no_replica_shed}")
        if self.scale_ups or self.drains or self.kills:
            lines.append(f"scale ups / drains    {self.scale_ups} / "
                         f"{self.drains}" +
                         (f"  (kills {self.kills})" if self.kills else ""))
        if self.slo_in_violation is not None:
            state = "IN VIOLATION" if self.slo_in_violation else "ok"
            lines.append(f"slo                   {self.slo_violations} "
                         f"violation(s), {self.slo_recoveries} "
                         f"recovery(ies), end state {state}")
        if self.shed_by_cause:
            lines.append("fleet sheds           " + "  ".join(
                f"{cause}:{n}"
                for cause, n in sorted(self.shed_by_cause.items())))
        if self.health is not None:
            h = self.health
            lines.append(
                f"health                {h.get('probes', 0)} probes, "
                f"{h.get('detections', 0)} suspicion(s) "
                f"({h.get('false_suspicions', 0)} false), "
                f"{h.get('crashes', 0)} crash(es) observed, "
                f"{h.get('flap_downs', 0)} flap(s)")
            lines.append(
                f"self-healing          {h.get('restarts', 0)} restart(s) "
                f"({h.get('restarts_pending', 0)} pending, "
                f"{h.get('restarts_denied', 0)} denied), "
                f"{h.get('evictions', 0)} eviction(s)")
            if h.get("hedges_issued", 0) or h.get("hedges_denied", 0):
                lines.append(
                    f"hedging               {h.get('hedges_issued', 0)} "
                    f"issued = {h.get('hedge_wins', 0)} win(s) + "
                    f"{h.get('hedge_cancels', 0)} cancel(s); "
                    f"{h.get('hedges_denied', 0)} denied")
            budget = h.get("retry_budget") or {}
            if budget.get("spent", 0) or budget.get("exhaustions", 0):
                tenants = budget.get("tenants_exhausted") or ()
                lines.append(
                    f"retry budget          {budget.get('spent', 0)} spent / "
                    f"{budget.get('offers', 0)} offered, "
                    f"{budget.get('exhaustions', 0)} exhaustion(s) across "
                    f"{len(tenants)} tenant(s)")
        if self.telemetry is not None:
            t = self.telemetry
            alerts = t.get("alerts") or {}
            lines.append(
                f"telemetry             {t.get('windows', 0)} window(s) "
                f"@ {t.get('window_s', 0)} s, "
                f"{len(t.get('incidents', ()))} incident(s), "
                f"{alerts.get('events', 0)} alert edge(s)")
        for r in self.replicas:
            tag = (f" slot{r.slot}#{r.incarnation}"
                   if r.incarnation else "")
            if r.device is not None:
                tag += f" {r.device}"
            lines.append(
                f"  {r.name:10s} [{r.outcome:7s}]{tag} "
                f"routed {r.routed:6d}  completed {r.report.completed:6d}  "
                f"shed rate {r.report.shed_rate * 100:5.1f} %  "
                f"cache hit {r.report.plan_cache['hit_rate'] * 100:5.1f} %")
        return "\n".join(lines)


def aggregate_plan_cache(reports: Tuple[StatsReport, ...]) -> Dict[str, float]:
    """Fleet-wide plan-cache stats: summed hits/misses/entries and the
    hit rate recomputed over the sums."""
    hits = sum(r.plan_cache.get("hits", 0) for r in reports)
    misses = sum(r.plan_cache.get("misses", 0) for r in reports)
    total = hits + misses
    return {
        "hits": float(hits),
        "misses": float(misses),
        "entries": float(sum(r.plan_cache.get("entries", 0)
                             for r in reports)),
        "evictions": float(sum(r.plan_cache.get("evictions", 0)
                               for r in reports)),
        "hit_rate": hits / total if total else 0.0,
    }


def aggregate_shed_causes(report: ClusterReport) -> Dict[str, int]:
    """Every shed in the run, by cause: the fleet-level causes
    (``no_replica``, ``retry_budget_exhausted``) merged with each
    replica's ``shed_by_cause``.  Open taxonomy — causes this build
    has never heard of merge like any other (see
    :func:`repro.serve.stats.merge_shed_causes`)."""
    return merge_shed_causes(report.shed_by_cause,
                             *(r.report.shed_by_cause
                               for r in report.replicas))
