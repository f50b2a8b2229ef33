"""Self-healing plane: detection, restarts, hedging, retry budgets,
the chaos determinism matrix and report back-compat."""

import json

import pytest

from repro.cluster import (Cluster, ClusterConfig, ClusterReport,
                           HealthConfig, RetryBudget, serve_cluster)
from repro.cluster.report import ReplicaSummary, aggregate_shed_causes
from repro.errors import ReportSchemaError, ReproError
from repro.faults import (FLEET_PLAN_NAMES, FleetFaultPlan,
                          ReplicaCrashSpec, ReplicaDegradeSpec,
                          named_fleet_plan)
from repro.serve import (BatchPolicy, Server, ServerConfig, TrafficSpec,
                         generate_trace)


def small_server(**kwargs):
    defaults = dict(policy=BatchPolicy(max_batch=8, max_wait_s=0.002),
                    queue_depth=64, timeout_s=0.25)
    defaults.update(kwargs)
    return ServerConfig(**defaults)


def small_trace(duration=0.5, rate=1600, seed=42):
    return generate_trace(TrafficSpec(duration_s=duration, rate_rps=rate,
                                      seed=seed))


def run(trace, **kwargs):
    kwargs.setdefault("server", small_server())
    kwargs.setdefault("replicas", 3)
    return serve_cluster(trace, ClusterConfig(**kwargs))


def dumps(report):
    return json.dumps(report.to_dict(), sort_keys=True)


class TestEquivalence:
    def test_one_replica_with_probes_matches_server_run(self):
        """The probes-change-nothing invariant: a healthy one-replica
        fleet with the health plane attached still reproduces
        Server.run byte for byte."""
        config = small_server()
        trace = small_trace()
        solo = Server(config).run(trace)
        rep = run(trace, server=config, replicas=1, health=HealthConfig())
        assert rep.replicas[0].report.to_dict() == solo.to_dict()
        assert rep.health["probes"] > 0
        assert rep.health["detections"] == 0

    def test_health_none_report_unchanged(self):
        """Attaching no health plane leaves the report without a
        scorecard — the pre-health shape."""
        rep = run(small_trace())
        assert rep.health is None
        assert rep.to_dict()["health"] is None


class TestDeterminismMatrix:
    """Every named fleet plan under every health variant is same-seed
    byte-identical — the chaos determinism gate."""

    VARIANTS = {
        "plain": dict(health=HealthConfig()),
        "kill": dict(health=HealthConfig(), kills=[(1, 0.2)]),
        "hedged": dict(health=HealthConfig(hedge_after_s=0.02)),
        "no-restart": dict(health=HealthConfig(max_restarts=0)),
    }

    @pytest.mark.parametrize("plan_name", FLEET_PLAN_NAMES)
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_same_seed_runs_are_byte_identical(self, plan_name, variant):
        trace = small_trace()
        plan = named_fleet_plan(plan_name, duration_s=0.5, replicas=3)
        kwargs = dict(self.VARIANTS[variant], fleet_fault_plan=plan)
        assert dumps(run(trace, **kwargs)) == dumps(run(trace, **kwargs))


class TestScorecard:
    def test_crash_is_detected_evicted_and_restarted(self):
        plan = FleetFaultPlan(name="boom", crashes=(
            ReplicaCrashSpec(replica=1, at_s=0.1),))
        rep = run(small_trace(), health=HealthConfig(),
                  fleet_fault_plan=plan)
        h = rep.health
        assert h["detections"] >= 1
        assert h["crashes"] == 1
        assert h["evictions"] == 1
        assert h["restarts"] == 1
        slots = {(r.slot, r.incarnation) for r in rep.replicas}
        assert (1, 0) in slots and (1, 1) in slots
        outcomes = {r.slot: r.outcome for r in rep.replicas
                    if r.incarnation == 0}
        assert outcomes[1] == "crashed"

    def test_restart_identity_holds_across_all_plans(self):
        """crashes == restarts + pending + denied, by construction."""
        trace = small_trace()
        for name in FLEET_PLAN_NAMES:
            plan = named_fleet_plan(name, duration_s=0.5, replicas=3)
            h = run(trace, health=HealthConfig(),
                    fleet_fault_plan=plan).health
            assert h["crashes"] == (h["restarts"] + h["restarts_pending"]
                                    + h["restarts_denied"]), name

    def test_hedge_identity_holds(self):
        """hedges_issued == hedge_wins + hedge_cancels."""
        plan = named_fleet_plan("fleet-chaos", duration_s=0.5, replicas=3)
        h = run(small_trace(rate=2500),
                health=HealthConfig(hedge_after_s=0.02),
                fleet_fault_plan=plan).health
        assert h["hedges_issued"] > 0
        assert h["hedges_issued"] == h["hedge_wins"] + h["hedge_cancels"]

    def test_max_restarts_zero_denies_replacement(self):
        plan = FleetFaultPlan(name="boom", crashes=(
            ReplicaCrashSpec(replica=1, at_s=0.1),))
        rep = run(small_trace(), health=HealthConfig(max_restarts=0),
                  fleet_fault_plan=plan)
        assert rep.health["restarts"] == 0
        assert rep.health["restarts_denied"] == 1
        assert rep.replicas_final == 2

    def test_degrade_causes_false_suspicions_not_evictions(self):
        """A slow-but-alive replica gets suspected (unrouted) and then
        recovers when its delayed heartbeat lands — never evicted."""
        plan = FleetFaultPlan(name="slow", degrades=(
            ReplicaDegradeSpec(replica=1, factor=4.0,
                               start_s=0.1, end_s=0.4),))
        h = run(small_trace(), health=HealthConfig(),
                fleet_fault_plan=plan).health
        assert h["detections"] > 0
        assert h["false_suspicions"] == h["detections"]
        assert h["evictions"] == 0
        assert h["crashes"] == 0

    def test_restarted_replica_starts_with_cold_plan_cache(self):
        """The replacement pays compile misses its predecessor had
        already amortized — the warmup is visible in the report."""
        plan = FleetFaultPlan(name="boom", crashes=(
            ReplicaCrashSpec(replica=1, at_s=0.1),))
        rep = run(small_trace(), health=HealthConfig(restart_delay_s=0.05,
                                                     restart_jitter_s=0.0),
                  fleet_fault_plan=plan)
        by_inc = {r.incarnation: r for r in rep.replicas if r.slot == 1}
        original, replacement = by_inc[0], by_inc[1]
        # Cold cache: the replacement re-pays compile misses for shapes
        # its predecessor had already compiled (a shared cache would
        # show zero), then warms up and starts hitting.
        assert original.report.plan_cache["misses"] > 0
        assert replacement.report.plan_cache["misses"] > 0
        assert replacement.report.plan_cache["hits"] > 0


class TestRetryBudget:
    def test_budget_accounting(self):
        budget = RetryBudget(ratio=0.0, floor=2)
        assert budget.allow("m")
        assert budget.allow("m")
        assert not budget.allow("m")
        assert budget.exhaustions == 1
        assert budget.to_dict()["tenants_exhausted"] == ["m"]

    def test_allowance_grows_with_offers(self):
        budget = RetryBudget(ratio=0.5, floor=0)
        assert budget.allowance("m") == 0
        for _ in range(10):
            budget.on_offer("m")
        assert budget.allowance("m") == 5

    def test_exhausted_budget_sheds_evacuations(self):
        """With a zero budget, evacuated requests are shed under
        retry_budget_exhausted instead of re-routed."""
        plan = FleetFaultPlan(name="boom", crashes=(
            ReplicaCrashSpec(replica=1, at_s=0.2),))
        rep = run(small_trace(rate=2500),
                  health=HealthConfig(retry_budget_ratio=0.0,
                                      retry_budget_min=0),
                  fleet_fault_plan=plan)
        assert rep.shed_by_cause.get("retry_budget_exhausted", 0) > 0
        assert rep.health["retry_budget"]["exhaustions"] > 0
        causes = aggregate_shed_causes(rep)
        assert causes["retry_budget_exhausted"] == \
            rep.shed_by_cause["retry_budget_exhausted"]


class TestKillSchedule:
    def test_kill_schedule_orders_by_time(self):
        config = ClusterConfig(replicas=3, kills=[(2, 0.3), (0, 0.1)])
        assert config.kill_schedule() == [(0, 0.1), (2, 0.3)]

    def test_restarted_slot_can_be_killed_again(self):
        """Kills target slots: a second kill on the same slot lands on
        the supervisor's replacement."""
        rep = run(small_trace(), health=HealthConfig(restart_delay_s=0.05,
                                                     restart_jitter_s=0.0),
                  kills=[(1, 0.1), (1, 0.3)])
        slot1 = sorted((r for r in rep.replicas if r.slot == 1),
                       key=lambda r: r.incarnation)
        assert len(slot1) >= 2
        assert [r.outcome for r in slot1[:2]] == ["killed", "killed"]
        assert rep.kills == 2

    def test_fleet_plan_requires_health(self):
        plan = named_fleet_plan("crash", duration_s=0.5, replicas=3)
        with pytest.raises(ValueError):
            ClusterConfig(replicas=3, fleet_fault_plan=plan)
        # degrade-only plans run fine without a health plane
        slow = named_fleet_plan("degrade", duration_s=0.5, replicas=3)
        ClusterConfig(replicas=3, fleet_fault_plan=slow)


class TestReportBackCompat:
    def test_round_trip(self):
        plan = named_fleet_plan("fleet-chaos", duration_s=0.5, replicas=3)
        rep = run(small_trace(), health=HealthConfig(hedge_after_s=0.02),
                  fleet_fault_plan=plan)
        loaded = ClusterReport.from_dict(json.loads(dumps(rep)))
        assert dumps(loaded) == dumps(rep)

    def test_loads_pre_health_document(self):
        """A report archived before the health plane existed — no
        shed_by_cause, health, slot or incarnation keys — still
        loads."""
        rep = run(small_trace())
        doc = json.loads(dumps(rep))
        del doc["shed_by_cause"], doc["health"]
        for r in doc["replicas"]:
            del r["slot"], r["incarnation"]
        loaded = ClusterReport.from_dict(doc)
        assert loaded.health is None
        assert loaded.shed_by_cause == {}
        assert loaded.replicas[0].slot == loaded.replicas[0].index
        assert loaded.completed == rep.completed

    def test_unknown_shed_causes_survive_load_and_merge(self):
        rep = run(small_trace())
        doc = json.loads(dumps(rep))
        doc["shed_by_cause"]["cosmic_rays"] = 3
        loaded = ClusterReport.from_dict(doc)
        assert loaded.shed_by_cause["cosmic_rays"] == 3
        assert aggregate_shed_causes(loaded)["cosmic_rays"] == 3


class TestReportTypedErrors:
    """Malformed cluster report documents raise ReportSchemaError (a
    ReproError) naming the section, at any depth."""

    @pytest.fixture(scope="class")
    def doc(self):
        return json.loads(dumps(run(small_trace())))

    @pytest.mark.parametrize("mutate, match", [
        (lambda d: [], r"ClusterReport: document must be a JSON object"),
        (lambda d: "x", r"ClusterReport: document must be a JSON object"),
        (lambda d: {"offered": "x"},
         r"ClusterReport: field 'offered' must be an integer, got 'x'"),
        (lambda d: {**d, "duration_s": None},
         r"field 'duration_s' must be a number"),
        (lambda d: {**d, "latency_ms": 3},
         r"latency_ms must be a JSON object"),
        (lambda d: {**d, "autoscaler": {"scale_ups": "1"}},
         r"autoscaler: field 'scale_ups' must be an integer"),
        (lambda d: {**d, "autoscaler": {"actions": "none"}},
         r"autoscaler\.actions must be a JSON array"),
        (lambda d: {**d, "slo": []}, r"slo must be a JSON object"),
        (lambda d: {**d, "health": "ok"}, r"health must be a JSON object"),
        (lambda d: {**d, "replicas": {"0": {}}},
         r"replicas must be a JSON array"),
        (lambda d: {**d, "replicas": [[]]},
         r"replicas\[0\]: document must be a JSON object"),
        (lambda d: {**d, "replicas": [{**d["replicas"][0], "routed": "7"}]},
         r"replicas\[0\]: field 'routed' must be an integer"),
        (lambda d: {**d, "replicas": [{"retired_s": "later"}]},
         r"replicas\[0\]: field 'retired_s' must be a number"),
        (lambda d: {**d, "replicas": [{"report": []}]},
         r"replicas\[0\]: report: document must be a JSON object"),
        (lambda d: {**d, "replicas": [{"report": {"offered": "x"}}]},
         r"replicas\[0\]: report: field 'offered' must be an integer"),
    ])
    def test_malformed_documents(self, doc, mutate, match):
        with pytest.raises(ReportSchemaError, match=match) as info:
            ClusterReport.from_dict(mutate(doc))
        assert isinstance(info.value, ReproError)

    def test_replica_summary_direct(self):
        with pytest.raises(ReportSchemaError,
                           match=r"ReplicaSummary: field 'index'"):
            ReplicaSummary.from_dict({"index": "first"})
        with pytest.raises(ReportSchemaError,
                           match=r"ReplicaSummary: document must be"):
            ReplicaSummary.from_dict(None)
        assert ReplicaSummary.from_dict({}).name == "replica0"
