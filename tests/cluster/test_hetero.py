"""Heterogeneous-fleet determinism and device threading.

Satellite requirements: same-seed ``--fleet`` runs are byte-identical
across every router policy, and a one-device fleet reproduces the
homogeneous cluster report byte-for-byte.
"""

import json

import pytest

from repro.cluster import (POLICIES, Cluster, ClusterConfig, DeviceAffinity,
                           ReplicaSummary, make_policy)
from repro.core.advisor import Advisor
from repro.frameworks.registry import shared_implementations
from repro.gpusim.device import K40C, TITAN_X
from repro.serve.loadgen import TrafficSpec, generate_trace

TRACE = generate_trace(TrafficSpec(duration_s=0.5, rate_rps=2000.0, seed=11))


def run_fleet(devices, policy="round-robin", seed=11):
    config = ClusterConfig(replicas=len(devices), policy=policy,
                           devices=devices, seed=seed)
    return Cluster(config).run(TRACE)


def report_json(report):
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


class TestConfigValidation:
    def test_devices_must_match_replicas(self):
        with pytest.raises(ValueError, match="one per replica"):
            ClusterConfig(replicas=3, devices=("k40c", "maxwell"))

    def test_empty_devices_is_homogeneous(self):
        ClusterConfig(replicas=3, devices=())

    def test_unknown_device_rejected_at_build(self):
        with pytest.raises(KeyError):
            Cluster(ClusterConfig(replicas=1, devices=("h100",)))


class TestHeterogeneousDeterminism:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_same_seed_byte_identical(self, policy):
        devices = ("k40c", "k40c", "maxwell", "maxwell")
        a = report_json(run_fleet(devices, policy=policy))
        b = report_json(run_fleet(devices, policy=policy))
        assert a == b

    def test_replicas_carry_their_devices(self):
        report = run_fleet(("k40c", "maxwell"))
        assert [r.device for r in report.replicas] == \
            ["Tesla K40c", "GTX TITAN X (Maxwell)"]
        doc = report.to_dict()
        assert [r["device"] for r in doc["replicas"]] == \
            ["Tesla K40c", "GTX TITAN X (Maxwell)"]

    def test_round_trip_preserves_device(self):
        report = run_fleet(("k40c", "maxwell"))
        doc = report.to_dict()["replicas"][1]
        assert ReplicaSummary.from_dict(doc).device == \
            "GTX TITAN X (Maxwell)"


class TestHomogeneousByteIdentity:
    """A one-device ``--fleet`` must reproduce the plain homogeneous
    cluster byte-for-byte — no device fields, same numbers."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_one_device_fleet_equals_homogeneous(self, policy):
        legacy = Cluster(ClusterConfig(replicas=3, policy=policy,
                                       seed=11)).run(TRACE)
        fleet = run_fleet(("k40c", "k40c", "k40c"), policy=policy)
        assert report_json(fleet) == report_json(legacy)

    def test_homogeneous_report_has_no_device_keys(self):
        report = run_fleet(("k40c", "k40c"))
        assert all(r.device is None for r in report.replicas)
        assert all("device" not in r
                   for r in report.to_dict()["replicas"])


class TestDeviceThreading:
    def test_hetero_replicas_get_distinct_specs(self):
        cluster = Cluster(ClusterConfig(replicas=2,
                                        devices=("k40c", "maxwell")))
        cluster.run(TRACE)
        assert cluster.replicas[0].server.config.device == K40C
        assert cluster.replicas[1].server.config.device == TITAN_X

    def test_plan_caches_keyed_per_device(self):
        """The shared advisor serves both devices; each replica's plan
        cache holds plans ranked for its own hardware."""
        cluster = Cluster(ClusterConfig(replicas=2,
                                        devices=("k40c", "maxwell"),
                                        policy="round-robin"))
        cluster.run(TRACE)
        k40c_plans = cluster.replicas[0].server.plan_cache._entries
        maxwell_plans = cluster.replicas[1].server.plan_cache._entries
        # Each cache belongs to one replica's server, so its keys are
        # (shape, batch) alone and the same key appears in both — with
        # different rankings.  Maxwell is strictly faster: its winning
        # plan for any common key must be faster than K40c's.
        compared = 0
        for key, plans in maxwell_plans.items():
            theirs = k40c_plans.get(key)
            if plans and theirs:
                assert plans[0].time_s < theirs[0].time_s
                compared += 1
        assert compared > 0


class TestDeviceAffinityPolicy:
    def test_in_policy_list(self):
        assert "device-affinity" in POLICIES
        assert isinstance(make_policy("device-affinity", 0),
                          DeviceAffinity)

    def test_prefers_faster_device(self):
        """On a K40c+Maxwell fleet, every shape pins to a Maxwell
        replica (Maxwell wins every shape in the trace)."""
        config = ClusterConfig(replicas=4,
                               devices=("k40c", "k40c",
                                        "maxwell", "maxwell"),
                               policy="device-affinity", seed=11)
        cluster = Cluster(config)
        report = cluster.run(TRACE)
        routed = {r.index: r.routed for r in report.replicas}
        assert routed[0] == 0 and routed[1] == 0
        assert routed[2] > 0 and routed[3] > 0

    def test_degrades_to_shape_affinity_without_advisor(self):
        policy = make_policy("device-affinity", 0)
        assert policy._advisor is None
        # Build a tiny homogeneous fleet and compare decision-for-
        # decision with shape-affinity.
        devices = ("k40c", "k40c", "k40c")
        a = report_json(run_fleet(devices, policy="device-affinity"))
        b = report_json(run_fleet(devices, policy="shape-affinity"))
        # Only the recorded policy name differs.
        assert a.replace('"device-affinity"', '"shape-affinity"') == b

    def test_homogeneous_equals_shape_affinity_with_advisor(self):
        advisor = Advisor(device=K40C,
                          implementations=shared_implementations())
        policy = make_policy("device-affinity", 0, advisor=advisor)
        assert policy._advisor is advisor
