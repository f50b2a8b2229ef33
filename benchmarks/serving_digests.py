"""Print one sha256 per serving run of a fixed grid.

The grid covers every allocation lane and trace mode of
:class:`repro.serve.Server`: untraced, ``trace_sample`` 1 and 4, with
the allocator unobserved (dispatch-memo replay) and observed
(``record_timeline=True``, real buffers), with no fault plan and with
each named fault plan, plus the memory timeline of a chaos run and a
traced hedging fleet.  For each run it hashes the ``StatsReport``
JSON, the JSONL trace and the Chrome trace.

Run it on two commits and ``diff`` the outputs to show a refactor kept
every simulated result, trace and export byte for byte::

    PYTHONPATH=src python benchmarks/serving_digests.py > after.txt
"""

from __future__ import annotations

import hashlib
import json
import sys

from repro.cluster import ClusterConfig, Cluster
from repro.cluster.health import HealthConfig
from repro.faults import named_fleet_plan, named_plan
from repro.obs.export import chrome_trace, cluster_jsonl_lines, jsonl_lines
from repro.serve import Server, ServerConfig, TrafficSpec, generate_trace

PLANS = (None, "straggler", "transient-top", "memory-pressure",
         "cache-chaos", "chaos")
SAMPLES = (0, 1, 4)          # 0 = untraced


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def server_digests(trace, plan, sample, observed, timeline=False):
    server = Server(ServerConfig(),
                    fault_plan=named_plan(plan) if plan else None,
                    fault_seed=11, record_timeline=observed)
    tracer = server.enable_tracing(sample=sample) if sample else None
    report = server.run(trace)
    out = {"report": _sha(json.dumps(report.to_dict(), sort_keys=True))}
    if tracer is not None:
        out["jsonl"] = _sha("\n".join(jsonl_lines(tracer)))
        out["chrome"] = _sha(json.dumps(
            chrome_trace(tracer, server.obs.registry), sort_keys=True))
    if timeline:
        out["timeline"] = _sha(json.dumps(server.memory_timeline))
    return out


def cluster_digests(trace):
    config = ClusterConfig(
        replicas=4, policy="p2c", seed=1,
        health=HealthConfig(hedge_after_s=0.05),
        fleet_fault_plan=named_fleet_plan("fleet-chaos", duration_s=1.0,
                                          replicas=4))
    cluster = Cluster(config)
    cluster.enable_tracing()
    report = cluster.run(trace)
    return {"report": _sha(json.dumps(report.to_dict(), sort_keys=True)),
            "jsonl": _sha("\n".join(cluster_jsonl_lines(
                cluster.obs.tracer, cluster.replica_tracers)))}


def main() -> int:
    trace = generate_trace(TrafficSpec(duration_s=1.0, rate_rps=4000.0,
                                       seed=7))
    def show(label, digests):
        print(label + " " + " ".join(f"{k}={v}"
                                     for k, v in sorted(digests.items())))

    for plan in PLANS:
        for sample in SAMPLES:
            for observed in (False, True):
                show(f"server plan={plan or 'none'} sample={sample} "
                     f"observed={observed}",
                     server_digests(trace, plan, sample, observed))
    show("server timeline plan=chaos sample=1 observed=True",
         server_digests(trace, "chaos", 1, True, timeline=True))
    show("cluster fleet-chaos traced observed=False",
         cluster_digests(trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
