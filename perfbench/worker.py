"""One benchmark process: set up a workload in a fresh interpreter,
run its timed passes, and print one JSON line with the result.

``run.py`` starts this script; it is not meant to be run by hand.
``--spawned-at`` is the parent's ``time.monotonic()`` just before the
process was started, so the reported set-up time includes interpreter
start-up.  ``--setup-only`` stops once the workload is ready.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Fewest timed passes a run makes, whatever ``--seconds`` says: the
#: byte-identity check needs at least two.
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
#: Least share of a traced pass the wrapped layer calls must cover.
#: Every pass's top-level work is wrapped (figure pipelines and advisor,
#: trace generation, Server.run / Cluster.run, export and analysis), so
#: a lower share means a layer stopped being timed or a pass gained
#: work no layer accounts for.
MIN_COVERED = 0.9


def _ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _best_phase(passes, phase: str) -> float:
    return min(p.phases.get(phase, 0.0) for p in passes)


def best_pass_s(passes) -> float:
    """The pass time with every phase at its fastest over the passes.

    Neighbours on a shared host slow the process by up to 1.7x for
    stretches of seconds.  The fastest run of each short phase is
    steady across runs where a median, or the fastest whole pass, is
    not; the phases are consecutive and do the same work every pass.
    """
    return sum(min(p.phases[phase] for p in passes)
               for phase in passes[0].phases)


def layer_metrics(untraced, traced, clocks, side) -> dict:
    """Every per-layer metric (the ``per_layer`` list of BENCHMARK.json)
    of one run.

    Call counts and simulated statistics are exact per pass; times are
    means over the traced passes, except the per-unit costs, which use
    the untraced passes' best phase times so wrapper cost stays out.
    """
    from layers import TIMED, per_layer_names

    names = per_layer_names()
    timed = {key for key, _, _ in TIMED}
    first = traced[0].counters
    out = {name: 0.0 for name in names}
    for name in out:
        key, _, stat = name.rpartition(".")
        if key not in timed:
            continue
        if stat == "calls":
            out[name] = _mean(c.calls.get(key, 0) for c in clocks)
        else:
            out[name] = _mean(c.self_s.get(key, 0.0) for c in clocks)
    out["gpusim.memo.hit_ratio"] = _ratio(first["memo_hits"],
                                          first["memo_misses"])
    out["gpusim.memo.misses"] = first["memo_misses"]
    out["evalcache.hit_ratio"] = _ratio(first["eval_hits"],
                                        first["eval_misses"])
    out["dispatch_memo.hit_ratio"] = _ratio(first.get("dispatch_hits", 0),
                                            first.get("dispatch_misses", 0))
    out["plan_cache.hit_ratio"] = _ratio(first.get("plan_hits", 0),
                                         first.get("plan_misses", 0))
    out["batcher.fill_ratio"] = (first["filled"] / first["padded"]
                                 if first.get("padded") else 0.0)
    for name, counter in (("queue.rejected", "rejected"),
                          ("scheduler.batches", "batches"),
                          ("faults.injected", "faults_injected"),
                          ("health.hedges_issued", "hedges_issued"),
                          ("health.restarts", "restarts"),
                          ("obs.spans", "spans")):
        out[name] = first.get(counter, 0)
    units = traced[0].units
    if "generate_s" in untraced[0].phases:
        out["loadgen.us_per_arrival"] = (
            _best_phase(untraced, "generate_s") / units * 1e6)
    if first.get("batches"):
        out["scheduler.host_us_per_batch"] = (
            _best_phase(untraced, "run_s") / first["batches"] * 1e6)
    if side and first.get("spans"):
        out["obs.us_per_span"] = (
            (_best_phase(untraced, "run_s") - _best_phase(side, "run_s"))
            / first["spans"] * 1e6)
    out["bench.unattributed_s"] = _mean(
        p.wall_s - c.attributed_s() for p, c in zip(traced, clocks))
    out["bench.covered_ratio"] = _mean(
        c.attributed_s() / p.wall_s for p, c in zip(traced, clocks))
    out["bench.wrap_overhead_x"] = (min(p.wall_s for p in traced)
                                    / min(p.wall_s for p in untraced))
    unknown = set(out) - set(names)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: "
                       f"{sorted(unknown)}")
    return out


def reconciliation(traced, clocks) -> list:
    """Per traced pass: the wrapped layers must cover at least
    ``MIN_COVERED`` of its wall time.

    Σ self + ``bench.unattributed_s`` = wall holds by construction (the
    unattributed time is defined as the rest), so the check is on how
    much of the pass the wrapped set accounts for."""
    problems = []
    for i, (p, c) in enumerate(zip(traced, clocks)):
        covered = c.attributed_s() / p.wall_s
        if covered < MIN_COVERED:
            problems.append(f"traced pass {i}: wrapped layers cover "
                            f"{covered:.1%} of {p.wall_s:.3f} s, under "
                            f"{MIN_COVERED:.0%}")
    return problems


def measure(workload, seconds: float, trace: bool):
    """Run timed passes for ``seconds``; returns (untraced, traced,
    layer clocks, side passes)."""
    import layers

    untraced, traced, clocks, side = [], [], [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        untraced.append(workload.run_pass())
        if trace:
            clock = layers.LayerClock()
            gc.collect()
            with layers.timing(clock):
                traced.append(workload.run_pass())
            clocks.append(clock)
            if hasattr(workload, "run_side_pass"):
                gc.collect()
                side.append(workload.run_side_pass())
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(untraced) >= (
                MIN_TRACED_PASSES if trace else MIN_PASSES):
            return untraced, traced, clocks, side


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.setup()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    untraced, traced, clocks, side = measure(workload, args.seconds,
                                             bool(args.trace))
    expected = workloads.expected_digest(args.workload, args.seed)
    reference = expected or untraced[0].digest
    attempted = failed = 0
    problems = []
    checked = [(p, False) for p in untraced + traced]
    checked += [(p, True) for p in side]
    for i, (p, is_side) in enumerate(checked):
        bad = list(p.violations)
        if is_side:
            # Tracing off must not change the report.
            if p.report_digest != untraced[0].report_digest:
                bad.append("report differs with tracing off")
        elif p.digest != reference:
            bad.append(f"digest {p.digest[:16]} != "
                       f"{'recorded' if expected else 'first pass'} "
                       f"{reference[:16]}")
        attempted += p.units
        failed += p.units if bad else p.failed_units
        problems += [f"pass {i}: {b}" for b in bad]
    result = {
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": len(untraced),
        "units_per_pass": untraced[0].units,
        "unit": workload.unit,
        "throughput": workload.throughput,
        "units_per_s": untraced[0].units / best_pass_s(untraced),
        "attempted": attempted,
        "failed": failed,
        "digest": untraced[0].digest,
        "digest_recorded": expected is not None,
        "problems": problems,
    }
    if args.trace:
        result["traced_passes"] = len(traced)
        result["per_layer"] = layer_metrics(untraced, traced, clocks, side)
        result["reconciliation"] = reconciliation(traced, clocks)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
