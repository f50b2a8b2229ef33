"""Tests of the benchmark itself: its metric lists, its output checks,
its layer accounting and its refusal to run without the program.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = layers.benchmark_spec()


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _copy_benchmark(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_benchmark_json_names_the_workloads_run_implements():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_wrong_expected_digest_fails_the_run(tmp_path):
    _copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    copied = tmp_path / "perfbench" / "workloads.py"
    recorded = workloads.EXPECTED["model-cold"]
    copied.write_text(copied.read_text().replace(recorded, "0" * 64))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "model-cold",
         "--seed", str(workloads.DEFAULT_SEED), "--seconds", "0",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    result = _last_json(proc.stdout)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "CHECK FAILED" in proc.stdout


def test_recorded_digest_holds_at_the_default_seed(capsys):
    code = run.main(["--workload", "serve-steady",
                     "--seed", str(workloads.DEFAULT_SEED),
                     "--seconds", "0", "--trace", "0"])
    out = capsys.readouterr().out
    result = _last_json(out)
    assert code == 0, out
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert "matches the recorded one" in out


def test_traced_run_reports_every_layer_and_reconciles(capsys):
    code = run.main(["--workload", "cluster-chaos", "--seed", "4",
                     "--seconds", "0", "--trace", "1"])
    out = capsys.readouterr().out
    metrics = _last_json(out)["metrics"]
    assert code == 0, out
    assert "RECONCILIATION FAILED" not in out
    assert list(metrics) == layers.per_layer_names()
    assert metrics["bench.covered_ratio"]["value"] >= worker.MIN_COVERED
    for name in ("router.route.calls", "replica.poll.self_s",
                 "health.poll.calls", "obs.spans", "obs.export_jsonl.s",
                 "obs.analyze.s", "stats.record_dispatch.calls",
                 "advisor.plan_ranked.calls", "health.restarts"):
        assert metrics[name]["value"] > 0, name
    # Recorded spans force the reference dispatch lane.
    assert metrics["allocator.replay_transient.calls"]["value"] == 0


def test_held_out_seed_repeats_byte_for_byte():
    workload = workloads.ServeSteady(seed=987)
    workload.setup()
    first, second = workload.run_pass(), workload.run_pass()
    assert first.digest == second.digest
    assert first.violations == second.violations == []


def test_conservation_check_catches_a_lost_request():
    causes = {"queue_full": 2, "timeout": 3}
    assert workloads.conservation_violations(10, 5, 2, causes) == []
    assert workloads.conservation_violations(11, 5, 2, causes)
    assert workloads.conservation_violations(10, 5, 1, causes)


def test_best_pass_takes_each_phase_at_its_fastest():
    def fake(gen, serve):
        return workloads.PassResult(units=1, wall_s=gen + serve, digest="",
                                    violations=[],
                                    phases={"gen": gen, "serve": serve})

    assert worker.best_pass_s([fake(2.0, 5.0), fake(3.0, 4.0)]) == 6.0


def test_layer_self_times_reconcile_with_nesting_and_recursion():
    clock = layers.LayerClock()

    def leaf():
        return sum(range(2000))

    def outer(depth):
        if depth:
            return timed_outer(depth - 1)
        return timed_leaf() + timed_leaf()

    timed_leaf = clock.wrap("a.leaf", leaf)
    timed_outer = clock.wrap("b.outer", outer)
    start = time.perf_counter()
    timed_outer(3)
    timed_leaf()
    wall = time.perf_counter() - start
    assert clock.calls == {"b.outer": 1, "a.leaf": 3}
    # Nested time counted in both the caller and the callee would push
    # the sum past the wall time: the leaves are nearly all of it.
    assert 0 < clock.attributed_s() <= wall
    assert all(s >= 0 for s in clock.self_s.values())


def test_reconciliation_flags_a_pass_the_layers_do_not_cover():
    clock = layers.LayerClock()
    clock.wrap("a.leaf", lambda: sum(range(20000)))()
    covered = workloads.PassResult(units=1, wall_s=clock.attributed_s(),
                                   digest="", violations=[])
    missed = workloads.PassResult(units=1, wall_s=clock.attributed_s() * 2,
                                  digest="", violations=[])
    assert worker.reconciliation([covered], [clock]) == []
    assert worker.reconciliation([missed], [clock])


def test_timing_restores_every_original():
    from repro.serve.queue import AdmissionQueue
    from repro.serve import loadgen

    offer, generate = AdmissionQueue.offer, loadgen.generate_trace
    with layers.timing(layers.LayerClock()):
        assert AdmissionQueue.offer is not offer
        assert loadgen.generate_trace is not generate
    assert AdmissionQueue.offer is offer
    assert loadgen.generate_trace is generate


def test_refuses_to_run_without_the_program(tmp_path):
    _copy_benchmark(tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "model-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
