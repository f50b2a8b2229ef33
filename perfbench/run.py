"""Host-time benchmark of the simulator: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-steady --seed 3 \\
        --seconds 15 --trace 0

The workloads and the metrics are those ``BENCHMARK.json`` names (see
``perfbench/README.md``).  Each workload runs in fresh interpreters
started one after another, never in parallel: ``SETUP_SAMPLES - 1``
processes only set up, and the last one sets up and then runs timed
passes for ``--seconds``.  Set-up time is the median over those
processes, and throughput takes every phase of a pass at its fastest.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
untraced and layer-timed passes alternately and reports the per-layer
metrics instead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 when every output check held, 1 when one failed, and 2 when
the benchmark could not run at all (no result line is printed then).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh interpreters per run whose set-up time is measured.
SETUP_SAMPLES = 7
#: Wall budget of one invocation, under the 180 s a run may take.
BUDGET_S = 170.0

VALIDITY = ("model validity: the K40c model is unvalidated against "
            "hardware. The repository holds no hardware measurements "
            "(calibration_baseline.json snapshots the model's own outputs), "
            "so no error figure is given; simulated statistics are only "
            "checked for byte identity.")


class BenchError(RuntimeError):
    """The benchmark could not run (exit code 2, no result line)."""


def source_digest() -> str:
    """sha256 over every file of the program's source tree."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _git(*args: str):
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args],
                             capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _version(package: str):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def fingerprint() -> dict:
    """Code and host identity recorded with every result."""
    commit = dirty = None
    if _git("rev-parse", "--show-toplevel") == str(ROOT):
        commit = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "commit": commit, "dirty": dirty, "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def run_worker(args, deadline: float, setup_only: bool) -> dict:
    """Start one worker process, wait for it, and return its result."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        command.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.Popen(command + ["--spawned-at", repr(spawned_at)],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker exceeded the time budget") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _print_summary(args, fp, load, setup, result) -> None:
    print(f"perfbench: workload {args.workload}, seed {args.seed}, "
          f"{result['passes']} timed passes of {result['units_per_pass']} "
          f"{result['unit']} each, trace {args.trace}")
    print(VALIDITY)
    print("fingerprint: " + json.dumps(dict(fp, loadavg_1m=load),
                                       sort_keys=True))
    recorded = result["digest_recorded"] and not result["problems"]
    print(f"output digest {result['digest'][:16]} ("
          + ("matches the recorded one" if recorded
             else "checked across passes") + ")")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    if setup:
        print(f"setup samples (s): {', '.join(f'{s:.3f}' for s in setup)}")


def main(argv=None) -> int:
    spec = layers.benchmark_spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program source under {ROOT / 'src'}")
        deadline = time.monotonic() + BUDGET_S
        load_before = os.getloadavg()[0]
        fp = fingerprint()
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup.append(run_worker(args, deadline, True)["setup_s"])
        result = run_worker(args, deadline, False)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setup.append(result["setup_s"])
    load = [load_before, os.getloadavg()[0]]
    _print_summary(args, fp, load, setup, result)

    attempted, failed = result["attempted"], result["failed"]
    correct = not result["problems"]
    if args.trace:
        problems = result["reconciliation"]
        correct = correct and not problems
        for problem in problems:
            print(f"RECONCILIATION FAILED: {problem}")
        values = dict(result["per_layer"],
                      **{"bench.failed_ratio": failed / attempted})
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for name, m in metrics.items():
            print(f"  {name:36s} {m['value']:16.6f} {m['unit']}")
    else:
        values = {"setup_s": statistics.median(setup),
                  "units_per_s": result["units_per_s"],
                  "peak_rss_mb": result["peak_rss_mb"],
                  "ok_ratio": (attempted - failed) / attempted}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        for name, m in metrics.items():
            print(f"  {name:14s} {m['value']:16.6f} {m['unit']}")
        print(f"  {result['throughput']:14s} "
              f"{values['units_per_s']:16.6f} 1/s (= units_per_s)")
        print(f"  {'failed_ratio':14s} {failed / attempted:16.6f} ratio")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
