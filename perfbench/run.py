#!/usr/bin/env python3
"""Run one avglocal benchmark workload and print its result as JSON.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (a workspace of its own that depends on the
repository's crates by path) into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs the workload in its own process, and prints one JSON
object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones. A traced sweep also runs a second process with
`AVG_LOCAL_THREADS=1`: its probe time is the single-threaded baseline of
`runtime.scaling`, and its work counts must equal the first process's.
Per-layer metrics of a layer the workload does not exercise read 0.

Exits non-zero, with no result line when nothing could be measured, if the
build fails, a process fails, or any output disagrees with its oracle.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SWEEPS = ("exact_ring", "sampled_grid")
# Each child process must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 150


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(target_dir):
    """Builds the benchmark binary; returns its path or None."""
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(command, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return None
    binary = os.path.join(target_dir, "release", "perfbench")
    return binary if os.path.isfile(binary) else None


def run_child(binary, args, work_dir, seconds, extra=(), env=None):
    """Runs one workload process; returns its parsed report or None."""
    command = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(float(seconds)), "--trace", str(args.trace),
        "--work-dir", work_dir, *extra,
    ]
    try:
        done = subprocess.run(
            command, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"workload process failed: {e}")
        return None
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"workload process exited with {done.returncode} and no report")
        return None
    if done.returncode != 0:
        report["correct"] = False
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target_dir)
    if binary is None:
        return 1
    work_dir = os.path.join(target_dir, "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)

    # A traced sweep shares its time with the single-threaded baseline.
    baseline = args.trace and args.workload in SWEEPS
    report = run_child(binary, args, work_dir, args.seconds * (0.7 if baseline else 1.0))
    if report is None:
        return 1
    metrics = dict(report["metrics"])
    metrics.update({name: float(v) for name, v in report["counts"].items()})
    correct, attempted, failed = report["correct"], report["attempted"], report["failed"]
    for failure in report.get("failures", []):
        log(f"oracle mismatch: {failure}")

    if baseline:
        env = dict(os.environ, AVG_LOCAL_THREADS="1")
        base = run_child(binary, args, work_dir, args.seconds * 0.3, ("--baseline",), env)
        if base is None:
            return 1
        correct = correct and base["correct"]
        attempted += base["attempted"]
        failed += base["failed"]
        if base["counts"] != report["counts"]:
            log(f"work counts differ across processes: {base['counts']} vs {report['counts']}")
            correct = False
            failed += 1
        metrics["runtime.scaling"] = base["metrics"]["runtime.probe_s"] / metrics["runtime.probe_s"]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and not args.trace:
        log(f"missing end-to-end metrics: {missing}")
        return 1
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
