#!/usr/bin/env python3
"""Builds the decluster benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The benchmark is the Rust package in this
directory; it is built (release, offline) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, and each workload runs in its own
process. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. Build output goes to
standard error. Any failure exits non-zero without printing a result.

--smoke is the benchmark's own test: it runs every workload briefly and
checks that every metric declared in BENCHMARK.json is printed with its
unit, that the seed changes the inputs but not the metric names, that no
check fails, and that the work counts repeat exactly for one seed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ("paper_sweep", "serve_open", "serve_share", "serve_faults")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    configured = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, configured)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target_dir(), "release", "perfbench")


def run_binary(binary, args):
    """Runs the benchmark binary; returns its standard output."""
    try:
        done = subprocess.run(
            [binary, *args], cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{' '.join(args)}: {e}")
    if done.returncode != 0:
        fail(f"{' '.join(args)}: exit code {done.returncode}")
    return done.stdout


def run_workload(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (standard output, parsed result)."""
    work_dir = os.path.join(target_dir(), "perfbench-work")
    if workload == "serve_open":
        run_binary(binary, ["--prepare", "--work-dir", work_dir])
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--work-dir", work_dir]
    out = run_binary(binary, args + (["--smoke"] if smoke else []))
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"{workload}: the last output line is not a JSON result")
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        fail(f"{workload}: malformed result {lines[-1]}")
    return out, result


def tagged(out, prefix):
    return [l for l in out.splitlines() if l.startswith(prefix)]


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in WORKLOADS:
        runs = {}
        for key, seed, trace in [("a0", 1, 0), ("b0", 2, 0), ("a1", 1, 1), ("a1x", 1, 1)]:
            runs[key] = run_workload(binary, w, seed, 1, trace, smoke=True)
        for key, (out, result) in runs.items():
            trace = 1 if key.startswith("a1") else 0
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != declared[trace]:
                missing = sorted(set(declared[trace]) - set(got))
                extra = sorted(set(got) - set(declared[trace]))
                wrong = sorted(n for n in got if n in declared[trace] and got[n] != declared[trace][n])
                problems.append(f"{w}/{key}: missing {missing} extra {extra} wrong units {wrong}")
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{w}/{key}: {result['failed']} failed checks")
        if tagged(runs["a0"][0], "workload") == tagged(runs["b0"][0], "workload"):
            problems.append(f"{w}: seeds 1 and 2 generated the same inputs")
        if tagged(runs["a1"][0], "work ") != tagged(runs["a1x"][0], "work "):
            problems.append(f"{w}: work counts differ between two runs of seed 1")
        if not set(tagged(runs["a0"][0], "work ")) <= set(tagged(runs["a1"][0], "work ")):
            problems.append(f"{w}: untraced and traced work counts differ")
        if "attribution cells byte-identical: true" not in runs["a1"][0]:
            problems.append(f"{w}: attribution cells are not byte-identical")
        builds = runs["a1"][1]["metrics"]["core.kernel_builds"]["value"]
        if w == "serve_open" and builds != 0:
            problems.append(f"serve_open: {builds} kernel builds on the warm path")
        print(f"smoke {w}: {'ok' if not problems else 'problems so far'}", file=sys.stderr)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds needs a positive count and --seed a non-negative one")
    binary = build()
    if args.smoke:
        sys.exit(0 if smoke(binary) else 1)
    out, _ = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
