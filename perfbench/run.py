#!/usr/bin/env python3
"""Builds the host-time benchmark from source and runs one workload.

    python3 perfbench/run.py --workload mr_paper --seed 0 --seconds 50 --trace 0

Workloads: mr_paper, mr_faults, spark_faults (see perfbench/NOTES.md).
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of a separate traced run. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.

The benchmark is its own cargo package (perfbench/Cargo.toml) with path
dependencies on the repository's crates; it builds into $CARGO_TARGET_DIR
(default: .bench_build at the repository root). Set-up time is measured in
SETUP_RUNS fresh processes and reported as their median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 5
# The whole invocation, build excluded, must end well within 180 s.
DEADLINE_S = 170.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def tool_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_bench(cmd, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time")
    try:
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if out.returncode != 0:
        fail(f"exit code {out.returncode}: {' '.join(cmd)}")
    lines = out.stdout.splitlines()
    if not lines:
        fail(f"no output: {' '.join(cmd)}")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["mr_paper", "mr_faults", "spark_faults"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be a non-negative integer")

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
    )
    if build.returncode != 0:
        fail("build failed")

    deadline = time.monotonic() + DEADLINE_S
    binary = os.path.join(target, "release", "ipso-perfbench")
    base = [binary, "--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if args.trace == 0:
        for _ in range(SETUP_RUNS - 1):
            setups.append(json.loads(run_bench(base + ["--setup-only"], deadline)[-1])["setup_s"])
    cmd = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--spans-out", os.path.join(target, f"spans-{args.workload}-{args.seed}.jsonl")]
    lines = run_bench(cmd, deadline)
    result = json.loads(lines[-1])

    record = {}
    for line in lines[:-1]:
        if line.startswith("ENV "):
            record = json.loads(line[4:])
        else:
            print(line)
    if args.trace == 0:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        record["setup_samples"] = len(setups)
    commit = tool_output(["git", "rev-parse", "HEAD"]) if os.path.isdir(os.path.join(ROOT, ".git")) else None
    record.update(
        rustc=tool_output(["rustc", "--version"]),
        git_commit=commit or "unknown (not a git checkout)",
        build_profile="release",
    )
    print("env " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
