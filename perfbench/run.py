#!/usr/bin/env python3
"""Bytes-to-verdict benchmark of `cesc check` (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload ocp_burst_sparse --seed 1 --seconds 10 --trace 0

Builds the benchmark (and with it the cesc library) from source with
cargo, generates the seeded workload into .bench_build/perfbench-data/,
checks it for --seconds seconds and prints the run's context as one
JSON line, then the result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--seed held-out stands for the held-out seed (HELD_OUT_SEED). Exits
non-zero without a result when the build, the generator or a check
fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ocp_burst_sparse", "bus_lib_3clk", "fleet_dense_2clk")
# never used while the benchmark was tuned: re-check a claim on it
HELD_OUT_SEED = 20261017
BUILD_TIMEOUT_S = 840
GEN_TIMEOUT_S = 120


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def tool_output(cmd):
    """First line of a tool's stdout, or "unknown"."""
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    line = out.stdout.strip().splitlines()[:1]
    return line[0] if out.returncode == 0 and line else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    seed = HELD_OUT_SEED if args.seed == "held-out" else int(args.seed)

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(target, "release", "perfbench")
    data = os.path.join(".bench_build", "perfbench-data", args.workload)
    common = ["--workload", args.workload, "--seed", str(seed), "--dir", data]

    gen = subprocess.run([binary, "gen", *common], stdout=sys.stderr, timeout=GEN_TIMEOUT_S)
    if gen.returncode != 0:
        fail("workload generation failed")

    run = subprocess.run(
        [binary, "run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, timeout=args.seconds + 150)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or len(lines) < 2:
        sys.stderr.write(run.stdout)
        fail(f"run failed (exit {run.returncode})")
    context = json.loads(lines[-2])
    context["context"].update(
        held_out=seed == HELD_OUT_SEED,
        git_revision=tool_output(["git", "--git-dir=.git", "rev-parse", "HEAD"]),
        rustc=tool_output(["rustc", "--version"]),
    )
    print(json.dumps(context))
    print(lines[-1])


if __name__ == "__main__":
    main()
