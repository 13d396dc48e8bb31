#!/usr/bin/env python3
"""Builds and runs the pargreedy benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload static_random --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The program is built from source into $CARGO_TARGET_DIR (default
.bench_build) with CMake; a rebuild is incremental. The last line of
standard output is one JSON object holding `correct`, `attempted`,
`failed` and the metrics BENCHMARK.json names: its `end_to_end` metrics
with --trace 0, its `per_layer` metrics with --trace 1. Exits non-zero,
without that line, when the build, the run or a metric is missing.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("static_random", "dynamic_small", "dynamic_large")
BENCH_DIR = Path(__file__).resolve().parent


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir, target):
    """Configures and builds `target`; build output goes to stderr."""
    cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
           "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(build_dir), "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / target


def select(result, names):
    """The run's JSON restricted to `names`; every one must be present."""
    metrics = result["metrics"]
    out = {}
    for name in names:
        m = metrics.get(name)
        if m is None or not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            fail(f"metric {name} missing or not a finite number")
        out[name] = m
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": out}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if args.selftest:
        exe = build(build_dir, "perfbench_selftest")
        sys.exit(subprocess.run([str(exe)]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    spec_path = Path("BENCHMARK.json")
    if not spec_path.exists():
        fail("BENCHMARK.json not found; run from the root of the checkout")
    spec = json.loads(spec_path.read_text())
    names = [m["name"] for m in
             spec["per_layer" if args.trace else "end_to_end"]]

    exe = build(build_dir, "perfbench")
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out",
                str(build_dir / f"spans-{args.workload}-{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"perfbench exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(select(json.loads(lines[-1]), names)))


if __name__ == "__main__":
    main()
