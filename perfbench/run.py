#!/usr/bin/env python3
"""Builds and runs the observatory benchmark.

    python3 perfbench/run.py --workload wire_reads --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles the library from ../src)
under $CARGO_TARGET_DIR, or .bench_build at the repository root, then runs
one workload (--workload all runs the three in turn). Build output goes to
stderr; the benchmark's own output, whose last line is the JSON result,
goes to stdout. Scratch data and the run record stay under the build
directory.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("wire_reads", "fire_chain", "durable_writes")
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(bench_dir)
    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(out_root):
        out_root = os.path.join(repo, out_root)
    build_dir = os.path.join(out_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))

    for cmd in (
        ["cmake", "-S", bench_dir, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
    ):
        built = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        if len(workloads) > 1:
            print("== " + workload, flush=True)
        cmd = [os.path.join(build_dir, "perfbench"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", os.path.join(out_root, "work"),
               "--results", os.path.join(out_root, "results")]
        try:
            run = subprocess.run(cmd, cwd=repo, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: run timed out", file=sys.stderr)
            return 1
        if run.returncode != 0:
            return run.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
