#!/usr/bin/env python3
"""Builds the mediator benchmark from source and runs one workload.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR when it
is set, else to .bench_build; state directories and trace files go to
<build dir>/work and the state directories are removed when the run ends.
The last line of standard output is the run's JSON result; build output
goes to standard error. The exit code is the benchmark's: non-zero when the
build fails, the arguments are bad, or any correctness check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ingest", "serve", "closure")


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "mediator_bench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "mediator_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", args.trace,
         "--work-dir", work_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
