#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

    python3 perfbench/run.py --workload table1|insertion|service \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds
perfbench/CMakeLists.txt (the clktune library, the `clktune` daemon and the
harness) under $CARGO_TARGET_DIR, default .bench_build; later calls only
rebuild what changed.  Build output goes to standard error.  The harness's
standard output is passed through unchanged: its last line is the JSON
result.  Scratch files (daemon cache directories, traces) go to .perfbench/.
Exit status: the harness's, or 2 when the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table1", "insertion", "service")


def build(build_dir):
    """Configures and builds the harness; returns False on any failure."""
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release", "-DBUILD_TESTING=OFF"]
    compile_ = ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                "--target", "perfbench", "clktune"]
    for command in (configure, compile_):
        if subprocess.call(command, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--clktune", os.path.join(build_dir, "clktune"),
        "--work-dir", os.path.join(ROOT, ".perfbench"),
        "--root", ROOT,
    ]
    sys.stdout.flush()
    return subprocess.call(command)


if __name__ == "__main__":
    sys.exit(main())
