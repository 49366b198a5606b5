#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload sim_bmdos --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the current directory; build output goes to stderr, so
the last line of stdout is the workload's JSON result. Extra flags after the
four above are passed to the perfbench binary (e.g. --slow fs for the sensitivity
check). Exits non-zero when the build or the workload fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        print("perfbench: program sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j4"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return 1
    binary = os.path.join(build_dir, "perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
