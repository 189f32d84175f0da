#!/usr/bin/env python3
"""Builds the holix benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload explore|serve|churn --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout. The first call configures and builds
the engine's libraries and the benchmark binary under .bench_build/ (about
a minute on 4 cores); later calls only rebuild what changed. Build output
goes to stderr, so the last line on stdout is the binary's JSON result. The
exit code is the binary's: nonzero on a wrong answer, a failed operation, a
build failure or a timeout.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT_DIR, "perfbench-build")
BINARY = os.path.join(BUILD_DIR, "holix_perfbench")
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the binary; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            return False
    return True


def main(argv):
    try:
        os.makedirs(OUT_DIR, exist_ok=True)
        if not build():
            print("perfbench: build failed", file=sys.stderr)
            return 1
    except OSError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    cmd = [BINARY, *argv, "--out-dir", os.path.join(OUT_DIR, "perfbench")]
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False).returncode
        return rc if rc >= 0 else 1
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
