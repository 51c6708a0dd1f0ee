#!/usr/bin/env python3
"""Builds the wirebench driver from source and runs one workload.

Usage (from the repository root):

    python3 wirebench/run.py --workload adhoc|serve|churn --seed N \
        --seconds S --trace 0|1 [--corpus-seed N] [--trace-file PATH]

The first call configures and builds a Release tree under
.bench_build/wirebench (the library from src/ plus wirebench.cpp); later
calls rebuild incrementally. Build output goes to standard error, so the
last line of standard output is the driver's JSON result. Plan
verification is left at the library default (off in Release): the
XQJG_VALIDATE_PLANS variable is removed from the driver's environment,
since it changes compile time.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "wirebench")
BINARY = os.path.join(BUILD, "wirebench")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("wirebench: no src/ beside wirebench/; nothing to build\n")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "wirebench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            sys.stderr.write("wirebench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    if not build():
        return 1
    env = dict(os.environ)
    env.pop("XQJG_VALIDATE_PLANS", None)
    try:
        done = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("wirebench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
