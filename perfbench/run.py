#!/usr/bin/env python3
"""Builds the padx benchmark program from this checkout and runs one workload.

    python3 perfbench/run.py --workload search-l1|daemon-lint \
        --seed N --seconds S --trace 0|1

Run it from the root of a padx checkout. The first run configures and
builds perfbench/CMakeLists.txt (the padx libraries plus padx_bench) in
.bench_build/; later runs rebuild incrementally. Build output goes to
stderr; the benchmark's own output, ending in the one-line JSON result, goes
to stdout. Without the padx sources next to perfbench/ the build fails and
the script exits with status 1 and no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "padx_bench")
RUN_TIMEOUT_S = 175


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target", "padx_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def main():
    try:
        ok = build()
    except OSError as e:  # cmake missing
        print(f"run.py: cannot build: {e}", file=sys.stderr)
        ok = False
    if not ok:
        print("run.py: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    try:
        return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
