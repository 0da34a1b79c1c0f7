#!/usr/bin/env python3
"""Build and run the pod benchmark.

    python3 podbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds the podbench package
(its own CMake project, which compiles the library sources under src/)
into .bench_build/podbench, then runs one benchmark invocation. The
benchmark prints a summary and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics. The exit code is the
benchmark's: 0 when every correctness check passed.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

# Whole-invocation budget: building on a first run may take longer, so the
# run's own limit is what is left after the build.
RUN_LIMIT_S = 170


def log(msg):
    print(f"podbench/run.py: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(root / "podbench"), "-B",
                     str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_cmd = ["cmake", "--build", str(build_dir), "--target",
                   "podbench", "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build" / "podbench"
    if not build(root, build_dir):
        log("build failed")
        return 1

    cmd = [str(build_dir / "podbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", str(build_dir / f"spans-{args.workload}.csv")]
    start = time.monotonic()
    try:
        result = subprocess.run(cmd, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        log(f"benchmark exceeded {RUN_LIMIT_S} s after "
            f"{time.monotonic() - start:.1f} s")
        return 1
    if result.returncode != 0:
        log(f"benchmark exited with code {result.returncode}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
