#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload cti_hunt --seed 1 --seconds 10 --trace 0

Workloads: cti_hunt, analysts, live_soc, bulk_ingest (see perfbench/METRICS.md).
The first call configures and builds perfbench/ (which pulls in the
repository's CMake build) into $CARGO_TARGET_DIR, or .bench_build when that
is unset; later calls rebuild incrementally. The benchmark binary writes its
data directories under the same build directory and removes them when it
ends. The last line of standard output is the result JSON; build logs go to
standard error. A failed build or run exits non-zero without a result line.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out_dir):
    cmake_dir = os.path.join(out_dir, "cmake")
    steps = [
        ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "--target", "perfbench", "-j4"],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            return None
    return os.path.join(cmake_dir, "perfbench")


def main():
    out_dir = build_dir()
    os.makedirs(out_dir, exist_ok=True)
    binary = build(out_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    work_dir = os.path.join(out_dir, "work-%d" % os.getpid())
    cmd = [binary] + sys.argv[1:] + ["--work-dir", work_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(l for l in lines if not l.startswith("{")))
        sys.stdout.write("\n")
        print("perfbench: run failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 4
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
