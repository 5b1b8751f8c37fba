#!/usr/bin/env python3
"""Benchmark entry point for the shipped hmmm daemons.

Builds hmmm_serverd, hmmm_coordd and hmmm_loadgen from this checkout's
sources into .bench_build/ (once; later runs reuse the build), then runs one
workload and relays the load generator's report. The last stdout line is
the JSON result.

    python3 hmmm_loadgen/run.py --workload hot_cached --seed 1 --seconds 10 --trace 0

Workloads: hot_cached, cold_scan, train_mix, sharded_snapshot.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
TARGETS = ["hmmm_serverd", "hmmm_coordd", "hmmm_loadgen"]
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark targets; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    else:
        generator = []  # the cache remembers it
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD] + generator,
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target"] + TARGETS, check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"build failed: {error}", file=sys.stderr)
        return 1

    work_dir = os.path.join(BUILD, f"work-{os.getpid()}")
    command = [os.path.join(BUILD, "hmmm_loadgen"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--bin-dir", BUILD, "--work-dir", work_dir]
    # Its own process group holds the load generator and every daemon it
    # spawns, so nothing outlives the run even if it has to be killed.
    child = subprocess.Popen(command, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("load generator timed out", file=sys.stderr)
        return 1
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
