#!/usr/bin/env python3
"""Builds and runs the DEKG-ILP benchmark.

    python3 perfbench/run.py --workload paper_table|serve_score|serve_churn \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
the repository's libraries, dekg_serve and the benchmark in Release mode
under .bench_build/perfbench (later calls rebuild incrementally). The
benchmark's last line of stdout is its one-line JSON result; with
--trace 1 the spans of the run are kept in .bench_build/traces/. Exits
nonzero when the build fails, an output check fails, or the run exceeds
its time limit.
"""
import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BENCH_DIR, "perfbench")
WORKLOADS = ("paper_table", "serve_score", "serve_churn")
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BENCH_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                         "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.call(configure, stdout=sys.stderr) != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                return False
        jobs = str(max(1, os.cpu_count() or 1))
        targets = ["perfbench", "perfbench_test", "dekg_serve"]
        cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + targets
        return subprocess.call(cmd, stdout=sys.stderr) == 0


def run(args):
    work_dir = os.path.join(BENCH_DIR, "work",
                            "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(BUILD_DIR, "dekg_tools", "dekg_serve"),
           "--work-dir", work_dir]
    sys.stdout.flush()
    # SIGTERM becomes an exception, so the cleanup below still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    # Own process group: on a timeout the benchmark and any dekg_serve it
    # started are killed together.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run did not finish in %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        code = 1
    if args.trace:
        trace = os.path.join(work_dir, "trace.json")
        if os.path.exists(trace):
            traces = os.path.join(BENCH_DIR, "traces")
            os.makedirs(traces, exist_ok=True)
            shutil.move(trace, os.path.join(
                traces, "%s-seed%d.json" % (args.workload, args.seed)))
    shutil.rmtree(work_dir, ignore_errors=True)
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
