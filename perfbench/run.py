#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload campaign|serve|online --seed N \
        --seconds S --trace 0|1

Builds perfbench/ (which compiles the library from src/) into .bench_build/,
runs one workload, and relays the benchmark's output.  The last line of
standard output is the result JSON.  Exits non-zero, without a result line,
if the build or the run fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

BUILD_ROOT = ".bench_build"
RUN_TIMEOUT_S = 170


def build(bench_dir, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, "build.lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)]]
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
                return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=["campaign", "serve", "online"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.getcwd()
    binary = build(bench_dir, os.path.join(root, BUILD_ROOT, "perfbench"))
    if binary is None:
        return 1

    workdir = os.path.join(root, BUILD_ROOT, "runs", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        kept = lines[:-1] if lines and lines[-1].startswith("{") else lines
        sys.stdout.write("\n".join(kept) + "\n")
        sys.stderr.write("perfbench: benchmark exited with %d\n" % proc.returncode)
        return proc.returncode
    try:
        result = json.loads(lines[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            raise ValueError("unexpected keys %s" % sorted(result))
    except ValueError as e:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write("perfbench: malformed result line: %s\n" % e)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
