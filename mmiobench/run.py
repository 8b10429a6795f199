#!/usr/bin/env python3
"""Builds the mmio benchmark from this checkout's sources and runs one workload.

Usage (from the repository root):
  python3 mmiobench/run.py --workload <randread_ooc|ycsb_a_ooc|scan_fit> \
      --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/mmiobench (default .bench_build/mmiobench)
under the repository root; build output goes to stderr. The benchmark's last
stdout line is its JSON result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("randread_ooc", "ycsb_a_ooc", "scan_fit")
# A run measures for --seconds plus one round and its teardown; anything
# near this limit is a stall the benchmark's own deadlines failed to catch.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("mmiobench: no Aquila sources at %s/src" % ROOT, file=sys.stderr)
        return None
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "mmiobench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "mmio_bench", "--", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "mmio_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    binary = build()
    if binary is None:
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("mmiobench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    if code < 0:
        print("mmiobench: mmio_bench killed by signal %d" % -code, file=sys.stderr)
        return 128 - code
    return code


if __name__ == "__main__":
    sys.exit(main())
