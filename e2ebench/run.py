#!/usr/bin/env python3
"""Builds and runs the wydb end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a wydb checkout. The benchmark is compiled from the
checkout's sources with its own CMake project (e2ebench/CMakeLists.txt) into
$CARGO_TARGET_DIR/e2ebench, or .bench_build/e2ebench when that is unset, as
a Release build; a build of any other type is refused. Every line of the
benchmark's output is passed through; the last one is the result JSON.
Exits non-zero, without a result, when the build fails.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve-cold", "serve-resubmit", "analyze-large", "runtime-farm")
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "e2ebench")


def cmake_cache(build):
    values = {}
    try:
        with open(os.path.join(build, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    values[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return values


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    if cmake_cache(out).get("CMAKE_BUILD_TYPE") != "Release":
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    build_type = cmake_cache(out).get("CMAKE_BUILD_TYPE")
    if build_type != "Release":
        raise RuntimeError("refusing to measure a %r build" % build_type)
    return os.path.join(out, "wydb_e2ebench")


def commit():
    """HEAD of the checkout, when the checkout itself is a git work tree."""
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        lines = r.stdout.split()
        if r.returncode == 0 and len(lines) == 2 and \
                os.path.samefile(lines[0], os.getcwd()):
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and short phases")
    args = parser.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError, RuntimeError) as e:
        print("e2ebench: build failed: %s" % e, file=sys.stderr)
        return 3
    print("provenance: build_type=Release commit=%s" % commit(), flush=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--workdir", os.path.join(build_dir(), "work")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
