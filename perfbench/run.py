#!/usr/bin/env python3
"""Build and run the CS-ECG receive-path benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The library (src/) and the benchmark
(perfbench/) are configured and built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the
benchmark's self-test runs after every build. Build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result. The exit code is non-zero when the build, the self-test or
the run fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("monitor_cold_cr50", "fleet_saturated_mixed", "gateway_lossy_warm")


def run(cmd, **kwargs):
    """Runs cmd to completion with its output on standard error."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kwargs)


def build(root, build_dir):
    """Configures (once) and builds; runs the self-test when anything was
    rebuilt. Returns an error message or None."""
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        return "library sources (src/) not found; run from the repository root"
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if run(["cmake", "-S", source, "-B", build_dir,
                "-DCMAKE_BUILD_TYPE=Release"]).returncode != 0:
            return "cmake configure failed"
    bench = os.path.join(build_dir, "csecg_perfbench")
    before = os.path.getmtime(bench) if os.path.exists(bench) else None
    if run(["cmake", "--build", build_dir, "-j3"]).returncode != 0:
        return "build failed"
    stamp = os.path.join(build_dir, "selftest.passed")
    rebuilt = before is None or os.path.getmtime(bench) != before
    if rebuilt or not os.path.exists(stamp):
        if run([os.path.join(build_dir, "perfbench_selftest")]).returncode != 0:
            return "benchmark self-test failed"
        with open(stamp, "w") as f:
            f.write("ok\n")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    error = build(root, build_dir)
    if error:
        print("perfbench: " + error, file=sys.stderr)
        return 1
    cmd = [os.path.join(build_dir, "csecg_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans",
                os.path.join(build_dir, "spans-%s.jsonl" % args.workload)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
