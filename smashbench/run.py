#!/usr/bin/env python3
"""Build and run the served-workload benchmark.

    python3 smashbench/run.py --workload {interactive,bulk,drift} \
        --seed N --seconds S --trace {0,1}
    python3 smashbench/run.py --test      # the benchmark's own tests

Run from the repository root. The first call configures and builds
smashbench/CMakeLists.txt (the SMASH library from src/ plus the
benchmark) into $CARGO_TARGET_DIR/smashbench, or .bench_build/smashbench
when that variable is unset; later calls only rebuild what changed.
Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. See smashbench/README.md for the workloads
and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("interactive", "bulk", "drift")
RUN_TIMEOUT_S = 170


def build(target):
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                       "smashbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("smashbench: build failed: " + " ".join(cmd))
    return out


def main():
    if sys.argv[1:] == ["--test"]:
        out = build("smashbench_tests")
        sys.exit(subprocess.run([os.path.join(out, "smashbench_tests")])
                 .returncode)

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    out = build("smashbench")
    # Library-internal tracing stays off: spans come from the
    # benchmark's own files only.
    env = {k: v for k, v in os.environ.items() if k != "SMASH_TRACE"}
    cmd = [os.path.join(out, "smashbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           # Relative, to stay inside the Unix socket path limit.
           "--sock-dir", os.path.relpath(out)]
    try:
        sys.exit(subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
                 .returncode)
    except subprocess.TimeoutExpired:
        sys.exit("smashbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    main()
