#!/usr/bin/env python3
"""Build and run the gmpx end-to-end benchmark.

    python3 perfbench/run.py --workload fuzz_oracle --seed 1 --seconds 20 --trace 0

Configures and builds perfbench/ as a Release tree under .bench_build/ at
the repository root (or under $CARGO_TARGET_DIR when that is set), then
runs one workload.  Build output goes to standard error; the last line of
standard output is the JSON result.  Exits non-zero, without a result, when
the build or the run fails.  See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("fuzz_oracle", "fuzz_phi", "mux_soak", "tcp_live")
RUN_TIMEOUT_S = 170


def step(cmd):
    """Run a build command with its output on stderr; exit on failure."""
    res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        print("perfbench: command failed: " + " ".join(cmd), file=sys.stderr)
        sys.exit(res.returncode if res.returncode > 0 else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds within (0, 600]")

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.join(out, "perfbench")
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        step(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", build, "--target", "perfbench", "-j", str(min(4, os.cpu_count() or 1))])

    cmd = [os.path.join(build, "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s-%d.json" % (args.workload, args.seed))]
    try:
        res = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s and was stopped" % RUN_TIMEOUT_S, file=sys.stderr)
        sys.exit(3)
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
