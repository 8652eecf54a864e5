#!/usr/bin/env python3
"""Build and run the simulator's host-time benchmark.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
simulator library plus the `hostbench` binary into .bench_build/hostbench
(later runs only re-check the build); build output goes to stderr. The
binary's standard output is passed through unchanged: its last line is
the JSON result. Before building, the API guard (test_api_guard.py)
checks that the benchmark sources use no entry point slated for
removal; a violation fails the run.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import test_api_guard  # noqa: E402  (lives next to this script)

BUILD_DIR = os.path.join(ROOT, ".bench_build", "hostbench")
JOBS = "4"
# Compiler and run scratch files stay inside the checkout too.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
ENV = dict(os.environ, TMPDIR=TMP_DIR)


def build():
    """Configure (first time only) and build the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("hostbench: simulator sources not found under " + ROOT)
    os.makedirs(TMP_DIR, exist_ok=True)
    log = sys.stderr
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build tree configured from another source tree (a copied
        # checkout) cannot be reused: start it afresh.
        with open(cache) as f:
            text = f.read()
        homes = {"CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % d
                 for d in (HERE, os.path.realpath(HERE))}
        if not any(h in text for h in homes):
            shutil.rmtree(BUILD_DIR)
    if not os.path.isfile(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR],
                       stdout=log, stderr=log, env=ENV, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "hostbench",
                    "-j", JOBS], stdout=log, stderr=log, env=ENV, check=True)
    return os.path.join(BUILD_DIR, "hostbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    violations = test_api_guard.scan_sources()
    if violations:
        for v in violations:
            print("hostbench: " + v, file=sys.stderr)
        sys.exit(1)

    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        sys.exit("hostbench: build failed (%s)" % e)

    out_dir = os.path.join(BUILD_DIR, "run")
    os.makedirs(out_dir, exist_ok=True)
    proc = subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", args.trace,
                           "--out-dir", out_dir], env=ENV)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
