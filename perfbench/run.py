#!/usr/bin/env python3
"""Build and run the anonet benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds perfbench/anobench.exe
from source in the release profile (build directory .bench_build, dune
cache off, so nothing is written outside the checkout), then runs it
with the same arguments.  Build output goes to stderr; the benchmark's
stdout passes through, and its last line is the JSON result.

Extra flags, passed through: --small (the self-test's small inputs) and
--tamper map|parity|result (negative controls).  See README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("interval-protocols", "scalar-engines", "serve-mix")
DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--tamper", choices=("map", "parity", "result"))
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: the library sources (dune-project, lib/) are missing; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    dune = dune_command()
    if dune is None:
        print("run.py: dune not found", file=sys.stderr)
        return 2

    build = dune + ["build", "--root", ".", "--build-dir", ".bench_build",
                    "--profile", "release", "--cache=disabled",
                    "./perfbench/anobench.exe"]
    try:
        b = subprocess.run(build, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 2
    if b.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    exe = os.path.join(".bench_build", "default", "perfbench", "anobench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.small:
        cmd.append("--small")
    if args.tamper:
        cmd += ["--tamper", args.tamper]
    sys.stdout.flush()
    try:
        r = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark run timed out", file=sys.stderr)
        return 2
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
