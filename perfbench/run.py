#!/usr/bin/env python3
"""Build the benchmark and the server it drives, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 10 --trace 0

Builds perfbench/bench.exe and bin/uload.exe with dune (build output
goes to standard error), then runs bench.exe with the same arguments.
Its exit code is this script's; the last line of standard output is the
benchmark's JSON result. `--self-test` runs the benchmark's own tests.
"""
import os
import subprocess
import sys

BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
ULOAD = os.path.join("_build", "default", "bin", "uload.exe")


def main():
    # Keep every build artefact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/bench.exe", "./bin/uload.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([BENCH, *sys.argv[1:], "--uload", ULOAD]).returncode


if __name__ == "__main__":
    sys.exit(main())
