#!/usr/bin/env python3
"""Builds the campaign benchmark from source, then runs one workload.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload borg-waterwise --seed 1 \
        --seconds 20 --trace 0

The build goes to .bench_build/perfbench (incremental after the first run);
its output is sent to stderr so the last line of stdout stays the result
JSON that campaign_bench prints.  Every argument is passed through.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "campaign_bench")


def build():
    if not os.path.isfile(os.path.join(BUILD, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
