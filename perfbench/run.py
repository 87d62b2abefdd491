#!/usr/bin/env python3
"""Builds the daemon and the benchmark from this checkout, then runs once.

Usage (from the repository root):

    python3 perfbench/run.py --workload steady --seed 1 --seconds 10 --trace 0

Workloads are `onboard`, `steady` and `journaled`; see perfbench/README.md.
Both binaries are built in release mode into $CARGO_TARGET_DIR
(default `.bench_build`); scratch files go to `.bench_out`. Build output
goes to stderr; the last stdout line is the run's JSON result. Exits
non-zero, printing no result, when either build or the run itself fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "cordial-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for build in builds:
        done = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(build), file=sys.stderr)
            return done.returncode or 1
    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--cli", os.path.join(release, "cordial-cli"),
        "--work-dir", os.path.join(ROOT, ".bench_out"),
    ]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
