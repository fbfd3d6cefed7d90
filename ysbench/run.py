#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of the repository:

    python3 ysbench/run.py --workload paper_batch --seed 1 --seconds 15 --trace 0

The build goes to $CARGO_TARGET_DIR (default: ysbench/target). Cargo's
output goes to stderr, so the last line on stdout is the benchmark's JSON
result. The exit code is the build's when it fails, else the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target,
               YSBENCH_SCRATCH=os.path.join(target, "ysbench-scratch"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("ysbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "ysmart-steady-bench")
    code = subprocess.run([exe] + sys.argv[1:], env=env).returncode
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
