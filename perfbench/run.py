#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <window|knn|fleet|fade|all> \
        --seed <n> --seconds <s> --trace <0|1> [--workers <n>]

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode,
offline, into $CARGO_TARGET_DIR (default perfbench/target), then run with
the same arguments from the checkout root. Its last line of standard
output is the JSON result; build output goes to standard error. The exit
code is the benchmark's, or 1 when the build fails. `--workload all` runs
every workload of BENCHMARK.json in turn and exits with the worst code.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "dsi-perfbench")
    args = sys.argv[1:]
    at = args.index("--workload") + 1 if "--workload" in args else None
    if at is None or at >= len(args) or args[at] != "all":
        sys.stdout.flush()
        return subprocess.run([exe] + args, cwd=ROOT).returncode
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    worst = 0
    for name in names:
        sys.stdout.flush()
        args[at] = name
        worst = max(worst, subprocess.run([exe] + args, cwd=ROOT).returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
