#!/usr/bin/env python3
"""Builds and runs the repository's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload figures|serve_traffic|serve_chaos \
        --seed N --seconds S --trace 0|1

Builds the `mcast` daemon (the repository's workspace) and the harness
(its own workspace, in this directory: `perfbench` for measured runs,
`perfbench-trace` for traced ones) with cargo, into $CARGO_TARGET_DIR
(default `.bench_build`), then runs one workload.
The last line of standard output is the JSON result. With `--record`
instead of a workload it re-records the serve workloads' references in
`perfbench/refs/`.
"""

import argparse
import os
import subprocess
import sys


def build(root, target, harness):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    here = os.path.dirname(os.path.abspath(__file__))
    builds = [
        [os.path.join(root, "Cargo.toml"), "-p", "bench", "--bin", "mcast"],
        [os.path.join(here, "Cargo.toml"), "--bin", harness],
    ]
    for manifest, *extra in builds:
        if not os.path.isfile(manifest):
            sys.exit(f"perfbench: {manifest} not found; run from the repository root")
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest, *extra]
        # Cargo's output goes to stderr so stdout ends with the result.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["figures", "serve_traffic", "serve_chaos"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true",
                    help="re-record perfbench/refs/ instead of running a workload")
    args = ap.parse_args()
    if not args.record and args.workload is None:
        ap.error("--workload is required")

    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # Only the traced run links against layer functions; the measured
    # run builds without it, so a layer API change cannot break it.
    harness = "perfbench-trace" if args.trace else "perfbench"
    build(root, target, harness)
    exe = os.path.join(target, "release", harness)
    mcast = os.path.join(target, "release", "mcast")
    if args.record:
        cmd = [exe, "record", "--mcast", mcast]
    else:
        cmd = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--mcast", mcast, "--out", os.path.join(target, "perfbench")]
    # One CPU for the harness and everything it starts: a closed-loop
    # client and the daemon hand each request back and forth, and on a
    # shared host a hand-off across CPUs costs a varying wake-up latency
    # that would dominate small requests. Pinning also keeps the
    # figures' sweep on one worker thread.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.exit(subprocess.run(cmd, cwd=root).returncode)


if __name__ == "__main__":
    main()
