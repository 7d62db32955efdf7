#!/usr/bin/env python3
"""Builds and runs shlcp_bench, the repository's end-to-end benchmark.

    python3 bench/e2e/run.py --workload W --seed N [--trace 0|1]
                             [--seconds 20] [--result PATH] [--smoke]

Run it from the repository root. The first call configures and builds
bench/e2e (the library from src/, shlcpd, shlcp_router, shlcp_bench) in
$CARGO_TARGET_DIR/e2e, or .bench_build/e2e when that is unset; later calls
only rebuild what changed. Build output goes to stderr, and a failed build
exits nonzero without printing a result.

The run length is fixed at 20 s (shlcp_bench's kRunSeconds, and
BENCHMARK.json's run_seconds). --seconds is accepted because the benchmark
interface passes it; any other value is refused.

shlcp_bench's stdout passes through unchanged. Its last line is the
result: {"correct", "attempted", "failed", "metrics"}. With --trace 1 it
holds the per-layer metrics and the spans go to a .trace.jsonl file next
to the result JSON. The result JSON goes to results/ in the build
directory unless --result says otherwise.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_SECONDS = 20


def build(build_dir):
    """Configures (once) and builds; returns the shlcp_bench path or None."""
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Compiler temporaries stay inside the build directory.
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--parallel", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return None
    return os.path.join(build_dir, "shlcp_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--result")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seconds != RUN_SECONDS:
        parser.error("--seconds must be %d: the run length is fixed"
                     % RUN_SECONDS)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "e2e")
    bench = build(build_dir)
    if bench is None:
        print("run.py: build failed", file=sys.stderr)
        return 1

    stem = "%s-seed%d%s" % (args.workload, args.seed,
                            "-trace" if args.trace == "1" else "")
    result = args.result or os.path.join(build_dir, "results", stem + ".json")
    os.makedirs(os.path.dirname(result) or ".", exist_ok=True)
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--result", result]
    if args.trace == "1":
        cmd += ["--trace", os.path.splitext(result)[0] + ".trace.jsonl"]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
