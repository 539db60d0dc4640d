#!/usr/bin/env python3
"""Build and run the repository benchmark described by BENCHMARK.json.

usage (from the repository root):

    python3 perfbench/run.py --workload <serve-mixed|flat-300|multilevel-5k>
                             [--seed N] [--seconds S] [--trace 0|1]

Builds the `tm-ic-serve` server and the `perfbench` package in release mode
into $CARGO_TARGET_DIR (default `.bench_build`), then runs the benchmark.
Build output goes to standard error; the benchmark's last line on standard
output is the JSON result. Exits non-zero when the build fails, a
correctness check fails, or the run overstays its time limit.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build(env):
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "ic-serve", "--bin", "tm-ic-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    for needed in ("Cargo.toml", os.path.join("crates", "serve", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: {needed} not found; run from a checkout of the repository")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    build(env)
    binary = os.path.join(target, "release", "perfbench")
    # A session of its own, so a timeout stops the server child too.
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
