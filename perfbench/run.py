#!/usr/bin/env python3
"""Builds and runs the Blaze benchmark for one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <pagerank|svdpp-ser|churn> \
        --seed <n> --seconds <s> --trace <0|1>

The script builds the `blaze-perfbench` binary from source (release,
offline; `CARGO_TARGET_DIR` defaults to `.bench_build`), runs it, and relays
its standard output. The binary's last output line is the result: one JSON
object with `correct`, `attempted`, `failed` and `metrics`. See
`perfbench/README.md` for the workloads and metrics.

The exit code is the binary's, or 1 when the build fails or the run
overruns its time limit; in both cases no result line is printed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BINARY = "blaze-perfbench"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def commit_id():
    """The checked-out commit, or "unknown" outside a git checkout."""
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run(cmd, env, timeout, stdout):
    """Runs `cmd` to completion; kills it (and waits) if it overruns."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {cmd[0]} exceeded {timeout} s and was stopped", file=sys.stderr)
        return None
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    # Build output goes to stderr so the last stdout line stays the result.
    code = run(build, env, BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1

    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", BINARY)
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--commit", commit_id(),
    ]
    sys.stdout.flush()
    code = run(cmd, env, RUN_TIMEOUT_S, None)
    return 1 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
