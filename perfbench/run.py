#!/usr/bin/env python3
"""Builds the benchmark harness and reqiscd from this checkout, then runs
one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Both binaries are built from the checked-out sources into
$CARGO_TARGET_DIR (default: .bench_build at the checkout root), so the
daemon under test is always this commit's. The last line of stdout is the
harness's JSON result; build output and diagnostics go to stderr. See
perfbench/README.md for the workloads and metrics.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must finish within 180 s; stop a stuck one before that.
HARNESS_TIMEOUT_S = 170


def build(env):
    """Builds reqiscd (repository workspace) and the harness (its own)."""
    steps = [
        ["cargo", "build", "--release", "--quiet", "-p", "reqisc-service", "--bin", "reqiscd"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "service")
    ):
        print("perfbench: run from a checkout of the repository", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "reqisc-perfbench"), "--reqiscd",
           os.path.join(release, "reqiscd")] + sys.argv[1:]
    # Its own process group, so a stuck harness goes down together with
    # any daemon it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        rc = proc.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {HARNESS_TIMEOUT_S} s", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        rc = 1
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # leftovers of a crashed harness
    except ProcessLookupError:
        pass
    return rc


if __name__ == "__main__":
    sys.exit(main())
