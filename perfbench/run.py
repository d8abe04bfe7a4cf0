#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_small --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

It builds the `cdcs-serve` / `cdcs-runner` daemon binaries from the
repository workspace and the `perfbench` package beside this file (both in
release mode, into $CARGO_TARGET_DIR, default `.bench_build`), then runs
`perfbench` from the repository root. The benchmark's last line of stdout is
its JSON result. The benchmark runs in a process group of its own; every
process left in that group is killed, and waited for, before this script
exits.
"""

import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Whole-run limit: stay inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(target_dir):
    """Builds every binary the benchmark needs; exits non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "serve")
    ):
        fail(f"{ROOT} is not the repository root (no Cargo.toml or crates/serve)")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "cdcs-serve", "--bins"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        # Cargo's output goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


def reap_group(child):
    """Kills whatever is left in the benchmark's process group and waits."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    child.wait()
    deadline = time.monotonic() + 5
    while group_alive(child.pid) and time.monotonic() < deadline:
        time.sleep(0.01)


def main():
    os.chdir(ROOT)
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(target_dir)
    release = os.path.join(target_dir, "release")
    work_dir = os.path.join(target_dir, "perfbench")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--serve-bin", os.path.join(release, "cdcs-serve"),
        "--runner-bin", os.path.join(release, "cdcs-runner"),
        "--work-dir", work_dir,
    ]
    child = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)

    def on_signal(signum, _frame):
        reap_group(child)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        code = 3
    finally:
        reap_group(child)
    sys.exit(code)


if __name__ == "__main__":
    main()
