#!/usr/bin/env python3
"""Builds the GRAPE benchmark from source and runs one workload.

    python3 perfbench/run.py --workload road-sssp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark program and the repository's
grape_core library are built with CMake into $CARGO_TARGET_DIR (default
.bench_build) under the checkout; later runs rebuild incrementally. The last
line of stdout is the program's JSON result; build output goes to stderr.
With --trace 1 the Chrome trace-event JSON of the run is written to
<build dir>/traces/<workload>-seed<seed>.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("road-sssp", "powerlaw-pagerank", "serve-mixed")
# A run must end within 180 s; leave room for start-up and teardown.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    """Configures (once) and builds `target`; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail(f"{ROOT} is not a GRAPE checkout (no CMakeLists.txt and src/)")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    # Configure every time (a no-op when nothing changed), so a target added
    # to the build file is known before it is built.
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "-j", jobs, "--target", target],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        except FileNotFoundError:
            fail("cmake not found")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, target)


def run_program(cmd):
    """Runs the program in its own process group; kills the group on timeout
    and waits for it, so no endpoint process outlives the run."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", code=3)
    finally:
        # Endpoint processes are the program's children; reap any straggler.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--selftest", action="store_true", help="build and run the helper unit checks"
    )
    args = parser.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_selftest")], cwd=ROOT).returncode)
    if args.workload is None:
        fail("--workload is required")

    program = build("grape_perfbench")
    cmd = [
        program,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]

    started = time.monotonic()
    code, stdout = run_program(cmd)
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        fail(f"benchmark exited with code {code}", code=code or 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the program's last line is not JSON", code=1)
    if set(result) != RESULT_KEYS:
        fail(f"result has keys {sorted(result)}", code=1)
    print(f"perfbench: {args.workload} ran {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    # Diagnostics line(s) first, the result line last.
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
