#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload corpus-seq --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest      # the benchmark helpers' tests

Run from the root of a checkout. Everything the run leaves behind goes under
$CARGO_TARGET_DIR (default .bench_build) inside the checkout: the CMake build,
the compiled drivers' scratch directory and, with --trace 1, the Chrome trace.
The last line of standard output is the benchmark's JSON result; build output
goes to standard error.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170  # the whole run must end within 180 s
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(target):
    if not (ROOT / "src" / "core" / "session.h").is_file():
        fail(f"no RevNIC sources under {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out / target


def run_workload(args):
    binary = build("perfbench")
    scratch = build_dir() / "tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(scratch))  # the toolchain probe's temp files
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(build_dir() / "traces"), "--workdir", str(build_dir() / "work")]
    # Its own process group, so a timeout also stops the host C compiler it
    # may be running.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"workload {args.workload} ran past {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(out)
        fail(f"perfbench exited {proc.returncode} without a result")
    sys.stdout.write(out)


def selftest():
    build("bench_stats_test")
    rc = subprocess.run(["ctest", "--test-dir", str(build_dir()), "--output-on-failure"],
                        cwd=ROOT).returncode
    sys.exit(rc)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["corpus-seq", "corpus-fleet", "port-native"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    run_workload(args)


if __name__ == "__main__":
    main()
