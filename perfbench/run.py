#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR when set
(relative paths are taken from the repository root), else to .bench_build.
Build output goes to stderr; the last stdout line is the driver's JSON
result. Each workload runs in its own process with a fixed HADAR_THREADS and
no other HADAR_* knob from the environment.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREADS = {"static_flat_1k": 1, "sharded_10k": 2, "daemon_churn": 1, "paper_matrix": 1}
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: scheduler sources (src/) not found next to perfbench/")
    os.makedirs(bdir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(bdir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(THREADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the output checker's self-test")
    args = ap.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not args.self_test and args.seconds <= 0:
        ap.error("--seconds must be positive")

    bdir = build_dir()
    build(bdir)
    if args.self_test:
        return subprocess.run([os.path.join(bdir, "perfbench_selftest")]).returncode

    env = {k: v for k, v in os.environ.items() if not k.startswith("HADAR_")}
    env["HADAR_THREADS"] = str(THREADS[args.workload])
    scratch = os.path.join(bdir, "run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch-dir", scratch]
    if args.trace:
        os.makedirs(os.path.join(bdir, "spans"), exist_ok=True)
        cmd += ["--span-file", os.path.join(
            bdir, "spans", "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out after %d s" % (args.workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
