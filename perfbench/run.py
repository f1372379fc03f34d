#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (the library sources under src/ plus the harness) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs only
rebuild what changed. The harness's last stdout line is the JSON result;
the exit code is nonzero when the build, a check or an operation failed.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("paper_dense", "serve_mixed")
# The pool size is pinned; the daemon inherits it (its forked alignments run
# inline regardless), so in-process and daemon compute match.
THREADS = 1
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "align", "aligner.h")):
        log("library sources not found under %s/src; run from the repo root"
            % root)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2

    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    env = dict(os.environ, GRAPHALIGN_THREADS=str(THREADS))
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--graphalign", os.path.join(build_dir, "graphalign"),
           "--work-dir", work_dir]
    # The harness leads its own process group, which the daemon it spawns
    # joins; killing the group afterwards leaves no process behind.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("harness exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode < 0:
        log("harness killed by signal %d" % -proc.returncode)
        return 1
    lines = out.splitlines()
    # Progress lines go to stderr so the JSON result is the last stdout line.
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        if lines:
            print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
