#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the compliant query processor.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the library from src/) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then
runs cgq_perfbench. Its last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the exit code is non-zero
when the build fails or a correctness gate fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
WORKLOADS = ("adhoc_compile", "analytics_disk", "analytics_wire")


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    """Configures (once) and builds cgq_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    cmake_dir = os.path.join(out_dir, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "cgq_perfbench")


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-check: perturb the expected digests")
    args = parser.parse_args()

    out_dir = build_root()
    binary = build(out_dir)
    work_dir = os.path.join(out_dir, "work-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--commit", commit()]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
        code, output = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired as e:
        code = 124
        output = e.stdout.decode() if isinstance(e.stdout, bytes) else ""
        output = "\n".join(l for l in (output or "").splitlines()
                           if l.startswith("#"))
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
    # Keep the last trace of each workload; drop the run's storage.
    traces = os.path.join(out_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    for name in os.listdir(work_dir):
        if name.startswith("trace-"):
            shutil.move(os.path.join(work_dir, name),
                        os.path.join(traces, name))
    shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(output)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
