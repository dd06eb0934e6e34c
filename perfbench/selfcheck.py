#!/usr/bin/env python3
"""Self-check of the end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/selfcheck.py [--seconds 2] [--workload NAME ...]

For every workload in perfbench/workloads.json it runs perfbench/run.py
briefly, untraced and traced, and checks that:
  - the run passes its correctness gates and exits 0;
  - the result line carries every end-to-end metric of BENCHMARK.json
    (untraced) or every per-layer metric (traced), each with its unit;
  - the '# params' line matches the fixed parameters in workloads.json;
  - with --corrupt-reference (every expected digest perturbed) the run
    reports correct=false and exits non-zero.
Exits non-zero on the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seconds, trace, corrupt=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", str(seconds), "--trace",
           str(trace)]
    if corrupt:
        cmd.append("--corrupt-reference")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    params = None
    for line in lines:
        if line.startswith("# params "):
            params = json.loads(line[len("# params "):])
    return proc.returncode, result, params, proc.stderr


def check(cond, what):
    if not cond:
        sys.exit("selfcheck FAILED: " + what)
    print("ok   " + what)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        documented = json.load(f)["workloads"]
    check({w["name"] for w in bench["workloads"]} == set(documented),
          "workloads.json documents exactly the BENCHMARK.json workloads")

    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in args.workload or sorted(documented):
        for trace in (0, 1):
            code, result, params, err = run(workload, args.seconds, trace)
            tag = "%s trace=%d" % (workload, trace)
            check(code == 0 and result is not None and result["correct"],
                  tag + ": run passes its gates (exit %d)%s" %
                  (code, "" if code == 0 else "\n" + err[-2000:]))
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"},
                  tag + ": result line has exactly the contract keys")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace],
                  tag + ": every %s metric present with its unit" %
                  ("per-layer" if trace else "end-to-end"))
            want = dict(documented[workload]["params"], workload=workload)
            check(params == want, tag + ": parameters match workloads.json")
        code, result, _, _ = run(workload, args.seconds, 0, corrupt=True)
        check(code != 0 and result is not None and not result["correct"],
              workload + ": a wrong expected digest fails the run")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
