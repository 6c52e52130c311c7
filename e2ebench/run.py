#!/usr/bin/env python3
"""Builds the end-to-end benchmark program from source and runs one workload.

    python3 e2ebench/run.py --workload bulk-ref --seed 7 --seconds 40 --trace 0

Workloads: bulk-ref and entropy-auto (bounded in BENCHMARK.json),
loader-mix (reported, not bounded; see README.md), or `all`, which runs
the three in turn and merges their tables (with --trace 1 that is the
per-layer table over every workload). --smoke switches the binary to
small shapes for the benchmark's own tests.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under
e2ebench/; temporary archives go to a per-run directory there that is
removed afterwards; traced runs leave <workload>.trace.json (Chrome trace
events) and <workload>.layers.tsv in e2ebench-trace/. The last line of
stdout is the result JSON: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["bulk-ref", "entropy-auto", "loader-mix"]
# A run measures for --seconds plus its set-up; the contract allows 180 s.
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "e2ebench"])
    for step in steps:
        # Build output goes to stderr so stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "e2ebench")


def run_driver(exe, args, workload, target_dir, capture):
    work_dir = os.path.join(target_dir, "e2ebench-work", str(os.getpid()))
    command = [exe, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir,
               "--trace-dir", os.path.join(target_dir, "e2ebench-trace")]
    if args.smoke:
        command.append("--smoke")
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail(workload + ": no result within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run_all(exe, args, target_dir):
    """Runs every workload; prints the merged table and one result line."""
    results = {}
    for workload in WORKLOADS:
        proc = run_driver(exe, args, workload, target_dir, capture=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            fail(workload + " exited with %d" % proc.returncode)
        results[workload] = json.loads(lines[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    table = ["metric\tunit\t" + "\t".join(WORKLOADS)]
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        values = ["%.6g" % results[w]["metrics"][name]["value"]
                  for w in WORKLOADS]
        table.append("\t".join([name, unit] + values))
    print("\nall workloads (seed %d, %s s each):" % (args.seed, args.seconds))
    print("\n".join(table))
    if args.trace:
        path = os.path.join(target_dir, "e2ebench-trace", "layers.tsv")
        with open(path, "w") as out:
            out.write("\n".join(table) + "\n")
        print("  table: " + path)
    merged = {"correct": all(r["correct"] for r in results.values()),
              "attempted": sum(r["attempted"] for r in results.values()),
              "failed": sum(r["failed"] for r in results.values()),
              "metrics": {w + "/" + k: v for w, r in results.items()
                          for k, v in r["metrics"].items()}}
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    target_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    exe = build(os.path.join(target_dir, "e2ebench"))
    if args.workload == "all":
        return run_all(exe, args, target_dir)
    return run_driver(exe, args, args.workload, target_dir,
                      capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())
