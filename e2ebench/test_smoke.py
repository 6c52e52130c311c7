#!/usr/bin/env python3
"""Smoke tests of the end-to-end benchmark (small shapes, one second each).

    python3 e2ebench/test_smoke.py

Checks that every workload e2ebench knows (the BENCHMARK.json ones and
the ungated loader-mix) emits exactly the metrics BENCHMARK.json names,
with their units, that no op failed, and that the benchmark refuses to
run (non-zero exit, no result line) without the library sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)


def run_smoke(workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_emitted_and_no_op_fails(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]},
                             set(WORKLOADS))
        for workload in WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_smoke(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    lines = proc.stdout.rstrip("\n").split("\n")
                    result = json.loads(lines[-1])
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0)
                    self.assertTrue(any(line.startswith("  failed_frac 0 ")
                                        for line in lines))
                    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, metric in result["metrics"].items():
                        self.assertTrue(math.isfinite(metric["value"]), name)

    def test_refuses_without_library_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "e2ebench/run.py", "--workload", "bulk-ref",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
