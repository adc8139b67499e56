#!/usr/bin/env python3
"""Tests of the benchmark itself, not of the library.

    python3 usysbench/test_usysbench.py

Runs every workload at `--size small` (same code paths and output checks,
smaller circuits), untraced and traced, and checks that each run reports
every metric BENCHMARK.json names with its unit, that the output checks
pass, and that the exact counts repeat for a fixed seed. Takes about a
minute after the first build.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OUT_DIR = os.path.join(ROOT, ".bench_build", "usysbench-out")


def run(workload, trace, seed=7, seconds=2, cwd=ROOT):
    """Runs one small-size workload; returns (exit code, parsed last line or None)."""
    done = subprocess.run(
        [sys.executable, os.path.join("usysbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


class BenchmarkTest(unittest.TestCase):

    def check_result(self, workload, code, result, specs):
        self.assertEqual(code, 0, workload)
        self.assertIsNotNone(result, workload)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], workload)
        self.assertEqual(result["failed"], 0, workload)
        self.assertGreaterEqual(result["attempted"], 1, workload)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs}, workload)
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], (workload, m["name"]))
            self.assertIsInstance(got["value"], (int, float), (workload, m["name"]))

    def test_end_to_end_metrics_and_output_checks(self):
        for workload in WORKLOADS:
            code, result = run(workload, 0)
            self.check_result(workload, code, result, SPEC["end_to_end"])
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, (workload, name))

    def test_traced_metrics_and_exact_counts_repeat(self):
        counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
        for workload in WORKLOADS:
            code, first = run(workload, 1, seed=11)
            self.check_result(workload, code, first, SPEC["per_layer"])
            trace_path = os.path.join(OUT_DIR, "trace-%s-seed11-trace.json" % workload)
            with open(trace_path) as f:
                trace = json.load(f)
            names = {e["name"] for e in trace["traceEvents"]}
            self.assertTrue({"api.Session", "api.Session.run", "lu.analyze"} <= names)
            self.assertIn("nproc", trace["metadata"])
            code, second = run(workload, 1, seed=11)
            self.check_result(workload, code, second, SPEC["per_layer"])
            for name in counts:
                self.assertEqual(first["metrics"][name]["value"],
                                 second["metrics"][name]["value"], (workload, name))

    def test_refuses_to_run_without_the_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "usysbench-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "usysbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result = run(WORKLOADS[0], 0, cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
