#!/usr/bin/env python3
"""The serving benchmark's own tests.

    python3 perfbench/test_perfbench.py

Checks, on seconds-long runs of every workload, that every response
matched its oracle (ok_pct = 100), that accuracy_pct is identical on two
runs of one seed, and that every metric BENCHMARK.json names is reported
with its unit; and, through `perfbench_loadgen selftest`, that the highest
reported percentile has at least ten samples beyond it.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (the benchmark entry point, for its build step)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
SEED = 3


def measure(workload, trace, seconds=1):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class PercentileRule(unittest.TestCase):
    def test_selftest(self):
        loadgen, _ = run.build()
        out = subprocess.run([loadgen, "selftest"], stdout=subprocess.PIPE, text=True)
        self.assertEqual(out.returncode, 0, out.stdout)
        self.assertIn("selftest ok", out.stdout)


class TinyRuns(unittest.TestCase):
    def check_metrics(self, result, specs):
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in specs))
        for m in specs:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])

    def test_every_workload(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            with self.subTest(workload=workload):
                first = measure(workload, 0)
                second = measure(workload, 0)
                for result in (first, second):
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(result["metrics"]["ok_pct"]["value"], 100)
                    self.check_metrics(result, SPEC["end_to_end"])
                self.assertEqual(first["metrics"]["accuracy_pct"]["value"],
                                 second["metrics"]["accuracy_pct"]["value"])
                traced = measure(workload, 1)
                self.assertTrue(traced["correct"])
                self.check_metrics(traced, SPEC["per_layer"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
