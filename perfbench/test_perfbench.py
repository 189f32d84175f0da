#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the benchmark (like run.py) and run short rounds: about a
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
RUN = os.path.join(HERE, "run.py")


def run_bench(*args, cwd=ROOT, run_py=RUN):
    """Runs the benchmark; returns (exit code, last stdout line as JSON).

    The JSON part is None when the last line is missing or not JSON.
    """
    p = subprocess.run([sys.executable, run_py, "--seed", "3",
                        "--seconds", "1", *args],
                       cwd=cwd, capture_output=True, text=True, check=False)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return p.returncode, result


class PerfbenchTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_planted_wrong_answer_fails_every_workload(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                rc, result = run_bench("--workload", w["name"], "--trace", "0",
                                       "--plant-wrong-answer")
                self.assertNotEqual(rc, 0)
                self.assertIsNotNone(result)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_metrics_match_benchmark_json(self):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            with self.subTest(trace=trace):
                rc, result = run_bench("--workload", "explore",
                                       "--trace", trace)
                self.assertEqual(rc, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                want = {m["name"]: m["unit"] for m in self.spec[key]}
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                self.assertEqual(got, want)
                if key == "end_to_end":
                    for name, m in result["metrics"].items():
                        self.assertGreater(m["value"], 0, name)

    def test_checkout_without_sources_fails_without_result(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            rc, result = run_bench("--workload", "explore", "--trace", "0",
                                   cwd=bare,
                                   run_py=os.path.join(bare, "perfbench",
                                                       "run.py"))
            self.assertNotEqual(rc, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
