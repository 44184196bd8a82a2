#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench/tests

Builds perfbench and perfbench_selftest through run.py, runs the helper
self-tests (seeded lists, ten-beyond percentile, Zipf head, whole passes),
then short runs of every workload in BENCHMARK.json, traced and untraced,
checking their printed metric sets and their whole-pass accounting.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (perfbench/run.py)

SHORT_SECONDS = "0.5"


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build = run.build(("perfbench", "perfbench_selftest"))
        cls.bench = load_benchmark()
        cls.outputs = {}
        for w in cls.bench["workloads"]:
            for trace in ("0", "1"):
                proc = subprocess.run(
                    [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                     "--workload", w["name"], "--seed", "5",
                     "--seconds", SHORT_SECONDS, "--trace", trace],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
                cls.outputs[(w["name"], trace)] = proc

    def test_helpers(self):
        proc = subprocess.run([os.path.join(self.build, "perfbench_selftest")],
                              stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_metric_sets_match_benchmark_json(self):
        want = {"0": {m["name"]: m["unit"] for m in self.bench["end_to_end"]},
                "1": {m["name"]: m["unit"] for m in self.bench["per_layer"]}}
        for (workload, trace), proc in self.outputs.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(proc.returncode, 0)
                result = json.loads(proc.stdout.strip().split("\n")[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want[trace])

    def test_whole_pass_accounting(self):
        for (workload, trace), proc in self.outputs.items():
            with self.subTest(workload=workload, trace=trace):
                out = proc.stdout
                per_pass = int(re.search(
                    r"^# \S+: (?:pool \d+ pairs, )?(\d+) (?:distinct pairs|requests) per pass",
                    out, re.M).group(1))
                m = re.search(r"^# untraced: (\d+) pass\(es\), (\d+) (?:queries|reads)",
                              out, re.M)
                passes, done = int(m.group(1)), int(m.group(2))
                self.assertGreaterEqual(passes, 1)
                self.assertEqual(done, passes * per_pass)

    def test_environment_is_pinned_and_recorded(self):
        proc = self.outputs[(self.bench["workloads"][0]["name"], "0")]
        line = next(l for l in proc.stdout.split("\n") if l.startswith("# env: "))
        env = json.loads(line[len("# env: "):])
        self.assertEqual(env["env"].get("OMP_WAIT_POLICY"), "PASSIVE")
        self.assertEqual(env["env"].get("OMP_NUM_THREADS"), str(env["nproc"]))
        for key in ("libgomp", "compiler", "build_type", "peek_obs"):
            self.assertIn(key, env)


if __name__ == "__main__":
    unittest.main()
