#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py (the CI perf gate).

Covers the contract the perf job relies on: a regression beyond tolerance
fails, an improvement (or slowdown inside tolerance) passes, a metric
dropped from the candidate fails, a schema or hardware_threads mismatch is
rejected before any numbers are compared, and a sanitized candidate skips
with exit 0.

Run directly (python3 tests/test_bench_compare.py) or via ctest.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO, "tools", "bench_compare.py")


def make_doc(**overrides):
    doc = {
        "schema": "peek-bench-v1",
        "schema_version": 1,
        "pr": 6,
        "build": {
            "compiler": "test",
            "build_type": "Release",
            "openmp": True,
            "sanitized": False,
        },
        "machine": {"host": "unit", "hardware_threads": 1},
        "config": {"reps": 3, "seed": 42},
        "graphs": [
            {
                "name": "R21",
                "vertices": 4096,
                "edges": 32768,
                "fingerprint": "00000000deadbeef",
            }
        ],
        "metrics": {
            "sssp.dijkstra.R21": {"median_s": 0.010, "min_s": 0.009, "reps": 3},
            "ksp.yen.R21": {"median_s": 0.020, "min_s": 0.019, "reps": 3},
        },
    }
    doc.update(overrides)
    return doc


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def run_compare(self, base, cand, *extra):
        env = dict(os.environ)
        env.pop("PEEK_BENCH_TOLERANCE", None)  # tests pin --tolerance
        return subprocess.run(
            [sys.executable, SCRIPT, base, cand, *extra],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_regression_detected(self):
        base = make_doc()
        cand = copy.deepcopy(base)
        cand["metrics"]["sssp.dijkstra.R21"]["median_s"] = 0.015  # +50%
        r = self.run_compare(
            self.write("b.json", base),
            self.write("c.json", cand),
            "--tolerance",
            "0.25",
        )
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("REGRESSION", r.stdout)
        self.assertIn("sssp.dijkstra.R21", r.stderr)

    def test_improvement_passes(self):
        base = make_doc()
        cand = copy.deepcopy(base)
        cand["metrics"]["sssp.dijkstra.R21"]["median_s"] = 0.005  # -50%
        cand["metrics"]["ksp.yen.R21"]["median_s"] = 0.022  # +10% < 25%
        r = self.run_compare(
            self.write("b.json", base),
            self.write("c.json", cand),
            "--tolerance",
            "0.25",
        )
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("OK", r.stdout)

    def test_missing_metric_fails(self):
        base = make_doc()
        cand = copy.deepcopy(base)
        del cand["metrics"]["ksp.yen.R21"]
        r = self.run_compare(
            self.write("b.json", base),
            self.write("c.json", cand),
            "--tolerance",
            "0.25",
        )
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("missing from the candidate", r.stderr)

    def test_new_metric_passes(self):
        base = make_doc()
        cand = copy.deepcopy(base)
        cand["metrics"]["peek.e2e.R21"] = {
            "median_s": 0.5,
            "min_s": 0.4,
            "reps": 3,
        }
        r = self.run_compare(
            self.write("b.json", base),
            self.write("c.json", cand),
            "--tolerance",
            "0.25",
        )
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("new", r.stdout)

    def test_p99_regression_detected(self):
        base = make_doc()
        base["metrics"]["shard.storm.hedged.R21"] = {
            "median_s": 0.00001,
            "min_s": 0.000005,
            "reps": 160,
            "p50_s": 0.00001,
            "p99_s": 0.004,
        }
        cand = copy.deepcopy(base)
        # Median unchanged; only the tail blows up (a hedging regression).
        cand["metrics"]["shard.storm.hedged.R21"]["p99_s"] = 0.020
        r = self.run_compare(
            self.write("b.json", base),
            self.write("c.json", cand),
            "--tolerance",
            "0.25",
        )
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("REGRESSION(p99)", r.stdout)
        self.assertIn("shard.storm.hedged.R21[p99]", r.stderr)

    def test_p99_within_tolerance_passes(self):
        base = make_doc()
        base["metrics"]["shard.storm.hedged.R21"] = {
            "median_s": 0.00001,
            "min_s": 0.000005,
            "reps": 160,
            "p50_s": 0.00001,
            "p99_s": 0.004,
        }
        cand = copy.deepcopy(base)
        cand["metrics"]["shard.storm.hedged.R21"]["p99_s"] = 0.0045  # +12.5%
        r = self.run_compare(
            self.write("b.json", base),
            self.write("c.json", cand),
            "--tolerance",
            "0.25",
        )
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("OK", r.stdout)

    def test_schema_mismatch_rejected(self):
        base = make_doc()
        cand = make_doc(schema="some-other-schema")
        r = self.run_compare(
            self.write("b.json", base), self.write("c.json", cand)
        )
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("schema", r.stderr)

    def test_schema_version_mismatch_fails(self):
        base = make_doc()
        cand = make_doc(schema_version=2)
        r = self.run_compare(
            self.write("b.json", base), self.write("c.json", cand)
        )
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("schema_version mismatch", r.stderr)

    def test_hardware_threads_mismatch_fails(self):
        base = make_doc()
        cand = copy.deepcopy(base)
        cand["machine"]["hardware_threads"] = 4
        bp, cp = self.write("b.json", base), self.write("c.json", cand)
        r = self.run_compare(bp, cp)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("hardware_threads mismatch", r.stderr)
        # A new gate, not a loosened one: no flag gets past it.
        r = self.run_compare(bp, cp, "--allow-graph-mismatch")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)

    def test_fingerprint_mismatch_fails_without_override(self):
        base = make_doc()
        cand = copy.deepcopy(base)
        cand["graphs"][0]["fingerprint"] = "00000000cafef00d"
        bp, cp = self.write("b.json", base), self.write("c.json", cand)
        r = self.run_compare(bp, cp)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("fingerprint changed", r.stderr)
        r = self.run_compare(bp, cp, "--allow-graph-mismatch")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_sanitized_candidate_skips(self):
        base = make_doc()
        cand = make_doc()
        cand["build"]["sanitized"] = True
        # Even with a 10x regression, a sanitized candidate is never gated.
        cand["metrics"]["sssp.dijkstra.R21"]["median_s"] = 0.1
        r = self.run_compare(
            self.write("b.json", base), self.write("c.json", cand)
        )
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("SKIPPED", r.stdout)

    def test_malformed_json_exits_2(self):
        path = os.path.join(self.tmp.name, "bad.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write("{not json")
        r = self.run_compare(path, self.write("c.json", make_doc()))
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)


if __name__ == "__main__":
    unittest.main()
