#!/usr/bin/env python3
"""Self-test for perfbench: runs every workload end to end at smoke size.

    python3 perfbench/test_bench.py

For each workload it checks that every output verified, that every metric
BENCHMARK.json names is present with its unit, and that two traced runs with
the same seed give identical per-layer counts (the counts that depend on how
two workers interleave excepted). It also checks that the harness refuses to
run outside a repository checkout.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import SCHEDULING_DEPENDENT, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def result(workload, trace):
    run = bench(workload, trace)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def assert_result(self, doc, declared):
        self.assertTrue(doc["correct"])
        self.assertEqual(doc["failed"], 0)
        self.assertGreaterEqual(doc["attempted"], 1)
        self.assertEqual(set(doc["metrics"]), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(doc["metrics"][m["name"]]["unit"], m["unit"], m["name"])

    def test_every_workload_end_to_end(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOADS))
        counts = [m["name"] for m in SPEC["per_layer"]
                  if m["unit"] == "count" and m["name"] not in SCHEDULING_DEPENDENT]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assert_result(result(workload, 0), SPEC["end_to_end"])
                first, second = result(workload, 1), result(workload, 1)
                for doc in (first, second):
                    self.assert_result(doc, SPEC["per_layer"])
                self.assertEqual({k: first["metrics"][k]["value"] for k in counts},
                                 {k: second["metrics"][k]["value"] for k in counts})

    def test_refuses_outside_a_checkout(self):
        bare = os.path.join(HERE, "out", "bare")
        os.makedirs(bare, exist_ok=True)
        run = bench("audit_nrev", 0, cwd=bare)
        self.assertNotEqual(run.returncode, 0)
        self.assertEqual(run.stdout, "")


if __name__ == "__main__":
    unittest.main()
