#!/usr/bin/env python3
"""Tests of tools/check_bench.py, the schema-1 bench regression gate.

Each case writes synthetic snapshots to a temporary directory and runs the
gate as ci.sh does.  Run one case as ctest does:

    check_bench_test.py CheckBench.test_drop_above_threshold_fails
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..",
                    "tools", "check_bench.py")


def snapshot(rates, schema=1):
    """A bench JSON with one scenario per (name, events_per_sec) item."""
    return {
        "name": "synthetic",
        "schema": schema,
        "scenarios": [
            {"name": name, "events": 1000, "wall_ms": 1000.0 / rate * 1000,
             "events_per_sec": rate, "sim_time": 0}
            for name, rate in rates.items()
        ],
    }


class CheckBench(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def gate(self, baseline, *current, soft=False):
        env = dict(os.environ)
        env.pop("PARAIO_BENCH_SOFT", None)
        if soft:
            env["PARAIO_BENCH_SOFT"] = "1"
        paths = [self.write("BENCH_base.json", baseline)]
        paths += [self.write(f"current.{i}.json", doc)
                  for i, doc in enumerate(current)]
        return subprocess.run([sys.executable, GATE] + paths, env=env,
                              capture_output=True, text=True, check=False)

    def test_drop_above_threshold_fails(self):
        run = self.gate(snapshot({"a": 1e6}), snapshot({"a": 799_000}))
        self.assertEqual(run.returncode, 1, run.stdout + run.stderr)
        self.assertIn("a: 1000000 -> 799000 events/sec", run.stderr)

    def test_drop_of_exactly_threshold_passes(self):
        run = self.gate(snapshot({"a": 1e6}), snapshot({"a": 800_000}))
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)
        self.assertIn("bench check OK", run.stdout)

    def test_each_scenario_scores_its_best_current_file(self):
        # Each file alone fails one scenario; the best of the two passes both.
        base = snapshot({"a": 1e6, "b": 1e6})
        first = snapshot({"a": 1.1e6, "b": 0.5e6})
        second = snapshot({"a": 0.5e6, "b": 0.9e6})
        self.assertEqual(self.gate(base, first).returncode, 1)
        self.assertEqual(self.gate(base, second).returncode, 1)
        run = self.gate(base, first, second)
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)

    def test_missing_scenario_fails(self):
        run = self.gate(snapshot({"a": 1e6, "b": 1e6}), snapshot({"a": 1e6}))
        self.assertEqual(run.returncode, 1, run.stdout + run.stderr)
        self.assertIn("b: missing from current run", run.stderr)

    def test_new_scenario_passes(self):
        run = self.gate(snapshot({"a": 1e6}),
                        snapshot({"a": 1e6, "fresh": 10.0}))
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)
        self.assertIn("fresh", run.stdout)

    def test_schema_other_than_one_is_rejected(self):
        for base_schema, current_schema in ((2, 1), (1, 2), (None, 1)):
            run = self.gate(snapshot({"a": 1e6}, schema=base_schema),
                            snapshot({"a": 1e6}, schema=current_schema))
            self.assertNotEqual(run.returncode, 0, (base_schema,
                                                    current_schema))
            self.assertIn("unsupported bench schema", run.stderr)

    def test_soft_mode_warns_and_exits_zero(self):
        run = self.gate(snapshot({"a": 1e6}), snapshot({"a": 0.5e6}),
                        soft=True)
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)
        self.assertIn("warning: a:", run.stderr)
        self.assertNotIn("error:", run.stderr)


if __name__ == "__main__":
    unittest.main()
