#!/usr/bin/env python3
"""Self-test of the benchmark harness.

Usage (from the repository root): python3 perfbench/selftest.py

Checks the span self-time and percentile code on synthetic spans, the
tracer's parent links, that the input generator still matches the test
suite's, that every workload runs end to end at tiny size with and without
tracing and prints exactly the metrics BENCHMARK.json names, and that the
benchmark fails cleanly where there are no sources.
"""

import importlib.util
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from spans import layer_table, percentile, self_times  # noqa: E402
from traced_cli import Tracer  # noqa: E402


class SpanMath(unittest.TestCase):
    # root [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6]
    SPANS = [("root", 0.0, 10.0, -1, {}), ("a", 1.0, 3.0, 0, {"flop": 5}),
             ("b", 4.0, 8.0, 0, {}), ("c", 5.0, 6.0, 2, {}),
             ("a", 11.0, 12.0, -1, {"flop": 7})]

    def test_self_times_subtract_direct_children_only(self):
        self.assertEqual(self_times(self.SPANS), [4.0, 2.0, 3.0, 1.0, 1.0])

    def test_layer_table_groups_by_label(self):
        table = layer_table([self.SPANS, [("b", 0.0, 0.5, -1, {})]])
        self.assertEqual(table["a"]["ms"], [2000.0, 1000.0])
        self.assertEqual(table["b"]["self_ms"], [3000.0, 500.0])
        self.assertEqual(table["a"]["work"]["flop"], 12)

    def test_percentile_matches_numpy_linear(self):
        gen = random.Random(5)
        for n in (1, 2, 3, 10, 101):
            values = [gen.random() for _ in range(n)]
            for q in (0, 25, 50, 90, 100):
                self.assertAlmostEqual(percentile(values, q),
                                       float(np.percentile(values, q)), places=12)
        self.assertEqual(percentile([], 50), 0.0)
        self.assertEqual(percentile([4.0, 1.0, 3.0, 2.0], 50), 2.5)

    def test_tracer_records_parents(self):
        tracer = Tracer()

        def inner(x):
            return x + 1

        wrapped_inner = tracer.wrap("inner", inner)

        def outer(x):
            return wrapped_inner(wrapped_inner(x))

        self.assertEqual(tracer.wrap("outer", outer)(1), 3)
        labels = [(s[0], s[3]) for s in tracer.spans]
        self.assertEqual(labels, [("outer", -1), ("inner", 0), ("inner", 0)])
        own = self_times(tracer.spans)
        self.assertTrue(all(t >= 0 for t in own))


class Inputs(unittest.TestCase):
    def test_generator_matches_test_suite(self):
        path = ROOT / "tests" / "conftest.py"
        if not path.is_file():
            self.skipTest("tests/conftest.py not present")
        sys.path.insert(0, str(ROOT / "src"))
        spec = importlib.util.spec_from_file_location("suite_conftest", path)
        conftest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(conftest)
        ours, _ = inputs.synthetic_digits(np.random.default_rng(3), 50)
        theirs, _ = conftest.synthetic_digits(np.random.default_rng(3), 50)
        self.assertEqual(ours.tobytes(), theirs.tobytes())
        self.assertEqual(inputs.idx_image_bytes(ours), conftest.idx_image_bytes(theirs))


def bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py")] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class Smoke(unittest.TestCase):
    def test_every_workload_at_tiny_size(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[group]}
            for workload in spec["workloads"]:
                with self.subTest(workload=workload["name"], trace=trace):
                    proc = bench(["--workload", workload["name"], "--seed", "1",
                                  "--seconds", "1", "--trace", str(trace), "--tiny"])
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    report = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(report), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(report["correct"], proc.stderr)
                    self.assertEqual(report["failed"], 0)
                    self.assertGreaterEqual(report["attempted"], 1)
                    got = {k: v["unit"] for k, v in report["metrics"].items()}
                    self.assertEqual(got, expected)

    def test_fails_without_sources(self):
        tmp = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"
                                    if (ROOT / ".perfbench_work").is_dir() else ROOT))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, tmp / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, PYTHONPATH="")
            proc = subprocess.run([sys.executable, str(tmp / HERE.name / "run.py"),
                                   "--workload", "desk_train", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=170, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
