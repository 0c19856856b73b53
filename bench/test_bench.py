"""Smoke tests of the benchmark at tiny sizes.

    python3 -m unittest discover -s bench -v

They run every workload through the real command, check that every
metric BENCHMARK.json names is printed with its unit, and check that
corrupted or unrepeatable outputs are counted as failures.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

from multcp import allocator, harness, policing    # noqa: E402
import worker           # noqa: E402
import workloads        # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_command(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


class CommandTest(unittest.TestCase):

    def test_every_workload_prints_every_metric_with_its_unit(self):
        for w in SPEC["workloads"]:
            for trace, declared in (("0", SPEC["end_to_end"]),
                                    ("1", SPEC["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    done = bench_command("--workload", w["name"], "--seed", "3",
                                         "--seconds", "0", "--trace", trace,
                                         "--size", "tiny")
                    self.assertEqual(done.returncode, 0, done.stderr)
                    lines = done.stdout.splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    for m in declared:
                        got = result["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"])
                        self.assertIsInstance(got["value"], (int, float))
                        self.assertTrue(any(
                            line.split()[:1] == [m["name"]]
                            and line.split()[-1] == m["unit"]
                            for line in lines[:-1]), m["name"])
                    self.assertEqual(len(result["metrics"]), len(declared))

    def test_without_the_source_tree_it_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for rel in SPEC["paths"]:
                shutil.copytree(ROOT / rel, Path(tmp) / rel,
                                ignore=shutil.ignore_patterns("__pycache__"))
            done = bench_command("--workload", "dumbbell-sack", "--seed", "1",
                                 "--seconds", "1", "--trace", "0",
                                 cwd=Path(tmp))
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("{", done.stdout)


class FailureCountingTest(unittest.TestCase):
    """A corrupted output must land in `failed`, never pass silently."""

    def measure(self, workload, trace: bool = False, outputs=None) -> dict:
        with tempfile.TemporaryDirectory() as tmp:
            return worker.measure(workload, 5, 0.0, trace,
                                  Path(outputs or tmp) / "outputs",
                                  Path(tmp) / "work")

    def test_tiny_workloads_pass_their_checks(self):
        for workload in workloads.TINY.values():
            with self.subTest(workload=workload.name):
                result = self.measure(workload)
                self.assertEqual(result["failed"], 0, result["failures"])

    def test_corrupted_run_csv(self):
        real = harness.write_run_csv

        def corrupt(result, path):
            real(result, path)
            text = Path(path).read_text().splitlines()
            row = text[1].split(",")
            row[4] = str(float(row[4]) * 1.0001)     # flow 0 throughput
            text[1] = ",".join(row)
            Path(path).write_text("\n".join(text) + "\n")

        with mock.patch.object(harness, "write_run_csv", corrupt):
            result = self.measure(workloads.TINY["dumbbell-sack"])
        self.assertEqual((result["failed"], result["attempted"]), (1, 1))

    def test_corrupted_gain_csv(self):
        real = harness.write_gain_csv

        def corrupt(samples, path):
            samples = list(samples)
            samples[-1] = dataclasses.replace(samples[-1], gain=float("nan"))
            real(samples, path)

        with mock.patch.object(harness, "write_gain_csv", corrupt):
            result = self.measure(workloads.TINY["sweep-newreno"])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["attempted"], 2)

    def test_corrupted_trace_csv(self):
        real = policing.write_trace_csv

        def corrupt(records, path):
            records = list(records)
            records[10] = dataclasses.replace(records[10], ack=10 ** 9)
            real(records, path)

        with mock.patch.object(policing, "write_trace_csv", corrupt):
            result = self.measure(workloads.TINY["police-trace"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_wrong_buffer_split(self):
        real = allocator.allocate_buffers

        def short(prices, budget, segment):
            out = real(prices, budget, segment)
            out[0] -= 1
            return out

        with mock.patch.object(allocator, "allocate_buffers", short):
            result = self.measure(workloads.TINY["analysis-libs"])
        self.assertEqual(result["failed"], workloads.TINY["analysis-libs"].n_prices)

    def test_a_failed_pass_saves_no_digests(self):
        real = harness.write_run_csv

        def corrupt(result, path):
            real(result, path)
            with open(path, "a") as fh:
                fh.write("0,0,sack,1.0,1.0,0.1,1,0,0,0,0\n")

        dumbbell = workloads.TINY["dumbbell-sack"]
        with tempfile.TemporaryDirectory() as keep:
            with mock.patch.object(harness, "write_run_csv", corrupt):
                self.assertEqual(self.measure(dumbbell, outputs=keep)["failed"], 1)
            result = self.measure(dumbbell, outputs=keep)
        self.assertEqual(result["failed"], 0, result["failures"])

    def test_raised_error_is_a_failed_operation(self):
        def boom(scenario):
            raise harness.SimulationError("injected")

        with mock.patch.object(harness, "run_scenario", boom):
            result = self.measure(workloads.TINY["dumbbell-sack"])
        self.assertEqual((result["failed"], result["attempted"]), (1, 1))
        self.assertIn("injected", result["failures"][0])

    def test_outputs_that_do_not_repeat(self):
        real = harness.run_scenario

        def drifting(scenario):
            result = real(scenario)
            return dataclasses.replace(result, seed=result.seed + 1)

        dumbbell = workloads.TINY["dumbbell-sack"]
        with tempfile.TemporaryDirectory() as keep:
            self.assertEqual(self.measure(dumbbell, outputs=keep)["failed"], 0)
            with mock.patch.object(harness, "run_scenario", drifting):
                result = self.measure(dumbbell, outputs=keep)
        self.assertEqual(result["failed"], 1)
        self.assertIn("differ", result["failures"][0])

    def test_tracing_restores_the_package_and_keeps_outputs(self):
        originals = (harness.run_scenario, policing.analyze_trace)
        with tempfile.TemporaryDirectory() as keep:
            result = self.measure(workloads.TINY["police-trace"], trace=True,
                                  outputs=keep)
        self.assertEqual(result["failed"], 0, result["failures"])
        self.assertEqual((harness.run_scenario, policing.analyze_trace),
                         originals)
        metrics = result["layer_metrics"]
        self.assertGreater(metrics["engine.events"], 0)
        self.assertGreater(metrics["tcp.trace_records"], 0)
        self.assertGreater(metrics["policing.trace_mb"], 0)


if __name__ == "__main__":
    unittest.main()
