#!/usr/bin/env python3
"""Checks the benchmark's output contract on smoke-sized runs.

    python3 benchmark/test_bench.py

Builds reclaim_bench through run.py, runs every workload with --smoke
(traced and untraced), and checks that the last line is the JSON result
with exactly the metric names and units BENCHMARK.json lists, that every
answer verified, and that the traced run shows each workload exercising
the layer it was chosen for. Also checks that the benchmark fails without
printing a result when the program's sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_smoke(binary, workload, trace):
    code, result = run.run_once(binary, workload, 7, 0.3, trace, smoke=True,
                                echo=False)
    return code, result


class OutputContract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise RuntimeError("benchmark build failed")
        cls.results = {}
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                cls.results[workload, trace] = run_smoke(cls.binary, workload, trace)

    def check(self, workload, trace):
        code, result = self.results[workload, trace]
        self.assertEqual(code, 0, f"{workload} trace={trace} exited {code}")
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in expected])
        for m in expected:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        return result["metrics"]

    def test_end_to_end_contract(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check(workload, 0)
                for name, metric in metrics.items():
                    self.assertGreater(metric["value"], 0.0, name)
                self.assertEqual(metrics["success_rate"]["value"], 1.0)

    def test_traced_runs_exercise_their_layer(self):
        layer = {w: self.check(w, 1) for w in run.WORKLOADS}
        value = lambda w, name: layer[w][name]["value"]  # noqa: E731
        self.assertEqual(value("serve-warm", "replay.identical_share"), 1.0)
        self.assertEqual(value("serve-cold-dag", "replay.identical_share"), 1.0)
        self.assertGreaterEqual(value("serve-warm", "engine.memo_hit_rate"), 0.99)
        # The served p50 is the replayed stages plus the transport remainder;
        # the memo-hit solve is a minor share of it.
        stages = ("net.decode_us", "io.parse_us", "sched.list_schedule_us",
                  "sched.exec_graph_us", "engine.key_us", "engine.solve_one_us",
                  "net.encode_us", "net.transport_us")
        served_p50_us = sum(value("serve-warm", s) for s in stages)
        self.assertLess(value("serve-warm", "engine.solve_one_us"),
                        0.25 * served_p50_us)
        self.assertEqual(value("serve-cold-dag", "engine.memo_hit_rate"), 0.0)
        self.assertGreaterEqual(value("serve-cold-dag", "core.numeric-barrier.share"), 0.9)
        self.assertLess(value("batch-sweep", "core.numeric-barrier.share"), 0.1)
        self.assertGreater(value("batch-sweep", "engine.kernel_share"), 0.0)
        for route in ("discrete-bb", "cont-round", "vdd-lp"):
            self.assertGreater(value("batch-models", f"core.{route}.share"), 0.0, route)


class MissingSources(unittest.TestCase):
    def test_fails_without_result(self):
        bare = run.build_dir() / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "benchmark",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            SPEC["command"] + ["--workload", "serve-warm", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=180,
            env={"PATH": os.environ["PATH"]})
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
