"""The benchmark's own command-line tests.

    python3 -m unittest discover -s perfbench/tests

Run from the repository root. Each test drives `perfbench/run.py` at the
tiny test size and checks what it prints against `BENCHMARK.json`.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed=5, trace="0", threads=1, cwd=ROOT, env=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", trace,
           "--threads", str(threads), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          check=False, env=env, timeout=900)


def result(done):
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def simulated(done):
    """The digest and simulated-results lines of a run."""
    return [line for line in done.stdout.splitlines()
            if line.startswith(("# digest", "# sim"))]


class Contract(unittest.TestCase):
    def check_metrics(self, res, declared):
        self.assertEqual(sorted(res), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in declared})
        for m in res["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_metrics(result(run(workload)), SPEC["end_to_end"])
                self.check_metrics(result(run(workload, trace="1")), SPEC["per_layer"])

    def test_simulated_results_repeat_across_runs_and_worker_counts(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = simulated(run(workload, seed=9))
                self.assertEqual(len(first), 2)
                self.assertEqual(first, simulated(run(workload, seed=9)))
                self.assertEqual(first, simulated(run(workload, seed=9, threads=2)))
                other = simulated(run(workload, seed=10))
                if workload == "table3-campaign":
                    # Fig. 6's campaign is fixed; the seed only orders it.
                    self.assertEqual(first, other)
                else:
                    self.assertNotEqual(first, other)

    def test_fails_without_the_repository(self):
        scratch = ROOT / "perfbench" / "out"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "target"))
            env = dict(os.environ, CARGO_TARGET_DIR=str(Path(tmp) / ".bench_build"))
            done = run(WORKLOADS[0], cwd=tmp, env=env)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
