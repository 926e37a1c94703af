"""Tests of the serve-path benchmark itself (not of ppdb).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They build serve_bench through run.py's own build step, so the first run
takes as long as a build (about a minute on 4 cores).
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class SeededTrafficTest(unittest.TestCase):
    """The request stream is a pure function of (workload, seed)."""

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def digest(self, workload, seed):
        out = subprocess.run(
            [str(self.binary), "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", "0", "--stream-digest", "20000"],
            check=True, capture_output=True, text=True)
        return out.stdout.strip()

    def test_same_seed_gives_same_stream(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.digest(workload, 7),
                                 self.digest(workload, 7))

    def test_different_seed_gives_different_stream(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(self.digest(workload, 7),
                                    self.digest(workload, 8))


class SmokeTest(unittest.TestCase):
    """A short run of every workload in both modes reports every metric
    BENCHMARK.json names, with its unit, and passes the correctness gate."""

    def run_bench(self, workload, trace):
        out = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "2", "--trace", str(trace)],
            capture_output=True, text=True, timeout=300)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_every_workload_and_mode(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_bench(workload, trace)
                    self.assertIs(result["correct"], True)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    units = {name: m["unit"]
                             for name, m in result["metrics"].items()}
                    self.assertEqual(units, run.expected_metrics(trace))
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)


class MissingSourcesTest(unittest.TestCase):
    """Without the ppdb sources the benchmark fails fast and prints no
    result line."""

    def test_exits_nonzero_without_sources(self):
        bare = run.WORK_DIR / "bare_checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "serve_reads", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
