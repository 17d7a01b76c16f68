"""The benchmark's own tests, on the smoke size of each workload (about a minute).

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

Not named test_*.py, so the repository's test suite does not collect it.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import record  # noqa: E402
from common import BENCH_DIR, ROOT, WORKLOADS, import_program  # noqa: E402

import_program()

SCRATCH = ROOT / ".perfbench" / "selftest"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def summary_of(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_digest(done: subprocess.CompletedProcess) -> str:
    line = next(x for x in done.stdout.splitlines() if "run file sha256" in x)
    return line.split()[3].rstrip(";")


class SmokeRuns(unittest.TestCase):
    def test_each_workload_prints_every_end_to_end_metric_and_repeats_its_run_file(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in spec["end_to_end"]]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = bench("--workload", workload, "--seed", "5", "--seconds", "0.1", "--smoke")
                self.assertEqual(first.returncode, 0, first.stdout + first.stderr)
                summary = summary_of(first)
                self.assertEqual(set(summary), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(summary["correct"])
                self.assertEqual(summary["failed"], 0)
                self.assertEqual(list(summary["metrics"]), names)
                for metric in summary["metrics"].values():
                    self.assertGreater(metric["value"], 0)
                again = bench("--workload", workload, "--seed", "5", "--seconds", "0.1", "--smoke")
                self.assertEqual(run_digest(again), run_digest(first))

    def test_traced_run_prints_every_per_layer_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        done = bench("--workload", "zipf-fatigue", "--seed", "2", "--seconds", "0.1",
                     "--trace", "1", "--smoke")
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        summary = summary_of(done)
        self.assertTrue(summary["correct"])
        self.assertEqual(list(summary["metrics"]), [m["name"] for m in spec["per_layer"]])

    def test_fails_without_a_program_to_measure(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            done = bench("--workload", "zipf-walk", "--seed", "1", "--seconds", "1", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


class Generator(unittest.TestCase):
    def digest(self, seed: int, hashseed: str) -> str:
        code = ("import gen, pathlib, sys; "
                f"print(gen.generate({seed}, 40, pathlib.Path(sys.argv[1]), gen.SMOKE).digest())")
        out = SCRATCH / f"gen-{seed}-{hashseed}"
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        try:
            done = subprocess.run([sys.executable, "-c", code, str(out)], cwd=BENCH_DIR, env=env,
                                  capture_output=True, text=True, check=True, timeout=120)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return done.stdout.strip()

    def test_same_seed_same_inputs_under_any_hash_seed(self):
        self.assertEqual(self.digest(3, "1"), self.digest(3, "2"))

    def test_seed_changes_the_inputs(self):
        self.assertNotEqual(self.digest(3, "1"), self.digest(4, "1"))


@dataclass
class FakeRanking:
    entries: list
    total_steps: int


class Checks(unittest.TestCase):
    topics = [(f"q{i}", f"query {i}") for i in range(6)]

    def test_fatigue_window_reuse_is_caught(self):
        def rws(graph, query, params, step_listener):
            step_listener(1, 7, 3)
            step_listener(2, 8, 4)
            step_listener(3, 7, 5)  # edge 7 again two clocks later
            return FakeRanking([], 3)

        params = type("P", (), {"node_fatigue": 0, "edge_fatigue": 10})()
        failures = checks.check_fatigue_windows(rws, None, self.topics, params)
        self.assertEqual(len(failures), len(checks.sample_topics(self.topics)))

    def test_reference_mismatch_is_caught(self):
        from hgoe import RankingParams

        class Reference:
            @staticmethod
            def reference_rws(graph, query, params):
                return [("d1", 1.0)], {}, params.repeats * 2

        def rws(graph, query, params):
            steps = params.repeats * 2 - (query == "query 2")
            return FakeRanking([("d1", 1.0)], steps)

        failures = checks.check_reference(Reference, rws, None, self.topics, RankingParams())
        self.assertEqual(len(failures), 1)
        self.assertIn("q2", failures[0])

    def test_run_file_mismatch_is_caught(self):
        def rws(graph, query, params):
            return FakeRanking([("d1", 0.5), ("d2", 0.5)], 4)

        def lines(topic_id, entries):
            return [f"{topic_id} {doc} {score}" for doc, score in entries]

        run = {t: lines(t, [("d1", 0.5), ("d2", 0.5)]) for t, _ in self.topics}
        self.assertEqual(checks.check_run_file(rws, lines, None, self.topics, None, run, 10), [])
        run["q1"] = run["q1"][::-1]
        self.assertEqual(len(checks.check_run_file(rws, lines, None, self.topics, None, run, 10)), 1)


class Spec(unittest.TestCase):
    def test_benchmark_json_matches_the_workloads_and_layer_notes(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))
        for metric in spec["per_layer"]:
            self.assertTrue(metric["name"] in record.MOVES or metric["name"] in record.NOTES,
                            metric["name"])
        names = {m["name"] for m in spec["end_to_end"]}
        for targets, workloads in record.MOVES.values():
            self.assertLessEqual(set(targets), names)
            self.assertLessEqual(set(workloads), {w["name"] for w in spec["workloads"]})


if __name__ == "__main__":
    unittest.main()
