"""The benchmark in perfbench/ runs on this checkout, traced, and its output checks pass.

perfbench/workload.py calls and wraps functions of hgoe.cli by name
(run_timed, rws, load_corpus, load_synonyms, load_embeddings, index_corpus),
so a change to the CLI's bindings shows here. Every run also checks that its
walks went through ranking.random_walk, the binding the tracer wraps for the
per-layer walk metrics, fatigued or not. Each workload's checks compare
the engine with the reference walker: zipf-walk sends the unfatigued walk
through them, weighted-ingest the weighted sampler and zipf-fatigue the
fatigue windows. The smoke size takes a few seconds per workload.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _smoke(workload: str) -> dict:
    """Run one traced smoke run; returns its per-layer metrics by name."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is True
    return {name: metric["value"] for name, metric in summary["metrics"].items()}


def test_traced_smoke_run_is_correct():
    metrics = _smoke("zipf-fatigue")
    assert metrics["ranking.steps"] > 0
    assert 0 < metrics["ranking.steps_per_budget"] <= 1


@pytest.mark.parametrize("workload", ["zipf-walk", "weighted-ingest"])
def test_unfatigued_smoke_run_is_correct(workload):
    # the per-layer walk metrics count the spans of ranking.random_walk, so
    # they read 0 if a ranking stops walking through that binding
    metrics = _smoke(workload)
    assert metrics["ranking.steps"] > 0
    assert 0 < metrics["ranking.steps_per_budget"] <= 1
