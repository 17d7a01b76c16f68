"""The benchmark in perfbench/ runs on this checkout, traced, and its output checks pass.

perfbench/workload.py calls and wraps functions of hgoe.cli by name
(run_timed, rws, load_corpus, load_synonyms, load_embeddings, index_corpus),
so a change to the CLI's bindings shows here. Each workload's checks compare
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


def _smoke(workload: str) -> None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


def test_traced_smoke_run_is_correct():
    _smoke("zipf-fatigue")


@pytest.mark.parametrize("workload", ["zipf-walk", "weighted-ingest"])
def test_unfatigued_smoke_run_is_correct(workload):
    _smoke(workload)
