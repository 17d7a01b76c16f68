"""The benchmark in perfbench/ runs on this checkout, traced, and its output checks pass.

perfbench/workload.py calls and wraps functions of hgoe.cli by name
(run_timed, rws, load_corpus, load_synonyms, load_embeddings, index_corpus),
so a change to the CLI's bindings shows here. The smoke size takes a few
seconds.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zipf-fatigue", "--seed", "5",
         "--seconds", "0.1", "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
