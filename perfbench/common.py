"""Workload definitions and the location of the program under test."""
from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = ROOT / "tests" / "reference.py"

ROUNDS = 3             # (`hgoe index`, search) rounds per measured run, spread over its length
RUN_K = 1000           # entries kept per topic, the `hgoe search --k` default
EVAL_K = 10            # `hgoe evaluate --k`


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    topics: int
    repeats: int
    node_fatigue: int
    edge_fatigue: int
    reference_check: bool
    walk_length: int = 2

    def walk_flags(self) -> dict[str, int]:
        return {
            "walk_length": self.walk_length,
            "repeats": self.repeats,
            "node_fatigue": self.node_fatigue,
            "edge_fatigue": self.edge_fatigue,
        }


# BENCHMARK.json lists zipf-fatigue and weighted-ingest. zipf-walk, fatigue off
# on the same corpus, is left out of it only because the three workloads'
# runs did not fit the time allowed for a benchmark run set; `--workload
# zipf-walk` or `all` runs it, and claim.py sets it beside zipf-fatigue.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "zipf-walk", "base", topics=200, repeats=1000, node_fatigue=0, edge_fatigue=0,
            reference_check=True,
        ),
        Workload(
            "zipf-fatigue", "base", topics=100, repeats=20, node_fatigue=10, edge_fatigue=10,
            reference_check=False,
        ),
        Workload(
            "weighted-ingest", "weighted", topics=100, repeats=100, node_fatigue=0, edge_fatigue=0,
            reference_check=True,
        ),
    )
}


def import_program() -> None:
    """Put the checkout's `src` first on sys.path, or exit 2 if it is missing."""
    if not (SRC / "hgoe" / "__init__.py").is_file() or not REFERENCE.is_file():
        print(f"error: {SRC / 'hgoe'} or {REFERENCE} not found; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_reference():
    """The independent reference walker of the test suite, imported by path."""
    spec = importlib.util.spec_from_file_location("hgoe_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
