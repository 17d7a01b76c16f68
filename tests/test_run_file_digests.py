"""Bit-exact gate: the benchmark's seed-1 inputs give pinned index and run-file bytes.

The inputs come from `perfbench/gen.py` at seed 1 and full size (5,060
documents, 100 topics), imported from its file. Their digest is asserted
first, in the fixture, so a change in numpy's random streams shows as an
input change and not as a ranking change. The base index is built through
`cli.main`, and `hgoe search --repeats 200` runs every topic at five fatigue
settings. A change that keeps rankings bit for bit leaves every digest here
as it is.

The weighted variant's digests stay in the manual gate: its Context edge
weights depend on the BLAS build and thread count (README), so its index and
run files are reproducible only with the same numpy and BLAS. The digests
were taken with numpy 2.4.6; other numpy versions were not checked. The
module takes about 8 seconds on 2 CPUs, most of it the (50, 0) search.
"""
from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from hgoe import cli

ROOT = Path(__file__).resolve().parent.parent

INPUTS_DIGEST = "30f3821fea2b4307"
BASE_INDEX = ("7304a7b9894e9cf1", 655_838)
BASE_RUNS = {
    (0, 0): "cec7095a3d8bbc2d",
    (0, 2): "e14a134b736a7d8c",
    (10, 10): "c456dab5f94b8a2a",
    (50, 0): "72ee99cb43c97abd",
    (0, 50): "f028adefc1642752",
}


def sha256_prefix(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.fixture(scope="module")
def seed1(tmp_path_factory):
    """The seed-1 inputs, checked against their digest, and the base index built from them."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(gen)
    out = tmp_path_factory.mktemp("seed1")
    inputs = gen.generate(1, 100, out)
    assert inputs.digest()[:16] == INPUTS_DIGEST, "the generated inputs changed"
    index = out / "base.hgoe"
    assert cli.main(["index", "--corpus", str(inputs.corpus), "--variant", "base",
                     "--out", str(index)]) == 0
    return inputs, index


def test_the_base_index_bytes_are_pinned(seed1, capsys):
    _, index = seed1
    data = index.read_bytes()
    assert (sha256_prefix(data), len(data)) == BASE_INDEX


@pytest.mark.parametrize("node_fatigue, edge_fatigue", list(BASE_RUNS),
                         ids=[f"{n}-{e}" for n, e in BASE_RUNS])
def test_the_base_run_files_are_pinned(seed1, tmp_path, capsys, node_fatigue, edge_fatigue):
    inputs, index = seed1
    run = tmp_path / "run.txt"
    assert cli.main(["search", "--index", str(index), "--topics", str(inputs.topics),
                     "--repeats", "200", "--node-fatigue", str(node_fatigue),
                     "--edge-fatigue", str(edge_fatigue), "--out", str(run)]) == 0
    assert sha256_prefix(run.read_bytes()) == BASE_RUNS[node_fatigue, edge_fatigue]
