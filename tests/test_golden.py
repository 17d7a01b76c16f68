"""Golden rankings under fatigue.

The reference walker has no fatigue, so these digests are what pins the
fatigued walk bit for bit: any change to which transitions are eligible,
their order, or the draws made per step changes a digest. The values were
captured from the walk engine before its transition table was rewritten.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from hgoe import RankingParams, Variant, rws

import graphgen

FATIGUE_PAIRS = [(0, 0), (1, 0), (0, 1), (2, 3), (10, 10)]
GRAPHS_PER_VARIANT = 24
QUERIES_PER_GRAPH = 3

# (variant, node fatigue, edge fatigue) -> (total steps, sha256 of the rankings)
GOLDEN = {
    ('base', 0, 0): (2820, '3dac96e940e999cbcf19d31835b1a2bd20402f919f8c20f5865cb13af84ff527'),
    ('base', 1, 0): (2763, 'b42df50f43b0adc73a560b35f5a66557ffe46fac40a3045333bad89e5b9fa577'),
    ('base', 0, 1): (1032, '50c765aae0f14ff1192dcf09cbaecaf46e3dad9e1f3a86a169472b45cc2ead45'),
    ('base', 2, 3): (215, 'f5b9d5bfbb72f33cd34b8550ec438fa93a1a98c65ceb7256fc87ab26eaccb78a'),
    ('base', 10, 10): (88, '7307c36d27875d1384a6aaea72f86ef9ff4b85c9dc61629fd12d63ba455ec932'),
    ('syns-context', 0, 0): (3240, 'f4ff3626deea6ebdbac79c839a06ca40400aaf9f3ecf58facc8be39905456200'),
    ('syns-context', 1, 0): (3012, 'b4298012ef0b343c2568efbd7dbe3d88e46bef9d0a82c85037644be792ce1b7c'),
    ('syns-context', 0, 1): (1507, 'c7ff809fb947fe7492eaaa7e7bbd3341e0ab925223ceeca49f5461ed0fee7a08'),
    ('syns-context', 2, 3): (541, '256f4f06b3a7d446bd7c5194cd75c265faf0499128d6efb1d414a085d191ac11'),
    ('syns-context', 10, 10): (144, '7bf725519f722e7afe512c4c03d6fb7b4bd36770160d266b0468ebc8fdd0775a'),
    ('weighted', 0, 0): (3240, '233885aedfb4c6dee6290697ebac98cb09235f47b34455158db9f3d99ccd4aec'),
    ('weighted', 1, 0): (3012, '0995dba9df83b38dde584e0ce21a5270ceed00546b10ffb6e059ab91c5c87723'),
    ('weighted', 0, 1): (1470, 'f8630c77651ec7d97bd0f0e66184e469fd3405a27a64944845c6d499a264ef3b'),
    ('weighted', 2, 3): (583, '602dcc7782390e2d870de0386d01cf7f920d4dbe6777a0aed9c3da97d78c5469'),
    ('weighted', 10, 10): (133, 'c802294bc8c74ae9298e7142dc5e9686ad3676b0b64ad749b182a07d2be6f3cb'),
}


def _rankings(variant: Variant, node_fatigue: int, edge_fatigue: int) -> tuple[int, str]:
    params = RankingParams(walk_length=3, repeats=20, node_fatigue=node_fatigue,
                           edge_fatigue=edge_fatigue, rng_seed=7)
    digest = hashlib.sha256()
    steps = 0
    for graph_seed in range(GRAPHS_PER_VARIANT):
        rng = np.random.default_rng(1000 + graph_seed)
        graph, _ = graphgen.random_graph(rng, variant)
        for _ in range(QUERIES_PER_GRAPH):
            query = graphgen.random_query(rng)
            ranking = rws(graph, query, params)
            steps += ranking.total_steps
            record = (query, ranking.entries, sorted(ranking.visit_counts.items()),
                      ranking.total_steps)
            digest.update(repr(record).encode("utf-8"))
    return steps, digest.hexdigest()


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("node_fatigue, edge_fatigue", FATIGUE_PAIRS)
def test_fatigued_rankings_match_golden(variant, node_fatigue, edge_fatigue):
    assert _rankings(variant, node_fatigue, edge_fatigue) == GOLDEN[
        (variant.value, node_fatigue, edge_fatigue)
    ]
