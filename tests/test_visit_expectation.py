"""Fatigue-free visit counts against their expectation, computed with no RNG.

With both fatigue windows 0 the walks of a ranking are independent, so the
expected visits of each Document edge follow from pushing probability mass
from the seeds through the graph for `walk_length` steps. This oracle reads
only the public edge and node records: it finds each node's out-edges and
targets itself, and shares no code with the walk engine or with
`tests/reference.py`.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from hgoe import EdgeKind, RankingParams, SeedSet, Variant, rws

import graphgen

REPEATS = 30_000
LENGTH = 3
ALPHA = 1e-6  # false-alarm probability per Document edge checked


def transitions(graph) -> list[list[tuple[float, int, list[tuple[float, int]]]]]:
    """Per node: (edge probability, edge id, [(target probability, target)]) of each
    out-edge, an edge that reaches a node other than the source.

    An undirected edge leads from each member to the other members, a directed
    one from each tail node to its head. Unweighted, the out-edge and then the
    target are picked uniformly; weighted, the out-edge in proportion to its
    weight and the target to its node weight.
    """
    weighted = graph.variant is Variant.WEIGHTED
    options: list[list[tuple[int, list[int]]]] = [[] for _ in graph.nodes]
    for edge in graph.edges:
        for source in edge.tail or edge.members:
            targets = [t for t in edge.head or edge.members if t != source]
            if targets:
                options[source].append((edge.edge_id, targets))
    table = []
    for out in options:
        edge_weights = [graph.edges[e].weight if weighted else 1.0 for e, _ in out]
        row = []
        for (edge_id, targets), edge_weight in zip(out, edge_weights):
            node_weights = [graph.nodes[t].weight if weighted else 1.0 for t in targets]
            total = sum(node_weights)
            row.append((edge_weight / sum(edge_weights), edge_id,
                        [(w / total, t) for w, t in zip(node_weights, targets)]))
        table.append(row)
    return table


def expected_visits(graph, seeds: list[int], length: int) -> dict[int, float]:
    """Expected Document-edge visits of one walk from each seed, summed."""
    table = transitions(graph)
    mass = {seed: 1.0 for seed in seeds}
    visits: dict[int, float] = {}
    for _ in range(length):
        after: dict[int, float] = {}
        for node, p in mass.items():
            for p_edge, edge_id, targets in table[node]:
                if graph.edges[edge_id].kind is EdgeKind.DOCUMENT:
                    visits[edge_id] = visits.get(edge_id, 0.0) + p * p_edge
                for p_target, target in targets:
                    after[target] = after.get(target, 0.0) + p * p_edge * p_target
        mass = after
    return visits


@pytest.mark.parametrize("rng_seed", [7, 11, 23])
def test_fatigue_free_visits_lie_within_a_hoeffding_bound_of_their_expectation(rng_seed):
    """Each walk adds between 0 and LENGTH visits to an edge, so by Hoeffding's
    inequality the count of REPEATS walks strays from its expectation by
    LENGTH * sqrt(REPEATS ln(2 / ALPHA) / 2) or more with probability at most
    ALPHA. The graphs have at most 8 documents, so the 60 graphs of the three
    seeds check at most 480 edges, and a correct engine fails with probability
    below 1e-3 for rng seeds picked at random; these are pinned."""
    rng = np.random.default_rng(rng_seed)
    bound = LENGTH * math.sqrt(REPEATS * math.log(2 / ALPHA) / 2)
    reached = 0
    for i in range(20):
        variant = Variant.BASE if i % 2 == 0 else Variant.WEIGHTED
        graph, _ = graphgen.random_graph(rng, variant)
        table = transitions(graph)
        start = int(rng.choice([node for node, row in enumerate(table) if row]))
        expected = expected_visits(graph, [start], LENGTH)
        params = RankingParams(walk_length=LENGTH, repeats=REPEATS, rng_seed=rng_seed)
        counts = rws(graph, SeedSet(f"walk {i}", (start,)), params).visit_counts
        documents = [e.edge_id for e in graph.edges if e.kind is EdgeKind.DOCUMENT]
        assert set(counts) <= set(documents)
        for edge_id in documents:
            deviation = abs(counts.get(edge_id, 0) - REPEATS * expected.get(edge_id, 0.0))
            assert deviation < bound, (i, variant, start, edge_id)
            reached += edge_id in expected
    assert reached >= 40
