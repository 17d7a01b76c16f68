"""Independent reference scorer for fatigue-free walks.

Re-implements the documented seeding, sampling and stream rules from
scratch on top of the public edge records, without touching the walk
engine or its walk table: each call builds its own node -> (edge id, role)
incidence lists from `graph.edges`.  Used to pin down the exact random
stream contract: with both fatigue windows at zero the engine must
reproduce these results bit for bit.
"""
from __future__ import annotations

import hashlib

import numpy as np

from hgoe import EdgeKind, NodeKind, Variant
from hgoe.indexer import tokenize


def _stream(rng_seed: int, query: str) -> np.random.Generator:
    digest = hashlib.sha256(query.encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "big")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([rng_seed, key])))


MEMBER, TAIL, HEAD = "member", "tail", "head"


def _incidence(graph) -> list[list[tuple[int, str]]]:
    """For each node id, the (edge id, role) pairs of the edges touching it."""
    incidence: list[list[tuple[int, str]]] = [[] for _ in graph.nodes]
    for edge in graph.edges:
        for role, ids in ((MEMBER, edge.members), (TAIL, edge.tail), (HEAD, edge.head)):
            for n in ids:
                incidence[n].append((edge.edge_id, role))
    return incidence


def _seeds(graph, incidence, query: str) -> list[int]:
    seeds = set()
    for term in dict.fromkeys(tokenize(query)):
        node_id = graph.node_id(NodeKind.TERM, term)
        if node_id is None:
            continue
        entities = set()
        for edge_id, role in incidence[node_id]:
            edge = graph.edges[edge_id]
            if edge.kind is EdgeKind.CONTAINED_IN and role == TAIL:
                entities.update(edge.head)
        seeds.update(entities if entities else {node_id})
    return sorted(seeds)


def _options(graph, incidence, node_id: int) -> list[tuple[int, list[int]]]:
    per_edge = []
    for edge_id, role in incidence[node_id]:
        edge = graph.edges[edge_id]
        if edge.directed:
            if role != TAIL:
                continue
            targets = sorted(edge.head)
        else:
            targets = sorted(m for m in edge.members if m != node_id)
        if targets:
            per_edge.append((edge_id, targets))
    per_edge.sort(key=lambda item: item[0])
    return per_edge


def _weighted_pick(weights: list[float], u: float) -> int:
    total = sum(weights)
    x = u * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if x < acc:
            return i
    return len(weights) - 1


def reference_rws(graph, query: str, params):
    """Returns (entries, visit_counts, total_steps) with no fatigue logic."""
    incidence = _incidence(graph)
    seeds = _seeds(graph, incidence, query)
    if not seeds:
        return [], {}, 0
    rng = _stream(params.rng_seed, query)
    weighted = graph.variant is Variant.WEIGHTED
    visit_counts: dict[int, int] = {}
    total_steps = 0
    for _ in range(params.repeats):
        for seed in seeds:
            current = seed
            for _ in range(params.walk_length):
                options = _options(graph, incidence, current)
                if not options:
                    break
                if weighted:
                    edge_weights = [graph.edges[e].weight for e, _ in options]
                    edge_id, targets = options[_weighted_pick(edge_weights, float(rng.random()))]
                    node_weights = [graph.nodes[t].weight for t in targets]
                    target = targets[_weighted_pick(node_weights, float(rng.random()))]
                else:
                    edge_id, targets = options[int(rng.integers(len(options)))]
                    target = targets[int(rng.integers(len(targets)))]
                total_steps += 1
                if graph.edges[edge_id].kind is EdgeKind.DOCUMENT:
                    visit_counts[edge_id] = visit_counts.get(edge_id, 0) + 1
                current = target
    total = sum(visit_counts.values())
    entries = sorted(
        ((graph.edges[e].doc_id, count / total) for e, count in visit_counts.items()),
        key=lambda item: (-item[1], item[0]),
    )
    return entries, visit_counts, total_steps
