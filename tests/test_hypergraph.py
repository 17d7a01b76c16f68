"""Graph construction, traversal rules and the binary index format."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgoe import (
    EdgeKind,
    FatigueTable,
    FormatError,
    Hypergraph,
    InputError,
    InvariantError,
    NodeKind,
    RankingParams,
    Variant,
    random_walk,
)
from hgoe.ranking import make_stream

import graphgen


def small_graph():
    g = Hypergraph(Variant.BASE)
    a = g.upsert_node(NodeKind.TERM, "a")
    b = g.upsert_node(NodeKind.TERM, "b")
    c = g.upsert_node(NodeKind.TERM, "c")
    e = g.upsert_node(NodeKind.ENTITY, "thing")
    return g, a, b, c, e


def test_upsert_assigns_dense_ids_and_is_idempotent():
    g, a, b, c, e = small_graph()
    assert [a, b, c, e] == [0, 1, 2, 3]
    assert g.upsert_node(NodeKind.TERM, "b") == b
    assert len(g.nodes) == 4
    assert g.node_id(NodeKind.TERM, "b") == b
    assert g.node_id(NodeKind.TERM, "nope") is None


def test_term_and_entity_namespaces_are_separate():
    g = Hypergraph()
    t = g.upsert_node(NodeKind.TERM, "rome")
    e = g.upsert_node(NodeKind.ENTITY, "rome")
    assert t != e
    assert g.nodes[t].kind is NodeKind.TERM
    assert g.nodes[e].kind is NodeKind.ENTITY


def test_empty_label_rejected():
    g = Hypergraph()
    with pytest.raises(InputError):
        g.upsert_node(NodeKind.TERM, "")


def test_duplicate_edges_merge():
    g, a, b, c, e = small_graph()
    e1 = g.add_edge(EdgeKind.SYNONYM, members=[a, b])
    e2 = g.add_edge(EdgeKind.SYNONYM, members=[b, a])
    assert e1 == e2
    assert len(g.edges) == 1
    assert g.edges[e1].members == (a, b)


def test_document_edges_with_distinct_doc_ids_stay_separate():
    g, a, b, c, e = small_graph()
    e1 = g.add_edge(EdgeKind.DOCUMENT, members=[a, b], doc_id="d1")
    e2 = g.add_edge(EdgeKind.DOCUMENT, members=[a, b], doc_id="d2")
    assert e1 != e2
    assert g.doc_count == 2
    assert g.document_ids() == ["d1", "d2"]
    assert g.doc_edge_id("d2") == e2


def test_duplicate_doc_id_rejected():
    g, a, b, c, e = small_graph()
    g.add_edge(EdgeKind.DOCUMENT, members=[a, b], doc_id="d1")
    with pytest.raises(InputError):
        g.add_edge(EdgeKind.DOCUMENT, members=[a, c], doc_id="d1")


def test_kind_constraints():
    g, a, b, c, e = small_graph()
    with pytest.raises(InvariantError):
        g.add_edge(EdgeKind.RELATED_TO, members=[a, b])  # terms, not entities
    with pytest.raises(InvariantError):
        g.add_edge(EdgeKind.SYNONYM, tail=[a], head=[b])  # must be undirected
    with pytest.raises(InvariantError):
        g.add_edge(EdgeKind.CONTAINED_IN, members=[a, e])  # must be directed
    with pytest.raises(InvariantError):
        g.add_edge(EdgeKind.SYNONYM, members=[a, b], doc_id="d")  # doc_id reserved
    with pytest.raises(InvariantError):
        g.add_edge(EdgeKind.DOCUMENT, members=[a, b])  # doc_id required
    with pytest.raises(InvariantError):
        g.add_edge(EdgeKind.SYNONYM, members=[a])  # too small
    with pytest.raises(InputError):
        g.add_edge(EdgeKind.SYNONYM, members=[a, 99])  # unknown node


def one_step_reach(graph, node, fatigue_nodes=(), fatigue_edges=(), streams=64):
    """Every (edge, target) pair a one-step walk from node takes over `streams` seeds."""
    reached = set()
    for seed in range(streams):
        fatigue = FatigueTable()
        fatigue.nodes = dict.fromkeys(fatigue_nodes, 5)
        fatigue.edges = dict.fromkeys(fatigue_edges, 5)
        edges, nodes, _ = random_walk(graph, node, 1, fatigue, RankingParams(),
                                      make_stream(seed, "reach"))
        reached.update(zip(edges, nodes))
    return sorted(reached)


def test_transitions_undirected_edge():
    g, a, b, c, e = small_graph()
    edge = g.add_edge(EdgeKind.DOCUMENT, members=[a, b, c], doc_id="d1")
    g.freeze()
    assert g.out_edges(a) == g.out_edges(b) == g.out_edges(c) == (edge,)
    assert g.edges[edge].targets == (a, b, c)
    assert one_step_reach(g, a) == [(edge, b), (edge, c)]
    assert one_step_reach(g, b) == [(edge, a), (edge, c)]


def test_transitions_directed_edge_tail_to_head_only():
    g, a, b, c, e = small_graph()
    edge = g.add_edge(EdgeKind.CONTAINED_IN, tail=[a, b], head=[e])
    g.freeze()
    assert g.out_edges(a) == g.out_edges(b) == (edge,)
    assert g.out_edges(e) == ()
    assert g.edges[edge].targets == (e,)
    assert one_step_reach(g, a) == [(edge, e)]
    assert one_step_reach(g, e) == []


def test_transitions_respect_exclusions():
    g, a, b, c, e = small_graph()
    e1 = g.add_edge(EdgeKind.DOCUMENT, members=[a, b, c], doc_id="d1")
    e2 = g.add_edge(EdgeKind.SYNONYM, members=[a, c])
    g.freeze()
    assert g.out_edges(a) == (e1, e2)
    assert one_step_reach(g, a) == [(e1, b), (e1, c), (e2, c)]
    assert one_step_reach(g, a, fatigue_edges={e1}) == [(e2, c)]
    assert one_step_reach(g, a, fatigue_nodes={c}) == [(e1, b)]
    assert one_step_reach(g, a, fatigue_nodes={c}, fatigue_edges={e1}) == []
    with pytest.raises(InputError):
        g.out_edges(42)


def test_source_node_never_a_target():
    rng = np.random.default_rng(3)
    for _ in range(10):
        graph, _ = graphgen.random_graph(rng)
        for node_fatigue in (0, 1):
            # one table for all walks, so a walk can start on an unfatigued
            # node while other nodes are fatigued
            params, fatigue = RankingParams(node_fatigue=node_fatigue), FatigueTable()
            for node in graph.nodes:
                for seed in range(8):
                    edges, nodes, _ = random_walk(graph, node.node_id, 4, fatigue,
                                                  params, make_stream(seed, "source"))
                    path = [node.node_id, *nodes]
                    for source, edge_id, target in zip(path, edges, nodes):
                        assert edge_id in graph.out_edges(source)
                        assert target != source


def test_frozen_graph_rejects_mutation():
    g, a, b, c, e = small_graph()
    g.add_edge(EdgeKind.DOCUMENT, members=[a, b], doc_id="d1")
    g.freeze()
    assert g.frozen
    with pytest.raises(InvariantError):
        g.upsert_node(NodeKind.TERM, "new")
    with pytest.raises(InvariantError):
        g.add_edge(EdgeKind.SYNONYM, members=[a, b])


@pytest.mark.parametrize("field", ["members", "head", "kind"])
def test_freeze_detects_tampered_edge(field):
    g, a, b, c, e = small_graph()
    tampered = {
        "members": (g.add_edge(EdgeKind.DOCUMENT, members=[a, b], doc_id="d1"), (a, b, c)),
        "head": (g.add_edge(EdgeKind.CONTAINED_IN, tail=[a], head=[e]), (c,)),
        "kind": (g.add_edge(EdgeKind.SYNONYM, members=[b, c]), EdgeKind.CONTEXT),
    }
    edge_id, value = tampered[field]
    setattr(g.edges[edge_id], field, value)
    with pytest.raises(InvariantError, match=f"edge {edge_id} was changed"):
        g.freeze()


def test_freeze_rejects_out_of_range_weight():
    g = Hypergraph(Variant.WEIGHTED)
    a = g.upsert_node(NodeKind.TERM, "a")
    b = g.upsert_node(NodeKind.TERM, "b")
    edge = g.add_edge(EdgeKind.DOCUMENT, members=[a, b], doc_id="d1")
    g.edges[edge].weight = 1.5
    for node in g.nodes:
        node.weight = 0.5
    with pytest.raises(InvariantError):
        g.freeze()


def test_weighted_freeze_requires_all_weights():
    g = Hypergraph(Variant.WEIGHTED)
    a = g.upsert_node(NodeKind.TERM, "a")
    b = g.upsert_node(NodeKind.TERM, "b")
    edge = g.add_edge(EdgeKind.DOCUMENT, members=[a, b], doc_id="d1")
    g.edges[edge].weight = 0.5
    g.nodes[a].weight = 0.5
    with pytest.raises(InvariantError):
        g.freeze()


def test_round_trip_preserves_everything(tmp_path):
    rng = np.random.default_rng(11)
    graph, _ = graphgen.random_graph(rng, Variant.WEIGHTED)
    path = tmp_path / "g.hgoe"
    graph.save(str(path))
    loaded = Hypergraph.load(str(path))
    assert loaded.frozen
    assert graph.structurally_equal(loaded)
    assert loaded.structurally_equal(graph)
    assert loaded.term_df == graph.term_df
    assert loaded.entity_df == graph.entity_df


def test_save_is_byte_deterministic(tmp_path):
    rng = np.random.default_rng(12)
    graph, _ = graphgen.random_graph(rng, Variant.SYNS_CONTEXT)
    p1, p2 = tmp_path / "one.hgoe", tmp_path / "two.hgoe"
    graph.save(str(p1))
    graph.save(str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_corrupted_magic_rejected(tmp_path):
    rng = np.random.default_rng(13)
    graph, _ = graphgen.random_graph(rng, Variant.BASE)
    path = tmp_path / "g.hgoe"
    graph.save(str(path))
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError) as err:
        Hypergraph.load(str(path))
    assert "offset 0" in str(err.value)


def test_truncated_file_rejected(tmp_path):
    rng = np.random.default_rng(14)
    graph, _ = graphgen.random_graph(rng, Variant.BASE)
    path = tmp_path / "g.hgoe"
    graph.save(str(path))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(FormatError) as err:
        Hypergraph.load(str(path))
    assert "offset" in str(err.value)


def test_unsupported_version_rejected(tmp_path):
    rng = np.random.default_rng(15)
    graph, _ = graphgen.random_graph(rng, Variant.BASE)
    path = tmp_path / "g.hgoe"
    graph.save(str(path))
    data = bytearray(path.read_bytes())
    data[4] = 99  # version field sits right after the magic
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        Hypergraph.load(str(path))


def test_trailing_data_rejected(tmp_path):
    rng = np.random.default_rng(16)
    graph, _ = graphgen.random_graph(rng, Variant.BASE)
    path = tmp_path / "g.hgoe"
    graph.save(str(path))
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(FormatError):
        Hypergraph.load(str(path))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_random_graph_round_trips(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    graph, _ = graphgen.random_graph(rng)
    path = tmp_path_factory.mktemp("rt") / "g.hgoe"
    graph.save(str(path))
    assert Hypergraph.load(str(path)).structurally_equal(graph)
