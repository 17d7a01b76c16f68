"""Graph construction, traversal rules and the binary index format."""
from __future__ import annotations

import gc
import tracemalloc
from itertools import groupby
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgoe import (
    CorpusDocument,
    EdgeKind,
    FatigueTable,
    FormatError,
    Hypergraph,
    InputError,
    InvariantError,
    NodeKind,
    RankingParams,
    Variant,
    index_corpus,
    random_walk,
    tokenize,
)
from hgoe import hypergraph
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


def upsert_each(graph, kind, labels):
    """One upsert_node per label: the ids, nodes and errors a batch upsert must give."""
    return [graph.upsert_node(kind, label) for label in labels]


# Each way of upserting a batch of labels of one kind.
BATCH_UPSERTS = [upsert_each, Hypergraph.upsert_nodes]


def node_records(graph):
    return [(node.node_id, node.kind, node.label) for node in graph.nodes]


@pytest.mark.parametrize("upsert", BATCH_UPSERTS)
def test_batch_upsert_gives_first_seen_ids(upsert):
    g = Hypergraph()
    assert upsert(g, NodeKind.TERM, ["a", "b", "a", "c", "b"]) == [0, 1, 0, 2, 1]
    assert upsert(g, NodeKind.ENTITY, ["a", "x", "x"]) == [3, 4, 4]
    assert upsert(g, NodeKind.TERM, ("c", "d", "a", "d")) == [2, 5, 0, 5]
    assert upsert(g, NodeKind.ENTITY, ["x", "a"]) == [4, 3]
    assert upsert(g, NodeKind.TERM, []) == []
    assert upsert(g, 1, ["y", "a"]) == [6, 3]
    assert upsert(g, 0, ["y"]) == [7]
    term, entity = NodeKind.TERM, NodeKind.ENTITY
    assert node_records(g) == [(0, term, "a"), (1, term, "b"), (2, term, "c"), (3, entity, "a"),
                               (4, entity, "x"), (5, term, "d"), (6, entity, "y"), (7, term, "y")]
    assert all(type(node.kind) is NodeKind for node in g.nodes)


@pytest.mark.parametrize("upsert", BATCH_UPSERTS)
@pytest.mark.parametrize("labels", [["a"], ["new"], ["b", "new", "a"], [""]])
def test_frozen_graph_rejects_known_and_new_labels(upsert, labels):
    g, *_ = small_graph()
    g.freeze()
    with pytest.raises(InvariantError, match="graph is frozen"):
        upsert(g, NodeKind.TERM, labels)
    assert upsert(g, NodeKind.TERM, []) == []
    assert len(g.nodes) == 4


@pytest.mark.parametrize("upsert", BATCH_UPSERTS)
@pytest.mark.parametrize("bad", ["", 5, None, b"c", ["c"], {"c": 1}])
def test_bad_label_mid_batch_keeps_the_nodes_before_it(upsert, bad):
    g = Hypergraph()
    upsert(g, NodeKind.TERM, ["a"])
    with pytest.raises(InputError, match="^node label must be a non-empty string$"):
        upsert(g, NodeKind.TERM, ["b", "a", bad, "c"])
    assert node_records(g) == [(0, NodeKind.TERM, "a"), (1, NodeKind.TERM, "b")]


@pytest.mark.parametrize("upsert", BATCH_UPSERTS)
@pytest.mark.parametrize("kind", [7, "term", None, []])
def test_batch_upsert_checks_the_label_before_the_kind(upsert, kind):
    g = Hypergraph()
    upsert(g, NodeKind.TERM, ["a"])
    with pytest.raises(InputError):
        upsert(g, kind, ["", "a"])
    with pytest.raises(ValueError, match="is not a valid NodeKind"):
        upsert(g, kind, ["a", ""])
    assert upsert(g, kind, []) == []
    assert node_records(g) == [(0, NodeKind.TERM, "a")]


def _outcome(upsert, graph, kind, labels):
    try:
        return upsert(graph, kind, labels)
    except (InputError, InvariantError) as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(NodeKind),
    st.lists(st.sampled_from(["a", "b", "c", "d", "e", "", 5]), max_size=8),
    st.booleans(),
), max_size=12))
def test_upsert_nodes_matches_one_upsert_node_per_label(batches):
    each, batched = Hypergraph(), Hypergraph()
    for kind, labels, freeze in batches:
        assert _outcome(Hypergraph.upsert_nodes, batched, kind, labels) == _outcome(
            upsert_each, each, kind, labels)
        assert node_records(batched) == node_records(each)
        if freeze and len(each.nodes) > 6:
            each.freeze()
            batched.freeze()


def test_node_id_takes_a_node_kind_or_its_value():
    g = Hypergraph()
    t = g.upsert_node(NodeKind.TERM, "x")
    e = g.upsert_node(NodeKind.ENTITY, "y")
    assert g.node_id(0, "x") == g.node_id(NodeKind.TERM, "x") == t
    assert g.node_id(1, "y") == e
    assert g.node_id(NodeKind.ENTITY, "x") is None
    assert g.node_id(7, "x") is None
    assert g.node_id("term", "x") is None


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
    with pytest.raises(InputError, match="duplicate document id 'd1'"):
        g.add_edge(EdgeKind.DOCUMENT, members=[a, c], doc_id="d1")
    with pytest.raises(InputError, match="duplicate document id 'd1'"):
        g.add_edge(EdgeKind.DOCUMENT, members=[a, b], doc_id="d1")
    assert g.doc_count == 1 and len(g.edges) == 1


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


@pytest.mark.parametrize("kind, edge, message", [
    (EdgeKind.CONTAINED_IN, dict(members=[0, 1], tail=[2], head=[3]),
     "an edge is undirected (members) or directed (tail/head), not both"),
    (EdgeKind.CONTAINED_IN, dict(tail=[0, 1]),
     "directed edge needs a non-empty tail and a non-empty head"),
    (EdgeKind.SYNONYM, dict(), "undirected edge needs at least one member"),
], ids=["members-and-tail", "tail-without-head", "no-members"])
def test_add_edge_rejects_an_edge_of_no_one_shape(kind, edge, message):
    g, a, b, c, e = small_graph()
    with pytest.raises(InputError) as caught:
        g.add_edge(kind, **edge)
    assert str(caught.value) == message
    assert g.edges == []


@pytest.mark.parametrize("where", ["members", "tail", "head"])
@pytest.mark.parametrize("bad, named", [
    ([-1], -1), ([4], 4), ([9, 5], 5), ([-3, -2], -3), ([-2, 7], -2), ([4, -5, 6], -5),
])
def test_add_edge_names_the_first_unknown_node(where, bad, named):
    g, a, b, c, e = small_graph()
    edge = {
        "members": dict(kind=EdgeKind.DOCUMENT, members=[a, *bad, b], doc_id="d1"),
        "tail": dict(kind=EdgeKind.CONTAINED_IN, tail=[*bad, a], head=[e]),
        "head": dict(kind=EdgeKind.CONTAINED_IN, tail=[a], head=[e, *bad]),
    }[where]
    with pytest.raises(InputError, match=f"^unknown node id {named}$"):
        g.add_edge(**edge)
    assert g.edges == [] and g.doc_count == 0


def test_add_edge_names_an_unknown_tail_node_before_a_head_node():
    g, a, b, c, e = small_graph()
    with pytest.raises(InputError, match="^unknown node id 9$"):
        g.add_edge(EdgeKind.CONTAINED_IN, tail=[a, 9], head=[-1, e])
    with pytest.raises(InputError, match="^unknown node id -4$"):
        g.add_edge(EdgeKind.CONTAINED_IN, tail=[-4, 8], head=[-1, e])


def one_step_reach(graph, node, fatigue_nodes=(), fatigue_edges=(), streams=64):
    """Every (edge, target) pair a one-step walk from node takes over `streams` seeds.

    The given nodes and edges are fatigued through `advance`, one call each,
    with a window longer than the number of calls, so all are still fatigued
    when the walk starts.
    """
    window = len(fatigue_nodes) + len(fatigue_edges) + 1
    params = RankingParams(node_fatigue=window, edge_fatigue=window)
    reached = set()
    for seed in range(streams):
        fatigue = FatigueTable()
        for fatigued_node in fatigue_nodes:
            fatigue.advance(0, fatigued_node, window, 0)
        for fatigued_edge in fatigue_edges:
            fatigue.advance(fatigued_edge, 0, 0, window)
        assert fatigue.nodes.keys() == set(fatigue_nodes)
        assert fatigue.edges.keys() == set(fatigue_edges)
        edges, nodes, _ = random_walk(graph, node, 1, fatigue, params,
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


def test_freeze_rejects_a_document_count_its_document_edges_do_not_match():
    g, a, b, c, e = small_graph()
    g.add_edge(EdgeKind.DOCUMENT, members=[a, b], doc_id="d1")
    g._doc_edges["d2"] = 0  # a second doc id for the one Document edge
    with pytest.raises(InvariantError) as caught:
        g.freeze()
    assert str(caught.value) == "document count does not match Document edges"


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


@pytest.mark.parametrize("weight", [0.0, 1.5, float("nan")])
@pytest.mark.parametrize("what", ["node", "edge"])
def test_weighted_freeze_rejects_a_weight_outside_zero_to_one(what, weight):
    # the loader checks a file's weights itself; a built graph relies on freeze
    g = Hypergraph(Variant.WEIGHTED)
    a = g.upsert_node(NodeKind.TERM, "a")
    b = g.upsert_node(NodeKind.TERM, "b")
    g.add_edge(EdgeKind.DOCUMENT, members=[a, b], doc_id="d1")
    for item in (*g.nodes, *g.edges):
        item.weight = 0.5
    (g.nodes if what == "node" else g.edges)[0].weight = weight
    with pytest.raises(InvariantError, match=rf"^{what} 0 weight {weight} outside \(0, 1\]$"):
        g.freeze()


@pytest.mark.parametrize("variant", [Variant.BASE, Variant.SYNS_CONTEXT])
@pytest.mark.parametrize("what", ["node", "edge"])
def test_unweighted_freeze_rejects_any_weight(variant, what):
    # The index stores weights only for a weighted graph, so a weight here
    # could not survive a save and load.
    g = Hypergraph(variant)
    a = g.upsert_node(NodeKind.TERM, "a")
    b = g.upsert_node(NodeKind.TERM, "b")
    g.add_edge(EdgeKind.DOCUMENT, members=[a, b], doc_id="d1")
    g.add_edge(EdgeKind.SYNONYM, members=[a, b])
    (g.nodes if what == "node" else g.edges)[1].weight = 0.5
    with pytest.raises(InvariantError, match=f"{what} 1 has a weight in a {variant.value} graph"):
        g.freeze()


def test_save_refuses_an_unfrozen_graph_and_writes_no_file(tmp_path):
    # Unfrozen, this weight escapes the check freeze makes, and the file
    # would hold a node weights section that load rejects.
    g, a, b, c, e = small_graph()
    g.add_edge(EdgeKind.DOCUMENT, members=[a, b, e], doc_id="d1")
    g.nodes[0].weight = 0.5
    path = tmp_path / "g.hgoe"
    with pytest.raises(InvariantError, match="^graph must be frozen before saving$"):
        g.save(str(path))
    assert not path.exists()


def test_round_trip_preserves_everything(tmp_path):
    rng = np.random.default_rng(11)
    graph, _ = graphgen.random_graph(rng, Variant.WEIGHTED)
    path = tmp_path / "g.hgoe"
    graph.save(str(path))
    loaded = Hypergraph.load(str(path))
    assert loaded.frozen
    assert graph.structurally_equal(loaded)
    assert loaded.structurally_equal(graph)


@pytest.mark.parametrize("id_batch", [1, 5, hypergraph._ID_BATCH])
@pytest.mark.parametrize("variant", list(Variant))
def test_a_loaded_graph_walks_as_built_and_shares_the_node_id_objects(tmp_path, monkeypatch,
                                                                       variant, id_batch):
    # A batch of 1 or 5 ids makes edges span batches and outgrow them.
    monkeypatch.setattr(hypergraph, "_ID_BATCH", id_batch)
    rng = np.random.default_rng(41)
    graphs = [graphgen.random_graph(rng, variant)[0] for _ in range(6)]
    # Ints above 256 are not cached, so on this graph `is` tells a member id
    # the loader shared from one it made afresh.
    words = [f"w{i:02d}" for i in range(600)]
    docs = [CorpusDocument(f"d{i}", " ".join(rng.choice(words, size=12)),
                           tuple(rng.choice(graphgen.ENTITY_NAMES, size=2, replace=False)))
            for i in range(300)]
    extras = () if variant is Variant.BASE else (
        graphgen.random_lexicon(rng), graphgen.random_embeddings(rng))
    graphs.append(index_corpus(docs, variant, *extras))
    assert len(graphs[-1].nodes) > 500
    for i, graph in enumerate(graphs):
        path = tmp_path / f"g{i}.hgoe"
        graph.save(str(path))
        loaded = Hypergraph.load(str(path))
        assert loaded.structurally_equal(graph)
        assert loaded.walk_table == graph.walk_table
        assert loaded._contained_in == graph._contained_in
        ids = [node.node_id for node in loaded.nodes]
        for edge in loaded.edges:
            assert all(n is ids[n] for n in edge.members + edge.tail + edge.head), edge
        for table in loaded._node_index.values():
            assert all(n is ids[n] for n in table.values())
        assert all(e is loaded.edges[e].edge_id for e in loaded._doc_edges.values())


@pytest.mark.parametrize("change", [
    lambda g: setattr(g.nodes[-1], "weight", g.nodes[-1].weight / 2),
    lambda g: setattr(g.nodes[0], "label", g.nodes[0].label + "x"),
    lambda g: setattr(g.edges[-1], "weight", g.edges[-1].weight / 2),
    lambda g: setattr(g.edges[0], "members", g.edges[0].members[1:]),
    lambda g: setattr(g, "variant", Variant.SYNS_CONTEXT),
    lambda g: g.edges.pop(),
], ids=["node-weight", "node-label", "edge-weight", "edge-members", "variant", "edge-count"])
def test_structurally_equal_sees_a_change_to_any_record(tmp_path, change):
    graph, _ = graphgen.random_graph(np.random.default_rng(11), Variant.WEIGHTED)
    path = tmp_path / "g.hgoe"
    graph.save(str(path))
    loaded = Hypergraph.load(str(path))
    change(loaded)
    assert not graph.structurally_equal(loaded)
    assert not loaded.structurally_equal(graph)


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


def test_every_truncation_names_an_offset(tmp_path):
    # Weighted, with directed edges, so that some cut falls inside each kind
    # of record and each kind of array.
    graph, _ = graphgen.random_graph(np.random.default_rng(25), Variant.WEIGHTED)
    assert any(e.directed for e in graph.edges)
    path = tmp_path / "g.hgoe"
    graph.save(str(path))
    data = path.read_bytes()
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(FormatError, match="offset"):
            Hypergraph.load(str(path))


def test_every_byte_flip_is_rejected_or_saved_back(tmp_path):
    # A flipped byte either fails with an offset or leaves another valid index,
    # and an index is the only encoding of the graph it loads as.
    graph, _ = graphgen.random_graph(np.random.default_rng(25), Variant.WEIGHTED)
    assert any(e.directed for e in graph.edges)
    path, resaved = tmp_path / "g.hgoe", tmp_path / "again.hgoe"
    graph.save(str(path))
    data = path.read_bytes()
    for i in range(len(data)):
        for mask in (0x01, 0x80, 0xFF):
            mutated = bytearray(data)
            mutated[i] ^= mask
            path.write_bytes(mutated)
            try:
                loaded = Hypergraph.load(str(path))
            except FormatError as exc:
                assert "offset" in str(exc), (i, mask, str(exc))
                continue
            loaded.save(str(resaved))
            assert resaved.read_bytes() == mutated, (i, mask)


def _empty_label(graph):
    graph.nodes[0].label = ""


def _members_out_of_order(graph):
    graph.edges[0].members = graph.edges[0].members[::-1]


def _repeated_member(graph):
    graph.edges[0].members = graph.edges[0].members[:1] * 2


# Offsets follow the layout in the hypergraph module docstring for small_graph
# plus one Document edge: label ends start at 37, members at 100, and its
# 4 nodes take 1-byte ids.
@pytest.mark.parametrize("corrupt, message", [
    (_empty_label, "label ends section: .* at offset 37$"),
    (_members_out_of_order, "members section: node id 1 does not exceed .* at offset 101$"),
    (_repeated_member, "members section: node id 0 does not exceed .* at offset 101$"),
], ids=["empty-label", "members-out-of-order", "repeated-member"])
def test_load_rejects_records_add_edge_cannot_make(tmp_path, corrupt, message):
    g, a, b, c, e = small_graph()
    g.add_edge(EdgeKind.DOCUMENT, members=[a, b, e], doc_id="d1")
    g.freeze()
    corrupt(g)
    path = tmp_path / "g.hgoe"
    g.save(str(path))
    with pytest.raises(FormatError, match=message):
        Hypergraph.load(str(path))


def _repeated_node(graph):
    graph.nodes[1].label = graph.nodes[0].label


def _repeated_doc_id(graph):
    graph.edges[1].doc_id = graph.edges[0].doc_id


def _repeated_edge(graph):
    graph.edges[3].members = graph.edges[2].members


# small_graph plus Document edges 0, 1 and Synonym edges 2, 3: label ends
# start at 37, edge kinds at 69 and doc id ends at 81.
@pytest.mark.parametrize("corrupt, message", [
    (_repeated_node, "label ends section: node 1 repeats an earlier node at offset 41$"),
    (_repeated_doc_id, "doc id ends section: doc id 1 repeats an earlier doc id at offset 85$"),
    (_repeated_edge, "edge kinds section: edge 3 repeats an earlier edge at offset 72$"),
], ids=["node", "doc-id", "edge"])
def test_load_rejects_a_record_that_repeats_an_earlier_one(tmp_path, corrupt, message):
    g, a, b, c, e = small_graph()
    g.add_edge(EdgeKind.DOCUMENT, members=[a, b, e], doc_id="d1")
    g.add_edge(EdgeKind.DOCUMENT, members=[b, c], doc_id="d2")
    g.add_edge(EdgeKind.SYNONYM, members=[a, b])
    g.add_edge(EdgeKind.SYNONYM, members=[a, c])
    g.freeze()
    path = tmp_path / "g.hgoe"
    g.save(str(path))
    Hypergraph.load(str(path))
    corrupt(g)
    g.save(str(path))
    with pytest.raises(FormatError, match=message):
        Hypergraph.load(str(path))


def test_load_keeps_edges_that_differ_only_in_doc_id_or_kind(tmp_path, monkeypatch):
    g, a, b, c, e = small_graph()
    g.add_edge(EdgeKind.DOCUMENT, members=[a, b], doc_id="d1")
    g.add_edge(EdgeKind.DOCUMENT, members=[a, b], doc_id="d2")
    g.add_edge(EdgeKind.SYNONYM, members=[a, b])
    g.add_edge(EdgeKind.CONTEXT, members=[a, b])
    f = g.upsert_node(NodeKind.ENTITY, "other")
    g.add_edge(EdgeKind.CONTAINED_IN, tail=[a], head=[e])
    g.add_edge(EdgeKind.CONTAINED_IN, tail=[a], head=[f])
    g.add_edge(EdgeKind.CONTAINED_IN, tail=[a, b], head=[e])
    g.freeze()
    path = tmp_path / "g.hgoe"
    g.save(str(path))
    # No record repeats, so the loader never needs the scan that names one.
    monkeypatch.setattr(hypergraph, "_repeated", lambda *args: pytest.fail("scanned for a repeat"))
    loaded = Hypergraph.load(str(path))
    assert loaded.structurally_equal(g)
    assert [loaded.doc_edge_id(d) for d in ("d1", "d2")] == [0, 1]


def _repeated_synonym(graph):
    graph.edges[51].members = graph.edges[50].members


def _repeated_contained_in(graph):
    graph.edges[53].tail = graph.edges[52].tail


# small_graph plus 50 Document edges, Synonym edges 50, 51 and ContainedIn
# edges 52, 53: edge kinds start at 69, so edge n is at offset 69 + n.
@pytest.mark.parametrize("corrupt, message", [
    (_repeated_synonym, "edge kinds section: edge 51 repeats an earlier edge at offset 120$"),
    (_repeated_contained_in, "edge kinds section: edge 53 repeats an earlier edge at offset 122$"),
], ids=["synonym", "contained-in"])
def test_load_finds_a_repeated_edge_after_the_document_edges(tmp_path, corrupt, message):
    g, a, b, c, e = small_graph()
    for i in range(50):
        g.add_edge(EdgeKind.DOCUMENT, members=[a, b, c, e][i % 3:], doc_id=f"d{i}")
    g.add_edge(EdgeKind.SYNONYM, members=[a, b])
    g.add_edge(EdgeKind.SYNONYM, members=[a, c])
    g.add_edge(EdgeKind.CONTAINED_IN, tail=[a], head=[e])
    g.add_edge(EdgeKind.CONTAINED_IN, tail=[b], head=[e])
    g.freeze()
    path = tmp_path / "g.hgoe"
    g.save(str(path))
    Hypergraph.load(str(path))
    corrupt(g)
    g.save(str(path))
    with pytest.raises(FormatError, match=message):
        Hypergraph.load(str(path))


def test_unsupported_version_rejected(tmp_path):
    rng = np.random.default_rng(15)
    graph, _ = graphgen.random_graph(rng, Variant.BASE)
    path = tmp_path / "g.hgoe"
    graph.save(str(path))
    data = bytearray(path.read_bytes())
    for version in (99, 1, 2, 3, 4, 5):
        data[4] = version  # version field sits right after the magic
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"unsupported format version {version} at offset 4") as err:
            Hypergraph.load(str(path))
        assert str(err.value).startswith(f"{path}: ")
        assert ("rebuild it with `hgoe index`" in str(err.value)) == (version in (1, 2, 3, 4, 5))


def _width_graph(node_count):
    """node_count - 1 terms, then one entity; the edges reach the first and the last node."""
    g = Hypergraph(Variant.BASE)
    terms = g.upsert_nodes(NodeKind.TERM, [f"t{i}" for i in range(node_count - 1)])
    last = g.upsert_node(NodeKind.ENTITY, "last")
    g.add_edge(EdgeKind.DOCUMENT, members=[terms[0], terms[-1], last], doc_id="d1")
    g.add_edge(EdgeKind.SYNONYM, members=terms[-2:])
    g.add_edge(EdgeKind.CONTAINED_IN, tail=[terms[0], terms[-1]], head=[last])
    return g.freeze()


def _section_spans(data):
    """(first item offset, byte length) of each array section of an index file."""
    spans, offset = [], hypergraph._HEADER.size
    while offset < len(data):
        length = int.from_bytes(data[offset:offset + 4], "little")
        spans.append((offset + 4, length))
        offset += 4 + length
    return spans


MEMBERS, HEADS = 9, 11  # section positions in the module docstring's layout


@pytest.mark.parametrize("node_count, width", [(256, 1), (257, 2), (65_536, 2), (65_537, 4)])
def test_node_ids_take_the_narrowest_width_the_node_count_allows(tmp_path, node_count, width):
    g = _width_graph(node_count)
    path, again = tmp_path / "g.hgoe", tmp_path / "again.hgoe"
    g.save(str(path))
    data = path.read_bytes()
    spans = _section_spans(data)
    assert len(spans) == 12
    assert spans[MEMBERS][1] == 7 * width  # 3 Document members, 2 Synonym members, 2 tail ids
    assert spans[HEADS][1] == 1 * width
    loaded = Hypergraph.load(str(path))
    assert loaded.structurally_equal(g)
    assert loaded.walk_table == g.walk_table
    loaded.save(str(again))
    assert again.read_bytes() == data


# Members item 2 is the Document edge's last member and heads item 0 the
# ContainedIn head, both node 256; 300 fits in 2 bytes and keeps each edge ascending.
@pytest.mark.parametrize("section, item, name", [(MEMBERS, 2, "members"), (HEADS, 0, "heads")])
def test_a_two_byte_id_out_of_range_fails_at_its_offset(tmp_path, section, item, name):
    path = tmp_path / "g.hgoe"
    _width_graph(257).save(str(path))
    data = bytearray(path.read_bytes())
    offset = _section_spans(data)[section][0] + 2 * item
    assert int.from_bytes(data[offset:offset + 2], "little") == 256
    data[offset:offset + 2] = (300).to_bytes(2, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match=f"{name} section: node id 300 out of range at offset {offset}$"):
        Hypergraph.load(str(path))


def test_the_format_docs_name_the_current_version():
    version = hypergraph.FORMAT_VERSION
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert f"(magic `HGOE`, version {version})" in readme
    assert f"Binary index format (version {version}," in hypergraph.__doc__
    assert f"u32 format version (= {version})" in hypergraph.__doc__


def test_trailing_data_rejected(tmp_path):
    rng = np.random.default_rng(16)
    graph, _ = graphgen.random_graph(rng, Variant.BASE)
    path = tmp_path / "g.hgoe"
    graph.save(str(path))
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(FormatError):
        Hypergraph.load(str(path))


def test_load_leaves_the_cyclic_collector_as_it_was(tmp_path):
    path = tmp_path / "g.hgoe"
    graphgen.random_graph(np.random.default_rng(17), Variant.BASE)[0].save(str(path))
    bad = tmp_path / "bad.hgoe"
    bad.write_bytes(path.read_bytes()[:-1])
    assert gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            Hypergraph.load(str(path))
            assert gc.isenabled() is enabled
            with pytest.raises(FormatError):
                Hypergraph.load(str(bad))
            assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_index_corpus_leaves_the_cyclic_collector_as_it_was(monkeypatch):
    seen = []

    def recording_tokenize(text):
        seen.append(gc.isenabled())
        return tokenize(text)

    monkeypatch.setattr("hgoe.indexer.tokenize", recording_tokenize)
    docs = [CorpusDocument("d1", "alpha beta", ("Place",)), CorpusDocument("d2", "beta gamma")]
    assert gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            index_corpus(docs)
            assert seen and not any(seen)  # off during the build
            assert gc.isenabled() is enabled
            with pytest.raises(InputError, match="yields no nodes"):
                index_corpus([CorpusDocument("d1", "!!!")])
            assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_load_peak_memory_stays_near_what_the_graph_keeps(tmp_path):
    rng = np.random.default_rng(3)
    zipf = 1.0 / np.arange(1, 10_001) ** 1.1
    words = rng.choice(len(zipf), size=(2000, 80), p=zipf / zipf.sum())
    links = rng.integers(0, 200, size=(2000, 2))
    docs = [CorpusDocument(f"d{i}", " ".join(f"w{w}" for w in row), tuple(f"Place {e}" for e in pair))
            for i, (row, pair) in enumerate(zip(words, links))]
    path = tmp_path / "g.hgoe"
    index_corpus(docs, Variant.BASE).save(str(path))
    gc.collect()
    tracemalloc.start()
    try:
        graph = Hypergraph.load(str(path))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.frozen and len(graph.edges) > 2000
    assert peak <= 1.3 * retained, (peak, retained)


def test_weighted_load_peak_memory_stays_near_what_the_graph_keeps(tmp_path):
    # The corpus of the base test, weighted and enriched, so that the node
    # and edge weights and the Synonym and Context edges load too.
    rng = np.random.default_rng(3)
    zipf = 1.0 / np.arange(1, 10_001) ** 1.1
    words = rng.choice(len(zipf), size=(2000, 80), p=zipf / zipf.sum())
    links = rng.integers(0, 200, size=(2000, 2))
    docs = [CorpusDocument(f"d{i}", " ".join(f"w{w}" for w in row), tuple(f"Place {e}" for e in pair))
            for i, (row, pair) in enumerate(zip(words, links))]
    lexicon = [(f"w{i}", f"w{i + 1}", f"w{i + 2}") for i in range(0, 600, 3)]
    vectors = rng.normal(size=(400, 8))
    embeddings = {f"w{i}": v / np.linalg.norm(v) for i, v in enumerate(vectors)}
    path = tmp_path / "g.hgoe"
    index_corpus(docs, Variant.WEIGHTED, lexicon, embeddings).save(str(path))
    gc.collect()
    tracemalloc.start()
    try:
        graph = Hypergraph.load(str(path))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kinds = {edge.kind for edge in graph.edges}
    assert graph.frozen and len(graph.edges) > 2000
    assert {EdgeKind.SYNONYM, EdgeKind.CONTEXT} <= kinds
    assert peak <= 1.3 * retained, (peak, retained)


def test_freeze_peak_memory_stays_near_what_it_keeps():
    # The 2,000-document graph of the load test, replayed unfrozen. A freeze
    # that holds every node's out-edge list and its tuple at once peaks at
    # 2.24 times what it keeps on this graph.
    rng = np.random.default_rng(3)
    zipf = 1.0 / np.arange(1, 10_001) ** 1.1
    words = rng.choice(len(zipf), size=(2000, 80), p=zipf / zipf.sum())
    links = rng.integers(0, 200, size=(2000, 2))
    docs = [CorpusDocument(f"d{i}", " ".join(f"w{w}" for w in row), tuple(f"Place {e}" for e in pair))
            for i, (row, pair) in enumerate(zip(words, links))]
    built = index_corpus(docs, Variant.BASE)
    graph = Hypergraph(Variant.BASE)
    for kind, nodes in groupby(built.nodes, key=attrgetter("kind")):
        graph.upsert_nodes(kind, [node.label for node in nodes])
    for edge in built.edges:
        graph.add_edge(edge.kind, edge.members, edge.tail, edge.head, edge.doc_id)
    assert built.structurally_equal(graph)
    del built
    gc.collect()
    tracemalloc.start()
    try:
        graph.freeze()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(graph.edges) > 2000
    assert peak <= 1.6 * kept, (peak, kept)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_random_graph_round_trips(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    graph, _ = graphgen.random_graph(rng)
    path = tmp_path_factory.mktemp("rt") / "g.hgoe"
    graph.save(str(path))
    assert Hypergraph.load(str(path)).structurally_equal(graph)
