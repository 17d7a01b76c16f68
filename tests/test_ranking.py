"""Walk mechanics, fatigue semantics, seeding and the scored ranking."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgoe import (
    CorpusDocument,
    EdgeKind,
    FatigueTable,
    Hypergraph,
    InputError,
    NodeKind,
    RankingParams,
    Variant,
    index_corpus,
    map_query_to_seeds,
    random_walk,
    run_timed,
    rws,
)
from hgoe.ranking import make_stream

import fixtures
import graphgen
import reference


def test_params_validation():
    RankingParams()
    with pytest.raises(InputError):
        RankingParams(walk_length=0)
    with pytest.raises(InputError):
        RankingParams(repeats=0)
    with pytest.raises(InputError):
        RankingParams(node_fatigue=-1)
    with pytest.raises(InputError):
        RankingParams(edge_fatigue=-1)
    with pytest.raises(InputError):
        RankingParams(rng_seed=-1)


# -- seeding ------------------------------------------------------------------

def entity_corpus():
    return index_corpus([
        CorpusDocument("d1", "x", ("Foo Bar",)),
        CorpusDocument("d2", "y", ("Foo Baz",)),
    ])


def test_seed_expansion_prefers_entities():
    graph = entity_corpus()
    seed_set = map_query_to_seeds(graph, "bar")
    assert seed_set.seeds == (graph.node_id(NodeKind.ENTITY, "Foo Bar"),)
    assert graph.node_id(NodeKind.TERM, "bar") not in seed_set.seeds


def test_seed_expansion_unions_all_containing_entities():
    graph = entity_corpus()
    seed_set = map_query_to_seeds(graph, "foo")
    assert set(seed_set.seeds) == {
        graph.node_id(NodeKind.ENTITY, "Foo Bar"),
        graph.node_id(NodeKind.ENTITY, "Foo Baz"),
    }


def test_seed_fallback_to_plain_term():
    graph = entity_corpus()
    seed_set = map_query_to_seeds(graph, "x")
    assert seed_set.seeds == (graph.node_id(NodeKind.TERM, "x"),)


def test_seed_mix_and_unknown_terms():
    graph = entity_corpus()
    seed_set = map_query_to_seeds(graph, "x bar zzz")
    assert set(seed_set.seeds) == {
        graph.node_id(NodeKind.TERM, "x"),
        graph.node_id(NodeKind.ENTITY, "Foo Bar"),
    }
    assert sorted(seed_set.seeds) == list(seed_set.seeds)
    # an unknown term adds no seeds
    assert map_query_to_seeds(graph, "x bar").seeds == seed_set.seeds


def test_query_with_no_known_terms_ranks_nothing():
    graph = entity_corpus()
    ranking = rws(graph, "qqq www", RankingParams(repeats=5))
    assert ranking.entries == []
    assert ranking.total_steps == 0


# -- single walks -------------------------------------------------------------

def line_graph():
    g = Hypergraph()
    a = g.upsert_node(NodeKind.TERM, "a")
    b = g.upsert_node(NodeKind.TERM, "b")
    e = g.add_edge(EdgeKind.SYNONYM, members=[a, b])
    g.freeze()
    return g, a, b, e


def test_walk_bounces_along_single_edge():
    graph, a, b, e = line_graph()
    rng = make_stream(0, "probe")
    edges, nodes, steps = random_walk(graph, a, 3, FatigueTable(), RankingParams(), rng)
    assert (edges, nodes, steps) == ([e, e, e], [b, a, b], 3)


def test_walk_edge_fatigue_ends_walk_early():
    graph, a, b, e = line_graph()
    params = RankingParams(edge_fatigue=2)
    rng = make_stream(0, "probe")
    edges, nodes, steps = random_walk(graph, a, 3, FatigueTable(), params, rng)
    assert (edges, nodes, steps) == ([e], [b], 1)


def test_walk_node_fatigue_blocks_refatigued_target():
    graph, a, b, e = line_graph()
    params = RankingParams(node_fatigue=3)
    rng = make_stream(0, "probe")
    edges, nodes, steps = random_walk(graph, a, 5, FatigueTable(), params, rng)
    # a -> b, b -> a, then b is still inside its window: the walk starves
    assert (edges, nodes, steps) == ([e, e], [b, a], 2)


def test_walk_from_isolated_node():
    g = Hypergraph()
    lone = g.upsert_node(NodeKind.TERM, "lone")
    other = g.upsert_node(NodeKind.TERM, "other")
    g.add_edge(EdgeKind.SYNONYM, members=[other, g.upsert_node(NodeKind.TERM, "third")])
    g.freeze()
    rng = make_stream(0, "probe")
    assert random_walk(g, lone, 4, FatigueTable(), RankingParams(), rng) == ([], [], 0)


def test_walk_rejects_unknown_start():
    graph, *_ = line_graph()
    with pytest.raises(InputError):
        random_walk(graph, 99, 1, FatigueTable(), RankingParams(), make_stream(0, "x"))


# -- the shared fatigue table and walk scheduling ------------------------------

def two_component_graph():
    g = Hypergraph()
    s1 = g.upsert_node(NodeKind.TERM, "s1")
    a = g.upsert_node(NodeKind.TERM, "aux1")
    s2 = g.upsert_node(NodeKind.TERM, "s2")
    b = g.upsert_node(NodeKind.TERM, "aux2")
    e_a = g.add_edge(EdgeKind.SYNONYM, members=[s1, a])
    e_b = g.add_edge(EdgeKind.SYNONYM, members=[s2, b])
    g.freeze()
    return g, e_a, e_b


def test_walks_are_repeat_major_in_seed_order():
    graph, e_a, e_b = two_component_graph()
    events = []
    params = RankingParams(walk_length=1, repeats=3)
    rws(graph, "s1 s2", params, step_listener=lambda t, e, v: events.append(e))
    assert events == [e_a, e_b, e_a, e_b, e_a, e_b]


def test_fatigue_table_is_shared_between_seeds():
    g = Hypergraph()
    s1 = g.upsert_node(NodeKind.TERM, "s1")
    m = g.upsert_node(NodeKind.TERM, "mid")
    s2 = g.upsert_node(NodeKind.TERM, "s2")
    g.add_edge(EdgeKind.SYNONYM, members=[s1, m])
    g.add_edge(EdgeKind.SYNONYM, members=[s2, m])
    g.freeze()
    events = []
    params = RankingParams(walk_length=1, repeats=4, node_fatigue=10)
    ranking = rws(g, "s1 s2", params, step_listener=lambda t, e, v: events.append((t, v)))
    # the first walk fatigues the shared midpoint; with the clock frozen,
    # every later walk starves before stepping
    assert ranking.total_steps == 1
    assert events == [(1, m)]


def test_exact_score_tie_breaks_on_doc_id():
    g = Hypergraph()
    s = g.upsert_node(NodeKind.TERM, "s")
    m = g.upsert_node(NodeKind.TERM, "m")
    g.add_edge(EdgeKind.DOCUMENT, members=[s, m], doc_id="zebra")
    g.add_edge(EdgeKind.DOCUMENT, members=[s, m], doc_id="apple")
    g.freeze()
    params = RankingParams(walk_length=2, repeats=37, edge_fatigue=1)
    ranking = rws(g, "s", params)
    # edge fatigue forces each walk through both documents exactly once
    assert ranking.entries == [("apple", 0.5), ("zebra", 0.5)]


def test_rws_requires_frozen_graph():
    g = Hypergraph()
    g.upsert_node(NodeKind.TERM, "a")
    with pytest.raises(InputError):
        rws(g, "a")


# -- ranking properties --------------------------------------------------------

def test_rws_is_deterministic():
    rng = np.random.default_rng(31)
    graph, _ = graphgen.random_graph(rng)
    params = RankingParams(walk_length=3, repeats=40, rng_seed=9)
    query = "w01 w02 alpha"
    first = rws(graph, query, params)
    second = rws(graph, query, params)
    assert first.entries == second.entries
    assert first.visit_counts == second.visit_counts
    assert first.total_steps == second.total_steps


def test_rng_seed_selects_the_stream():
    docs = [CorpusDocument(f"d{i}", f"common w{i:02d}") for i in range(8)]
    graph = index_corpus(docs)
    base = rws(graph, "common", RankingParams(repeats=50, rng_seed=0))
    reseeded = rws(graph, "common", RankingParams(repeats=50, rng_seed=1))
    assert base.visit_counts != reseeded.visit_counts


def test_scores_sum_to_one_and_sort_correctly():
    rng = np.random.default_rng(33)
    for _ in range(10):
        graph, _ = graphgen.random_graph(rng)
        ranking = rws(graph, graphgen.random_query(rng), RankingParams(repeats=30))
        if not ranking.entries:
            continue
        total = sum(score for _, score in ranking.entries)
        assert total == pytest.approx(1.0, abs=1e-9)
        assert all(score > 0 for _, score in ranking.entries)
        resorted = sorted(ranking.entries, key=lambda item: (-item[1], item[0]))
        assert resorted == ranking.entries
        assert len({doc for doc, _ in ranking.entries}) == len(ranking.entries)


def test_total_steps_never_exceed_budget():
    rng = np.random.default_rng(34)
    for _ in range(10):
        graph, _ = graphgen.random_graph(rng)
        query = graphgen.random_query(rng)
        params = RankingParams(
            walk_length=int(rng.integers(1, 4)),
            repeats=int(rng.integers(1, 30)),
            node_fatigue=int(rng.integers(0, 3)),
            edge_fatigue=int(rng.integers(0, 3)),
        )
        seeds = map_query_to_seeds(graph, query).seeds
        ranking = rws(graph, query, params)
        assert ranking.total_steps <= params.repeats * len(seeds) * params.walk_length


def test_matches_reference_walker_without_fatigue():
    rng = np.random.default_rng(35)
    for i in range(10):
        graph, _ = graphgen.random_graph(rng)
        query = graphgen.random_query(rng)
        params = RankingParams(
            walk_length=int(rng.integers(1, 4)),
            repeats=int(rng.integers(1, 30)),
            rng_seed=i,
        )
        ranking = rws(graph, query, params)
        entries, counts, steps = reference.reference_rws(graph, query, params)
        assert ranking.entries == entries
        assert ranking.visit_counts == counts
        assert ranking.total_steps == steps


def test_weighted_star_orders_documents_by_edge_weight():
    graph, expected = fixtures.star_graph(weighted=True)
    ranking = rws(graph, "alpha beta", RankingParams(walk_length=1, repeats=20_000))
    scores = dict(ranking.entries)
    assert ranking.doc_ids() == ["d3", "d1", "d4", "d2"]
    for doc_id, value in expected.items():
        assert scores[doc_id] == pytest.approx(value, abs=0.02)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    node_fatigue=st.integers(0, 4),
    edge_fatigue=st.integers(0, 4),
)
def test_fatigue_exclusion_windows_hold(seed, node_fatigue, edge_fatigue):
    rng = np.random.default_rng(seed)
    graph, _ = graphgen.random_graph(rng)
    params = RankingParams(
        walk_length=4,
        repeats=25,
        node_fatigue=node_fatigue,
        edge_fatigue=edge_fatigue,
    )
    events: list[tuple[int, int, int]] = []
    rws(graph, graphgen.random_query(rng), params,
        step_listener=lambda t, e, v: events.append((t, e, v)))
    node_last: dict[int, int] = {}
    edge_last: dict[int, int] = {}
    for clock, edge_id, target in events:
        if edge_id in edge_last:
            assert clock - edge_last[edge_id] > edge_fatigue
        if target in node_last:
            assert clock - node_last[target] > node_fatigue
        edge_last[edge_id] = clock
        node_last[target] = clock


def test_run_timed_reports_duration():
    rng = np.random.default_rng(36)
    graph, _ = graphgen.random_graph(rng, Variant.BASE)
    ranking, elapsed_ns = run_timed(graph, "w00 w01", RankingParams(repeats=20))
    assert elapsed_ns > 0
    again = rws(graph, "w00 w01", RankingParams(repeats=20))
    assert ranking.entries == again.entries
