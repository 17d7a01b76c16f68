"""Walk mechanics, fatigue semantics, seeding and the scored ranking."""
from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

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
    InternalError,
    InvariantError,
    NodeKind,
    RankingParams,
    Variant,
    index_corpus,
    map_query_to_seeds,
    random_walk,
    run_timed,
    rws,
)
from hgoe import ranking
from hgoe.ranking import BlockDraws, make_stream, walk_draws

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


def test_locked_up_walk_makes_no_draw_until_the_clock_ticks():
    g = Hypergraph()
    a, b, c, d = (g.upsert_node(NodeKind.TERM, name) for name in "abcd")
    e_ab = g.add_edge(EdgeKind.SYNONYM, members=[a, b])
    e_cd = g.add_edge(EdgeKind.SYNONYM, members=[c, d])
    g.freeze()
    params = RankingParams(node_fatigue=1)
    fatigue, rng = FatigueTable(), make_stream(0, "lock")
    assert random_walk(g, a, 1, fatigue, params, rng) == ([e_ab], [b], 1)
    # b is fatigued for the next decision, so a has no transition: each
    # attempt finds that out and ends without a draw
    for _ in range(2):
        state = rng.bit_generator.state
        assert random_walk(g, a, 3, fatigue, params, rng) == ([], [], 0)
        assert rng.bit_generator.state == state
    # a step elsewhere ticks the clock, which ends b's window
    assert random_walk(g, c, 1, fatigue, params, rng) == ([e_cd], [d], 1)
    assert random_walk(g, a, 1, fatigue, params, rng) == ([e_ab], [b], 1)


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


# -- a ranking stops at the first round in which no walk steps -------------------

def walk_every_round(graph, query, params, step_listener=None):
    """rws without its exit: a random_walk from every seed in every repeat.

    Returns (entries, visit counts, total steps, rounds that took no step).
    """
    seeds = map_query_to_seeds(graph, query).seeds
    if not seeds:
        return [], {}, 0, 0
    rng = walk_draws(graph.variant, query, params, len(seeds))
    fatigue = FatigueTable()
    counts: dict[int, int] = {}
    steps = dead_rounds = 0
    for _ in range(params.repeats):
        before = steps
        for seed in seeds:
            visited, _, taken = random_walk(
                graph, seed, params.walk_length, fatigue, params, rng, step_listener
            )
            steps += taken
            for edge_id in visited:
                if graph.edges[edge_id].kind is EdgeKind.DOCUMENT:
                    counts[edge_id] = counts.get(edge_id, 0) + 1
        dead_rounds += steps == before
    total = sum(counts.values())
    entries = sorted(((graph.edges[e].doc_id, c / total) for e, c in counts.items()),
                     key=lambda item: (-item[1], item[0]))
    return entries, counts, steps, dead_rounds


@pytest.mark.parametrize("variant", [Variant.BASE, Variant.WEIGHTED], ids=["base", "weighted"])
@pytest.mark.parametrize("node_fatigue", range(5))
def test_stopping_at_a_round_without_steps_ranks_as_walking_every_round(variant, node_fatigue):
    rng = np.random.default_rng(200 + node_fatigue)
    dead_rounds = 0
    for edge_fatigue in range(5):
        for walk_length in range(1, 5):
            for _ in range(3):
                graph, _ = graphgen.random_graph(rng, variant)
                query = graphgen.random_query(rng)
                params = RankingParams(walk_length=walk_length, repeats=int(rng.integers(1, 30)),
                                       node_fatigue=node_fatigue, edge_fatigue=edge_fatigue,
                                       rng_seed=int(rng.integers(100)))
                events, want_events = [], []
                got = rws(graph, query, params, lambda *step: events.append(step))
                *want, dead = walk_every_round(graph, query, params,
                                               lambda *step: want_events.append(step))
                assert (got.entries, got.visit_counts, got.total_steps) == tuple(want)
                assert events == want_events
                dead_rounds += dead
    assert dead_rounds > 0


def count_walks(monkeypatch):
    """The list of starts ranking.random_walk is called with from now on."""
    walk, starts = ranking.random_walk, []

    def counted(graph, start, *rest):
        starts.append(start)
        return walk(graph, start, *rest)

    monkeypatch.setattr(ranking, "random_walk", counted)
    return starts


def test_a_ranking_stops_after_the_first_round_without_a_step(monkeypatch):
    g = Hypergraph()
    s1 = g.upsert_node(NodeKind.TERM, "s1")
    m = g.upsert_node(NodeKind.TERM, "mid")
    s2 = g.upsert_node(NodeKind.TERM, "s2")
    g.add_edge(EdgeKind.SYNONYM, members=[s1, m])
    g.add_edge(EdgeKind.SYNONYM, members=[s2, m])
    g.freeze()
    starts = count_walks(monkeypatch)
    params = RankingParams(walk_length=1, repeats=4, node_fatigue=10)
    result = rws(g, "s1 s2", params)
    # a round that steps once, then a round without a step, then nothing
    assert starts == [s1, s2, s1, s2]
    assert result.total_steps == 1


@pytest.mark.parametrize("locked", ["no-out-edges", "edge-fatigued"])
def test_a_dead_seed_does_not_stop_a_seed_that_still_steps(monkeypatch, locked):
    g = Hypergraph()
    dead = g.upsert_node(NodeKind.TERM, "dead")  # the lowest id, so it walks first
    m = g.upsert_node(NodeKind.TERM, "mid")
    live = g.upsert_node(NodeKind.TERM, "live")
    leaves = [g.upsert_node(NodeKind.TERM, f"leaf{i}") for i in range(20)]
    for leaf in leaves:
        g.add_edge(EdgeKind.SYNONYM, members=[live, leaf])
    if locked == "edge-fatigued":
        # the dead seed's one out-edge stays fatigued for 30 ticks after its first step
        g.add_edge(EdgeKind.SYNONYM, members=[dead, m])
        params = RankingParams(walk_length=1, repeats=12, edge_fatigue=30)
    else:
        params = RankingParams(walk_length=1, repeats=12)
    g.freeze()
    starts = count_walks(monkeypatch)
    got = rws(g, "dead live", params)
    assert starts == [dead, live] * params.repeats
    *want, dead_rounds = walk_every_round(g, "dead live", params)
    assert (got.entries, got.visit_counts, got.total_steps) == tuple(want)
    assert dead_rounds == 0
    assert got.total_steps == params.repeats + (locked == "edge-fatigued")


@pytest.mark.parametrize("variant", [Variant.BASE, Variant.WEIGHTED], ids=["base", "weighted"])
@pytest.mark.parametrize("case", ["calm", "fatigued", "locked-up"])
def test_rws_calls_random_walk_once_per_walk_it_runs(monkeypatch, variant, case):
    """Every walk of a ranking is one ranking.random_walk call, and their steps are its steps.

    perfbench counts walks and steps by wrapping that module attribute.
    """
    if case == "locked-up":
        # the first walk fatigues the one midpoint, so the second round takes no step
        g = Hypergraph(variant)
        s1, m, s2 = (g.upsert_node(NodeKind.TERM, name) for name in ("s1", "mid", "s2"))
        g.add_edge(EdgeKind.SYNONYM, members=[s1, m])
        g.add_edge(EdgeKind.SYNONYM, members=[s2, m])
        for item in (*g.nodes, *g.edges):
            item.weight = 0.5 if variant is Variant.WEIGHTED else None
        g.freeze()
        graph, query, params = g, "s1 s2", RankingParams(walk_length=1, repeats=4, node_fatigue=10)
    else:
        graph, _ = hub_graph(variant)
        fatigue = 3 if case == "fatigued" else 0
        query, params = "hub leaf000", RankingParams(
            walk_length=3, repeats=20, node_fatigue=fatigue, edge_fatigue=fatigue)
    walk, calls = ranking.random_walk, []

    def counted(graph, start, *rest):
        got = walk(graph, start, *rest)
        calls.append((start, got[2]))
        return got

    monkeypatch.setattr(ranking, "random_walk", counted)
    result = rws(graph, query, params)
    seeds = map_query_to_seeds(graph, query).seeds
    rounds = len(calls) // len(seeds)
    assert [start for start, _ in calls] == list(seeds) * rounds
    assert sum(steps for _, steps in calls) == result.total_steps > 0
    round_steps = [sum(steps for _, steps in calls[i:i + len(seeds)])
                   for i in range(0, len(calls), len(seeds))]
    if case == "locked-up":
        assert round_steps == [1, 0]
    else:
        assert rounds == params.repeats
        assert all(round_steps)


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
    # the query's SeedSet in place of its text walks the same seeds on the same stream
    for second in (rws(graph, query, params), rws(graph, map_query_to_seeds(graph, query), params)):
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


# -- hub-degree steps against the list-filter rule ------------------------------

def hub_graph(variant: Variant):
    """A hub term with 600 out-edges, most of them with 2 or 3 targets.

    Each leaf shares a 2-target synonym edge and two 3-target context edges
    with the hub, 150 documents join the hub to 5-20 leaves and entities, and
    ContainedIn edges lead from the hub (alone or with a leaf) to one to three
    entities. Synonym rings between leaves let walks wander off the hub.
    """
    rng = np.random.default_rng(17)
    g = Hypergraph(variant)
    hub = g.upsert_node(NodeKind.TERM, "hub")
    leaves = [g.upsert_node(NodeKind.TERM, f"leaf{i:03d}") for i in range(200)]
    entities = [g.upsert_node(NodeKind.ENTITY, f"Entity {i:02d}") for i in range(40)]
    for i, leaf in enumerate(leaves):
        g.add_edge(EdgeKind.SYNONYM, members=[hub, leaf])
        g.add_edge(EdgeKind.CONTEXT, members=[hub, leaf, leaves[(i + 1) % 200]])
        g.add_edge(EdgeKind.SYNONYM, members=[leaf, leaves[(i + 7) % 200]])
    for i in range(150):
        size = int(rng.integers(5, 21))
        picked = rng.choice(leaves + entities, size=size, replace=False).tolist()
        g.add_edge(EdgeKind.DOCUMENT, members=[hub, *picked], doc_id=f"d{i:03d}")
    for i in range(60):
        head = rng.choice(entities, size=int(rng.integers(1, 4)), replace=False).tolist()
        tail = [hub] if i % 2 else [hub, leaves[i]]
        g.add_edge(EdgeKind.CONTAINED_IN, tail=tail, head=head)
    for i in range(0, 40, 2):
        g.add_edge(EdgeKind.RELATED_TO, members=[entities[i], entities[i + 1]])
    if variant is Variant.WEIGHTED:
        for item in (*g.nodes, *g.edges):
            item.weight = float(rng.uniform(0.05, 1.0))
    g.freeze()
    return g, hub


def list_filter_walk(graph, start, length, fatigue, params, rng, exclusions):
    """The edge rule spelled out: list every eligible out-edge, then pick from the list.

    An out-edge is eligible when it is not fatigued and reaches an unfatigued
    node other than the source. Appends (source, number of excluded
    out-edges) for each step to `exclusions`.
    """
    weighted = graph.variant is Variant.WEIGHTED

    def pick(items, weight):
        if not weighted:
            return items[int(rng.integers(len(items)))]
        cumulative = list(accumulate(weight(item) for item in items))
        u = float(rng.random())
        return items[min(bisect_right(cumulative, u * cumulative[-1]), len(items) - 1)]

    visited_edges, visited_nodes, current = [], [], start
    for _ in range(length):
        fatigued = fatigue.nodes
        out = graph.out_edges(current)
        options = [
            e for e in out
            if e not in fatigue.edges
            and any(t != current and t not in fatigued for t in graph.edges[e].targets)
        ]
        exclusions.append((current, len(out) - len(options)))
        if not options:
            break
        edge_id = pick(options, lambda e: graph.edges[e].weight)
        targets = [t for t in graph.edges[edge_id].targets if t != current and t not in fatigued]
        target = pick(targets, lambda t: graph.nodes[t].weight)
        visited_edges.append(edge_id)
        visited_nodes.append(target)
        fatigue.advance(edge_id, target, params.node_fatigue, params.edge_fatigue)
        current = target
    return visited_edges, visited_nodes, len(visited_edges)


@pytest.mark.parametrize("variant", [Variant.BASE, Variant.WEIGHTED], ids=["base", "weighted"])
@pytest.mark.parametrize(
    "node_fatigue, edge_fatigue",
    [(0, 0), (0, 3), (1, 0), (2, 3), (10, 10), (40, 0), (50, 50), (200, 0), (0, 200)],
)
def test_hub_steps_match_the_list_filter_rule(variant, node_fatigue, edge_fatigue):
    graph, hub = hub_graph(variant)
    assert len(graph.out_edges(hub)) >= 500
    params = RankingParams(node_fatigue=node_fatigue, edge_fatigue=edge_fatigue)
    engine_fatigue, oracle_fatigue = FatigueTable(), FatigueTable()
    engine_rng, oracle_rng = make_stream(3, "hub"), make_stream(3, "hub")
    starts = [hub if i % 4 else i % len(graph.nodes) for i in range(400)]
    exclusions: list[tuple[int, int]] = []
    steps = 0
    for start in starts:
        got = random_walk(graph, start, 5, engine_fatigue, params, engine_rng)
        want = list_filter_walk(graph, start, 5, oracle_fatigue, params, oracle_rng, exclusions)
        assert got == want
        assert engine_rng.bit_generator.state == oracle_rng.bit_generator.state
        steps += got[2]
    assert steps > 1000
    if node_fatigue or edge_fatigue:
        assert sum(count for source, count in exclusions if source == hub) > 0


def random_fatigue(rng, graph, source):
    """A table of 0-12 fatigued edges and 0-12 fatigued nodes around source.

    Most entries come from source's out-edges and their targets, whole target
    sets at a time, so both exclusion rules fire; the rest are any id up to 3
    past the graph's last, so some name nothing the graph holds.
    """
    out = graph.out_edges(source)
    fatigue = FatigueTable()
    for _ in range(int(rng.integers(0, 13))):
        if out and rng.random() < 0.7:
            fatigue.edges[out[int(rng.integers(len(out)))]] = 0
        else:
            fatigue.edges[int(rng.integers(len(graph.edges) + 3))] = 0
    most = int(rng.integers(0, 13))
    while len(fatigue.nodes) < most:
        if out and rng.random() < 0.6:
            edge = graph.edges[out[int(rng.integers(len(out)))]]
            for target in edge.targets[:most - len(fatigue.nodes)]:
                fatigue.nodes[target] = 0
        else:
            fatigue.nodes[int(rng.integers(len(graph.nodes) + 3))] = 0
    return fatigue


@pytest.mark.parametrize("variant", [Variant.BASE, Variant.WEIGHTED], ids=["base", "weighted"])
def test_excluded_positions_follow_the_list_filter_rule(variant):
    """Called alone, `_excluded_positions` lists, ascending and once each, the out-edges
    that are fatigued or whose every target other than the source is fatigued."""
    rng = np.random.default_rng(41)
    graphs = [hub_graph(variant)[0]] + [graphgen.random_graph(rng, variant)[0] for _ in range(30)]
    both_rules = skipped = 0
    for graph in graphs:
        for _ in range(300):
            source = int(rng.integers(len(graph.nodes)))
            fatigue = random_fatigue(rng, graph, source)
            out = graph.out_edges(source)
            by_edge = {i for i, e in enumerate(out) if e in fatigue.edges}
            by_nodes = {
                i for i, e in enumerate(out)
                if all(t == source or t in fatigue.nodes for t in graph.edges[e].targets)
            }
            got = ranking._excluded_positions(graph, out, source, fatigue)
            assert list(got) == sorted(by_edge | by_nodes)
            both_rules += len(by_edge & by_nodes)
            _, counts = ranking._out_edges_by_targets(graph, source)
            m = len(fatigue.nodes)
            skipped += m >= 1 and len(counts) > 0 and counts[0] > m + 1
    assert both_rules >= 50
    assert skipped >= 50


# -- the expiry-clock fatigue table ---------------------------------------------

class CountdownTable:
    """The countdown fatigue table the expiry clock replaced, kept as its oracle.

    Every tick decrements all entries and drops those that reach 0, then
    inserts the new entries at full strength.
    """

    def __init__(self):
        self.nodes: dict[int, int] = {}
        self.edges: dict[int, int] = {}

    def advance(self, edge_id, target_id, node_fatigue, edge_fatigue):
        self.nodes = {n: v - 1 for n, v in self.nodes.items() if v > 1}
        self.edges = {e: v - 1 for e, v in self.edges.items() if v > 1}
        if node_fatigue > 0:
            self.nodes[target_id] = node_fatigue
        if edge_fatigue > 0:
            self.edges[edge_id] = edge_fatigue


WINDOWS = [0, 1, 2, 3, 10]


@pytest.mark.parametrize("edge_fatigue", WINDOWS)
@pytest.mark.parametrize("node_fatigue", WINDOWS)
def test_expiry_clock_matches_the_countdown_table(node_fatigue, edge_fatigue):
    rng = np.random.default_rng(100 + 10 * node_fatigue + edge_fatigue)
    for _ in range(4):
        graph, _ = graphgen.random_graph(rng)
        table, oracle = FatigueTable(), CountdownTable()
        recent: list[tuple[int, int]] = []
        for tick in range(150):
            if recent and rng.random() < 0.5:
                # reuse a recent pair, often still inside its window
                edge_id, node_id = recent[int(rng.integers(len(recent)))]
            else:
                edge_id = int(rng.integers(len(graph.edges)))
                node_id = int(rng.integers(len(graph.nodes)))
            recent = [*recent[-4:], (edge_id, node_id)]
            table.advance(edge_id, node_id, node_fatigue, edge_fatigue)
            oracle.advance(edge_id, node_id, node_fatigue, edge_fatigue)
            assert table.clock == tick + 1
            assert table.nodes.keys() == oracle.nodes.keys()
            assert table.edges.keys() == oracle.edges.keys()


def test_a_kind_keeps_its_first_non_zero_window():
    """A second window would let an entry end behind the front: node 2 fatigued
    for 2 behind node 1 fatigued for 10 would stay blocked until clock 11."""
    table = FatigueTable()
    table.advance(100, 1, 10, 0)
    with pytest.raises(InputError):
        table.advance(101, 2, 2, 0)
    assert (table.clock, table.nodes, table.edges) == (1, {1: 11}, {})
    table.advance(101, 2, 0, 3)  # a window of 0 is always accepted; edges take their own
    table.advance(102, 3, 10, 3)
    table.advance(103, 4, 0, 0)
    assert (table.clock, table.nodes, table.edges) == (4, {1: 11, 3: 13}, {101: 5, 102: 6})
    with pytest.raises(InputError):
        table.advance(104, 5, 0, 2)


def test_fatigue_table_memory_stays_bounded(monkeypatch):
    graph, hub = hub_graph(Variant.BASE)
    params = {"node_fatigue": 10, "edge_fatigue": 3, "walk_length": 3}
    tables: list[FatigueTable] = []

    class Recorded(FatigueTable):
        def __init__(self):
            super().__init__()
            tables.append(self)

    monkeypatch.setattr(ranking, "FatigueTable", Recorded)
    for repeats in (200, 2000):

        def check(clock, edge_id, target):
            table = tables[-1]
            for window, live in ((params["node_fatigue"], table.nodes),
                                 (params["edge_fatigue"], table.edges)):
                expiries = list(live.values())
                assert len(expiries) <= window
                assert expiries == sorted(set(expiries))
                assert all(expiry > clock for expiry in expiries)

        result = rws(graph, "leaf000", RankingParams(repeats=repeats, **params), check)
        assert result.total_steps > repeats
        assert len(tables) == 1 + (repeats == 2000)


# -- draws read in blocks -------------------------------------------------------

class CountingGenerator:
    """A Generator that records the size of each block a reader asks it for.

    A block over 4096 items fails before anything is allocated.
    """

    def __init__(self, gen):
        self.gen = gen
        self.blocks: list[int] = []

    def _count(self, size):
        assert size <= 4096, f"a block of {size} items"
        self.blocks.append(size)

    def random(self, size):
        self._count(size)
        return self.gen.random(size)

    def integers(self, low, high, size, dtype):
        self._count(size)
        return self.gen.integers(low, high, size=size, dtype=dtype)


REJECTING_K = 2**31 + 1  # Lemire rejects about half of its words


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_block_draws_match_the_generator_call_for_call(monkeypatch, block):
    monkeypatch.setattr(ranking, "BLOCK_ITEMS", block)
    pick = np.random.default_rng(block)
    ks = [1, 2, 3, 33, 5000, REJECTING_K, 2**32 - 1, 2**32] * 1000
    ks += [int(k) for k in pick.integers(1, 2**32 + 1, size=10_000)]
    ks += [REJECTING_K] * 2000
    pick.shuffle(ks)
    twin = make_stream(5, "blocks")
    counted = CountingGenerator(make_stream(5, "blocks"))
    draws = BlockDraws(counted, integers=True, budget=10**9)
    for k in ks:
        assert draws.integers(k) == twin.integers(k)
    if block == 1:
        # more words than calls that need one: rejections happened, and each
        # redraw was a refill in the middle of a rejection
        assert sum(counted.blocks) > len(ks) - ks.count(1) + 500

    twin = make_stream(5, "floats")
    counted = CountingGenerator(make_stream(5, "floats"))
    draws = BlockDraws(counted, integers=False, budget=10**9)
    calls = 3 * block + 5 if block > 1 else 50
    assert [draws.random() for _ in range(calls)] == [twin.random() for _ in range(calls)]
    assert len(counted.blocks) >= 4


def test_block_draws_serve_one_kind():
    with pytest.raises(InternalError):
        BlockDraws(make_stream(0, "kind"), integers=True, budget=10).random()
    with pytest.raises(InternalError):
        BlockDraws(make_stream(0, "kind"), integers=False, budget=10).integers(3)
    with pytest.raises(InternalError):
        BlockDraws(make_stream(0, "kind"), integers=True, budget=10).integers(2**32 + 1)


def test_walk_draws_read_at_most_the_budget_and_at_most_4096(monkeypatch):
    made: list[CountingGenerator] = []

    def counting_stream(rng_seed, query):
        made.append(CountingGenerator(make_stream(rng_seed, query)))
        return made[-1]

    monkeypatch.setattr(ranking, "make_stream", counting_stream)
    huge = walk_draws(Variant.WEIGHTED, "q", RankingParams(repeats=10**9), 3)
    huge.random()
    # the first block stops at 1024, so a ranking that locks up early reads no more
    assert made[-1].blocks == [1024]
    long = walk_draws(Variant.WEIGHTED, "q", RankingParams(repeats=500, walk_length=5), 2)
    for _ in range(10_001):
        long.random()
    # budget 2 * 500 * 2 * 5 = 10,000: 1024 first, then at most 4096, then one at a time
    assert made[-1].blocks == [1024, 4096, 4096, 784, 1]
    short = walk_draws(Variant.BASE, "q", RankingParams(repeats=2, walk_length=3), 5)
    for _ in range(61):
        short.integers(7)
    # two calls per budgeted step: 2 * 2 * 5 * 3 = 60, then one word at a time
    assert made[-1].blocks == [60, 1]


def test_integers_of_one_reads_no_word():
    # the step contract leans on this numpy behaviour: one call per stage, but
    # integers(1) leaves the bit generator where it was
    gen = make_stream(0, "one")
    state = gen.bit_generator.state
    assert [gen.integers(1) for _ in range(5)] == [0] * 5
    assert gen.bit_generator.state == state
    assert BlockDraws(gen, integers=True, budget=1).integers(1) == 0
    assert gen.bit_generator.state == state


# -- the walk tables -----------------------------------------------------------

def test_out_edges_by_targets_orders_out_edge_positions_by_target_count():
    g = Hypergraph(Variant.BASE)
    a, b, c = (g.upsert_node(NodeKind.TERM, label) for label in "abc")
    e = g.upsert_node(NodeKind.ENTITY, "thing")
    f = g.upsert_node(NodeKind.ENTITY, "other")
    h = g.upsert_node(NodeKind.ENTITY, "third")
    doc = g.add_edge(EdgeKind.DOCUMENT, members=[a, b, c, e, f, h], doc_id="d1")
    contained = g.add_edge(EdgeKind.CONTAINED_IN, tail=[a], head=[e, f, h])
    synonym = g.add_edge(EdgeKind.SYNONYM, members=[a, b])
    short = g.add_edge(EdgeKind.DOCUMENT, members=[a, c], doc_id="d2")
    pair = g.add_edge(EdgeKind.RELATED_TO, members=[e, f])
    triple = g.add_edge(EdgeKind.RELATED_TO, members=[e, f, h])
    g.freeze()
    assert g.out_edges(a) == (doc, contained, synonym, short)
    positions, counts = ranking._out_edges_by_targets(g, a)
    assert positions.typecode == counts.typecode == "I"
    # ascending counts, equal counts in out-edge order; the ContainedIn edge
    # counts its three head entities, not its tail
    assert list(positions) == [2, 3, 1, 0]
    assert list(counts) == [2, 2, 3, 6]
    assert ranking._out_edges_by_targets(g, a) is ranking._out_edges_by_targets(g, a)
    # e is only in the head of the ContainedIn edge, so no step leaves e by it
    assert g.out_edges(e) == (doc, pair, triple)
    positions, counts = ranking._out_edges_by_targets(g, e)
    assert [g.out_edges(e)[i] for i in positions] == [pair, triple, doc]
    assert list(counts) == [2, 3, 6]
    assert contained not in g.out_edges(e)


def test_out_weight_sums_add_the_out_edge_weights_in_out_edge_order():
    graph, hub = hub_graph(Variant.WEIGHTED)
    sums = ranking._out_weight_sums(graph, hub)
    assert sums.typecode == "d"
    assert list(sums) == list(accumulate(graph.edges[e].weight for e in graph.out_edges(hub)))
    assert ranking._out_weight_sums(graph, hub) is sums
    assert graph.weight_sums.keys() == {hub}


def test_target_weights_follow_the_targets_and_wait_for_freeze():
    g = Hypergraph(Variant.WEIGHTED)
    a, b = g.upsert_node(NodeKind.TERM, "a"), g.upsert_node(NodeKind.TERM, "b")
    e = g.upsert_node(NodeKind.ENTITY, "e")
    doc = g.add_edge(EdgeKind.DOCUMENT, members=[a, b, e], doc_id="d1")
    contained = g.add_edge(EdgeKind.CONTAINED_IN, tail=[a, b], head=[e])
    for item, weight in zip((*g.nodes, *g.edges), (0.5, 0.25, 0.125, 1.0, 1.0)):
        item.weight = weight
    with pytest.raises(InvariantError):
        ranking._target_table(g, doc)
    g.freeze()
    # the weights come first, in target order
    assert list(ranking._target_table(g, doc))[:3] == [0.5, 0.25, 0.125]
    assert list(ranking._target_table(g, contained))[:1] == [0.125]
    assert ranking._target_table(g, doc) is ranking._target_table(g, doc)
    assert g.target_tables[doc] is ranking._target_table(g, doc)


def test_target_weight_sums_add_the_target_weights_in_order_and_wait_for_freeze():
    g = Hypergraph(Variant.WEIGHTED)
    a, b = g.upsert_node(NodeKind.TERM, "a"), g.upsert_node(NodeKind.TERM, "b")
    e = g.upsert_node(NodeKind.ENTITY, "e")
    doc = g.add_edge(EdgeKind.DOCUMENT, members=[a, b, e], doc_id="d1")
    contained = g.add_edge(EdgeKind.CONTAINED_IN, tail=[a, b], head=[e])
    for item, weight in zip((*g.nodes, *g.edges), (0.1, 0.2, 0.3, 1.0, 1.0)):
        item.weight = weight
    with pytest.raises(InvariantError):
        ranking._target_table(g, doc)
    g.freeze()
    # weights, then their running sums, then one unfilled total per target
    assert list(ranking._target_table(g, doc)) == [
        0.1, 0.2, 0.3, 0.1, 0.1 + 0.2, 0.1 + 0.2 + 0.3, 0.0, 0.0, 0.0]
    assert list(ranking._target_table(g, contained)) == [0.3, 0.3, 0.0]
    assert ranking._target_table(g, doc) is ranking._target_table(g, doc)


@pytest.mark.parametrize("variant, node_fatigue, edge_fatigue", [
    (Variant.BASE, 10, 10), (Variant.WEIGHTED, 0, 0), (Variant.WEIGHTED, 2, 3),
], ids=["base-10-10", "weighted-0-0", "weighted-2-3"])
def test_rankings_do_not_depend_on_what_earlier_rankings_cached(
        tmp_path, variant, node_fatigue, edge_fatigue):
    """A query ranks on a freshly loaded graph as it does once other queries filled the tables."""
    rng = np.random.default_rng(94)
    params = RankingParams(repeats=30, node_fatigue=node_fatigue, edge_fatigue=edge_fatigue)
    caches = ("by_targets",) if variant is Variant.BASE else (
        "weight_sums", "target_tables") + (("by_targets",) if node_fatigue else ())
    steps = 0
    for i in range(30):
        path = str(tmp_path / f"g{i}.hgoe")
        graphgen.random_graph(rng, variant)[0].save(path)
        queries = list(dict.fromkeys(graphgen.random_query(rng) for _ in range(6)))
        fresh = {query: rws(Hypergraph.load(path), query, params) for query in queries}
        steps += sum(result.total_steps for result in fresh.values())
        for order in (queries, queries[::-1]):
            graph = Hypergraph.load(path)
            for query in order:
                assert rws(graph, query, params) == fresh[query]
            # every query again, now that every other one has filled the tables
            for query in order:
                assert rws(graph, query, params) == fresh[query]
            if any(result.total_steps for result in fresh.values()):
                assert all(getattr(graph, cache) for cache in caches)
    # window 10 locks these few-document graphs up within a few steps
    assert steps > 100


# -- the weighted target stage --------------------------------------------------

def test_weighted_target_stage_picks_what_the_filtered_list_picks():
    """Sources first, in the middle of and last in a Document edge, and the tail of a ContainedIn edge."""
    rng = np.random.default_rng(41)
    g = Hypergraph(Variant.WEIGHTED)
    terms = [g.upsert_node(NodeKind.TERM, f"t{i}") for i in range(7)]
    entities = [g.upsert_node(NodeKind.ENTITY, f"E{i}") for i in range(3)]
    doc = g.add_edge(EdgeKind.DOCUMENT, members=terms, doc_id="d1")
    contained = g.add_edge(EdgeKind.CONTAINED_IN, tail=[terms[3]], head=entities)
    for item in (*g.nodes, *g.edges):
        item.weight = float(rng.uniform(0.05, 1.0))
    g.freeze()
    incidence = reference._incidence(g)
    for source in (terms[0], terms[3], terms[6]):
        engine, twin = make_stream(9, f"target {source}"), make_stream(9, f"target {source}")
        options = reference._options(g, incidence, source)
        seen = set()
        for _ in range(1000):
            got = random_walk(g, source, 1, FatigueTable(), RankingParams(), engine)
            edge_weights = [g.edges[e].weight for e, _ in options]
            edge_id, targets = options[reference._weighted_pick(edge_weights, twin.random())]
            node_weights = [g.nodes[t].weight for t in targets]
            target = targets[reference._weighted_pick(node_weights, twin.random())]
            assert got == ([edge_id], [target], 1)
            seen.add((edge_id, target))
        others = {(doc, t) for t in terms if t != source}
        expected = others | {(contained, e) for e in entities} if source == terms[3] else others
        assert seen == expected


class StubDraws:
    """A draw source that returns the given random() values in turn and no integers."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def weighted_star(weights):
    """A Document edge over terms weighted `weights`, and a ContainedIn edge from
    one more term to entities weighted the same; returns (graph, terms, tail, entities)."""
    g = Hypergraph(Variant.WEIGHTED)
    terms = [g.upsert_node(NodeKind.TERM, f"t{i:02d}") for i in range(len(weights))]
    tail = g.upsert_node(NodeKind.TERM, "tail")
    entities = [g.upsert_node(NodeKind.ENTITY, f"E{i:02d}") for i in range(len(weights))]
    g.add_edge(EdgeKind.DOCUMENT, members=terms, doc_id="d")
    g.add_edge(EdgeKind.CONTAINED_IN, tail=[tail], head=entities)
    for node_id, weight in zip([*terms, *entities], [*weights, *weights]):
        g.nodes[node_id].weight = weight
    g.nodes[tail].weight = 1.0
    for edge in g.edges:
        edge.weight = 0.5
    g.freeze()
    return g, terms, tail, entities


def one_step(graph, start, u):
    """The target one weighted step from start takes when the target stage draws u."""
    _, visited, steps = random_walk(
        graph, start, 1, FatigueTable(), RankingParams(), StubDraws([0.5, u])
    )
    assert steps == 1
    return visited[0]


def test_weighted_target_pick_from_cached_sums_matches_the_list_of_other_weights():
    """Every source position, u at both ends of [0, 1) and random, weights 1e-17 apart."""
    rng = np.random.default_rng(77)
    special = (1.0, 1e-16, 3e-17)
    checked = 0
    for _ in range(120):
        n = int(rng.integers(2, 41))
        weights = [
            special[int(rng.integers(3))] if rng.random() < 0.5 else float(rng.uniform(0.05, 1.0))
            for _ in range(n)
        ]
        graph, terms, tail, entities = weighted_star(weights)
        for u in (0.0, 1.0 - 2.0**-53, float(rng.random())):
            k = ranking._cumulative_pick(weights, u)
            assert one_step(graph, tail, u) == entities[k]
            for i, source in enumerate(terms):
                k = ranking._cumulative_pick(weights[:i] + weights[i + 1:], u)
                assert one_step(graph, source, u) == terms[k + 1 if k >= i else k]
                checked += 1
    assert checked > 3000


@pytest.mark.parametrize("u", [1.0 - 2.0**-53, 1.0], ids=["largest-random", "one"])
def test_weighted_target_pick_at_the_top_of_the_draw_range(u):
    """The largest draw takes the last target other than the source, wherever it sits.

    random() never returns 1.0; the stub does, so the clamp to the last
    target runs inside random_walk, as it does in _cumulative_pick.
    """
    weights = [0.5, 0.25, 0.125, 1e-17]
    graph, terms, tail, entities = weighted_star(weights)
    assert one_step(graph, tail, u) == entities[-1 if u == 1.0 else -2]
    for i, source in enumerate(terms):
        others = [t for t in terms if t != source]
        # 1e-17 is lost when added to the others' sum, so only u == 1.0 reaches it
        want = others[-1] if u == 1.0 or source == terms[-1] else others[-2]
        assert one_step(graph, source, u) == want
        assert want == others[ranking._cumulative_pick(weights[:i] + weights[i + 1:], u)]


# 1e-17 is lost when added to the others' sum
FAN_WEIGHTS = [0.5, 0.25, 0.125, 0.0625, 1e-17]


def weighted_fan(weights):
    """A source term with one Synonym edge to a leaf per weight; (graph, source, leaves, edges)."""
    g = Hypergraph(Variant.WEIGHTED)
    source = g.upsert_node(NodeKind.TERM, "source")
    leaves = [g.upsert_node(NodeKind.TERM, f"leaf{i}") for i in range(len(weights))]
    edges = [g.add_edge(EdgeKind.SYNONYM, members=[source, leaf]) for leaf in leaves]
    for node in g.nodes:
        node.weight = 0.5
    for edge_id, weight in zip(edges, weights):
        g.edges[edge_id].weight = weight
    g.freeze()
    assert g.out_edges(source) == tuple(edges)
    return g, source, leaves, edges


@pytest.mark.parametrize("u", [1.0 - 2.0**-53, 1.0], ids=["largest-random", "one"])
def test_weighted_edge_pick_at_the_top_of_the_draw_range_without_fatigue(u):
    """Nothing fatigued: the largest draw takes the last out-edge whose weight the sums keep."""
    g, source, leaves, edges = weighted_fan(FAN_WEIGHTS)
    want = len(edges) - 1 if u == 1.0 else len(edges) - 2
    assert want == ranking._cumulative_pick(FAN_WEIGHTS, u)
    got = random_walk(g, source, 1, FatigueTable(), RankingParams(), StubDraws([u, 0.5]))
    assert got == ([edges[want]], [leaves[want]], 1)


@pytest.mark.parametrize("u", [1.0 - 2.0**-53, 1.0], ids=["largest-random", "one"])
@pytest.mark.parametrize("fatigued", [(), (4,), (2,), (4, 2)],
                         ids=["none", "last", "middle", "both"])
def test_weighted_edge_pick_at_the_top_of_the_draw_range_under_exclusions(u, fatigued):
    """The largest draw takes the last eligible out-edge, wherever the excluded ones sit.

    The edges are fatigued by `advance`, so the step picks from the weights
    of the other out-edges and steps past the excluded positions. With none
    fatigued, the window alone makes the walk check fatigue, finding
    nothing excluded, so it bisects the out-edge sums and clamps a draw
    past the last one.
    """
    g, source, leaves, edges = weighted_fan(FAN_WEIGHTS)
    weights = FAN_WEIGHTS
    params = RankingParams(edge_fatigue=5)
    fatigue = FatigueTable()
    for position in fatigued:
        fatigue.advance(edges[position], leaves[position], 0, params.edge_fatigue)
    eligible = [i for i in range(len(edges)) if i not in fatigued]
    # 1e-17 is lost when added to the others' sum, so only u == 1.0 reaches it
    want = eligible[-1] if u == 1.0 or weights[eligible[-1]] > 1e-3 else eligible[-2]
    assert want == eligible[ranking._cumulative_pick([weights[i] for i in eligible], u)]
    got = random_walk(g, source, 1, fatigue, params, StubDraws([u, 0.5]))
    assert got == ([edges[want]], [leaves[want]], 1)


# -- the clock with both fatigue windows 0 ----------------------------------------

@pytest.mark.parametrize("variant", [Variant.BASE, Variant.WEIGHTED], ids=["base", "weighted"])
def test_zero_windows_tick_the_clock_once_per_step_across_walks(variant):
    graph, hub = hub_graph(variant)
    clocks = []
    result = rws(graph, "hub leaf000", RankingParams(walk_length=3, repeats=40),
                 lambda clock, edge_id, target: clocks.append(clock))
    assert result.total_steps > 200
    assert clocks == list(range(1, result.total_steps + 1))


@pytest.mark.parametrize("variant", [Variant.BASE, Variant.WEIGHTED], ids=["base", "weighted"])
def test_zero_windows_keep_a_node_without_out_edges_a_dead_end(variant):
    g = Hypergraph(variant)
    lone, a, b = (g.upsert_node(NodeKind.TERM, name) for name in ("lone", "a", "b"))
    e_ab = g.add_edge(EdgeKind.SYNONYM, members=[a, b])
    for item in (*g.nodes, *g.edges):
        item.weight = 0.5 if variant is Variant.WEIGHTED else None
    g.freeze()
    fatigue, rng = FatigueTable(), make_stream(0, "lone")
    for clock in (0, 1, 2):
        state = rng.bit_generator.state
        assert random_walk(g, lone, 3, fatigue, RankingParams(), rng) == ([], [], 0)
        assert rng.bit_generator.state == state
        assert fatigue.clock == clock
        # a step elsewhere ticks the clock: nothing can revive lone
        assert random_walk(g, a, 1, fatigue, RankingParams(), rng) == ([e_ab], [b], 1)


def test_zero_windows_still_expire_a_table_filled_with_open_windows():
    graph, e_a, e_b = two_component_graph()
    s1, aux1, s2, aux2 = range(4)
    table, twin = FatigueTable(), FatigueTable()
    for t in (table, twin):
        t.advance(e_a, aux1, 2, 2)  # aux1 and e_a blocked until the tick to clock 3
    assert random_walk(graph, s1, 1, table, RankingParams(), make_stream(0, "x")) == ([], [], 0)
    seen = []
    got = random_walk(graph, s2, 4, table, RankingParams(), make_stream(0, "x"),
                      lambda clock, edge_id, target: seen.append((clock, edge_id, target)))
    assert got == ([e_b] * 4, [aux2, s2, aux2, s2], 4)
    for clock, edge_id, target in seen:
        twin.advance(edge_id, target, 0, 0)
        assert clock == twin.clock
    assert [clock for clock, _, _ in seen] == [2, 3, 4, 5]
    assert (table.clock, table.nodes, table.edges) == (twin.clock, twin.nodes, twin.edges) == (5, {}, {})
    # the tick to clock 3 ended the windows, so s1 walks again
    assert random_walk(graph, s1, 1, table, RankingParams(), make_stream(0, "x")) == ([e_a], [aux1], 1)


@pytest.mark.parametrize("variant", [Variant.BASE, Variant.WEIGHTED], ids=["base", "weighted"])
@pytest.mark.parametrize("entry", ["node", "edge"])
def test_a_zero_window_walk_checking_fatigue_walks_as_a_calm_walk(monkeypatch, variant, entry):
    """A table entry for an id the graph lacks makes a walk check fatigue at every step, and changes nothing."""
    excluded_positions, checks = ranking._excluded_positions, []

    def counted(graph, out, source, fatigue):
        checks.append(source)
        return excluded_positions(graph, out, source, fatigue)

    monkeypatch.setattr(ranking, "_excluded_positions", counted)
    rng = np.random.default_rng(93)
    steps = 0
    for i in range(12):
        graph, _ = graphgen.random_graph(rng, variant)
        length = int(rng.integers(1, 8))
        for start in range(len(graph.nodes)):
            walks = []
            for forced in (False, True):
                fatigue, stream, seen = FatigueTable(), make_stream(i, f"pin {start}"), []
                if forced:
                    table = fatigue.nodes if entry == "node" else fatigue.edges
                    table[len(graph.nodes) + len(graph.edges)] = length + 1
                del checks[:]
                got = random_walk(graph, start, length, fatigue, RankingParams(), stream,
                                  lambda *step: seen.append(step))
                # a calm walk checks nothing; the other checks before every step it tries
                assert len(checks) == (0 if not forced else min(got[2] + 1, length))
                walks.append((got, fatigue.clock, seen, stream.bit_generator.state))
            assert walks[0] == walks[1]
            steps += walks[0][0][2]
    assert steps > 1000


def test_target_sums_cache_holds_only_walked_edges_one_sum_per_target():
    graph, hub = hub_graph(Variant.WEIGHTED)
    walked = set()
    result = rws(graph, "hub leaf000 leaf100", RankingParams(walk_length=3, repeats=200),
                 lambda clock, edge_id, target: walked.add(edge_id))
    assert result.total_steps > 1000
    cache = graph.target_tables
    assert cache.keys() == walked
    assert len(walked) < len(graph.edges)
    for edge_id, table in cache.items():
        targets = graph.edges[edge_id].targets
        n = len(targets)
        # n weights, n running sums, n totals: one sum per target, no more
        assert len(table) == 3 * n
        weights = [graph.nodes[t].weight for t in targets]
        assert list(table[:2 * n]) == weights + list(accumulate(weights))


def mixed_weights(rng):
    """2-40 weights, each 1.0, 1e-16, 3e-17 or uniform(0.05, 1): sums that lose low bits."""
    special = (1.0, 1e-16, 3e-17)
    return [
        special[int(rng.integers(3))] if rng.random() < 0.5 else float(rng.uniform(0.05, 1.0))
        for _ in range(int(rng.integers(2, 41)))
    ]


def test_memoised_other_target_totals_add_the_other_weights_in_order():
    """Each source position's total is the last running sum of the list without it, bit for bit."""
    rng = np.random.default_rng(91)
    differs_from_subtraction = 0
    for _ in range(120):
        weights = mixed_weights(rng)
        n = len(weights)
        graph, terms, tail, entities = weighted_star(weights)
        table = ranking._target_table(graph, graph.doc_edge_id("d"))
        assert list(table[2 * n:]) == [0.0] * n
        for i, source in enumerate(terms):
            one_step(graph, source, 0.5)
            total = list(accumulate(weights[:i] + weights[i + 1:]))[-1]
            assert table[2 * n + i] == total
            differs_from_subtraction += table[2 * n - 1] - weights[i] != total
            one_step(graph, source, 0.5)  # reads the memo and leaves it as it is
            assert table[2 * n + i] == total
        # a step from outside an edge's targets fills none of its totals
        one_step(graph, tail, 0.5)
        (contained,) = graph.out_edges(tail)
        assert list(graph.target_tables[contained][2 * n:]) == [0.0] * n
    assert differs_from_subtraction > 100


def test_weighted_target_scan_picks_what_bisect_right_over_the_re_added_list_picks():
    """Draws at or above the sum before the source, u = 1.0 (the clamp) among them."""
    rng = np.random.default_rng(92)
    scanned = 0
    for _ in range(120):
        weights = mixed_weights(rng)
        n = len(weights)
        graph, terms, tail, entities = weighted_star(weights)
        for i, source in enumerate(terms[:-1]):
            before = list(accumulate(weights[:i], initial=0.0))[-1]
            after = list(accumulate(weights[i + 1:], initial=before))
            low = before / after[-1]
            for u in (low, float(rng.uniform(low, 1.0)), 1.0 - 2.0**-53, 1.0):
                x = u * after[-1]
                if x < before:
                    continue
                k = i + min(bisect_right(after, x, 1), n - 1 - i)
                assert one_step(graph, source, u) == terms[k]
                scanned += 1
    assert scanned > 8000
