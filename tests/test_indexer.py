"""Tokenization, corpus loading, graph construction and weighting."""
from __future__ import annotations

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hgoe import (
    ConfigError,
    CorpusDocument,
    EdgeKind,
    FormatError,
    Hypergraph,
    InputError,
    InternalError,
    NodeKind,
    Variant,
    index_corpus,
    indexer,
    load_corpus,
    load_embeddings,
    load_synonyms,
    tokenize,
)
from hgoe.indexer import (
    CONTEXT_SIM_THRESHOLD,
    SIMILARITY_BLOCK_BYTES,
    compute_weights,
    extend_context,
    extend_synonyms,
)

import graphgen


# -- tokenize -----------------------------------------------------------------

def test_tokenize_splits_on_punctuation_and_lowers():
    assert tokenize("The B-52's flight") == ["the", "b", "52", "s", "flight"]
    assert tokenize("Hello, WORLD!") == ["hello", "world"]


def test_tokenize_splits_on_underscore():
    assert tokenize("foo_bar") == ["foo", "bar"]


def test_tokenize_keeps_duplicates_and_unicode():
    assert tokenize("a a b") == ["a", "a", "b"]
    assert tokenize("naïve café") == ["naïve", "café"]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize(" .,;! ") == []


def _regex_tokens(text):
    return indexer._TOKEN_RE.findall(text.lower())


def test_tokenize_matches_the_pattern_on_every_ascii_character():
    for char in map(chr, range(128)):
        for text in (char, f"ab{char}cd", f"{char}x{char}"):
            assert tokenize(text) == _regex_tokens(text), repr(text)


@given(st.text(st.characters(max_codepoint=127), max_size=80))
def test_tokenize_matches_the_pattern_on_ascii_text(text):
    assert tokenize(text) == _regex_tokens(text)


@pytest.mark.parametrize("text", ["Café naïve", "x\u00a0y", "\u01c5", "\u0663\u0664", "a_\u212a b",
                                  "naïve\u2014café «x»"])
def test_tokenize_matches_the_pattern_on_non_ascii_text(text):
    # a no-break space, a titlecase digraph, Arabic-Indic digits, the Kelvin
    # sign, which lowers to an ASCII "k" and so takes the ASCII path, and
    # separators outside ASCII, which str.split alone would keep in a token
    assert tokenize(text) == _regex_tokens(text)
    assert tokenize(text)


@given(st.text(max_size=80))
def test_tokenize_properties(text):
    tokens = tokenize(text)
    for token in tokens:
        assert token
        assert token == token.lower()
        assert tokenize(token) == [token]


# -- corpus structure ---------------------------------------------------------

def _document_frequency(graph, kind):
    """Label -> number of Document edges holding that node of the given kind."""
    counts = {}
    for edge in graph.edges:
        if edge.kind is EdgeKind.DOCUMENT:
            for node in (graph.nodes[m] for m in edge.members):
                if node.kind is kind:
                    counts[node.label] = counts.get(node.label, 0) + 1
    return counts


def test_single_document_structure():
    doc = CorpusDocument("d1", "The Eiffel Tower stands in Paris",
                         ("Eiffel Tower", "Paris"))
    graph = index_corpus([doc])
    terms = {n.label for n in graph.nodes if n.kind is NodeKind.TERM}
    entities = {n.label for n in graph.nodes if n.kind is NodeKind.ENTITY}
    assert terms == {"the", "eiffel", "tower", "stands", "in", "paris"}
    assert entities == {"Eiffel Tower", "Paris"}

    by_kind = {}
    for edge in graph.edges:
        by_kind.setdefault(edge.kind, []).append(edge)
    assert len(by_kind[EdgeKind.DOCUMENT]) == 1
    assert len(by_kind[EdgeKind.CONTAINED_IN]) == 2
    assert len(by_kind[EdgeKind.RELATED_TO]) == 1

    doc_edge = by_kind[EdgeKind.DOCUMENT][0]
    assert len(doc_edge.members) == 8
    assert doc_edge.doc_id == "d1"

    eiffel = graph.node_id(NodeKind.ENTITY, "Eiffel Tower")
    name_edge = next(e for e in by_kind[EdgeKind.CONTAINED_IN] if e.head == (eiffel,))
    assert set(name_edge.tail) == {
        graph.node_id(NodeKind.TERM, "eiffel"),
        graph.node_id(NodeKind.TERM, "tower"),
    }
    assert _document_frequency(graph, NodeKind.TERM) == {t: 1 for t in terms}
    assert _document_frequency(graph, NodeKind.ENTITY) == {"Eiffel Tower": 1, "Paris": 1}


def test_shared_structure_is_deduplicated():
    docs = [
        CorpusDocument("d1", "rain", ("Oslo", "Bergen")),
        CorpusDocument("d2", "rain rain", ("Oslo", "Bergen")),
    ]
    graph = index_corpus(docs)
    related = [e for e in graph.edges if e.kind is EdgeKind.RELATED_TO]
    contained = [e for e in graph.edges if e.kind is EdgeKind.CONTAINED_IN]
    assert len(related) == 1
    assert len(contained) == 2
    assert _document_frequency(graph, NodeKind.TERM)["rain"] == 2
    assert _document_frequency(graph, NodeKind.ENTITY) == {"Oslo": 2, "Bergen": 2}


def _index_per_link(docs):
    """The base graph when every link tokenizes its entity name and offers its ContainedIn edge."""
    g = Hypergraph(Variant.BASE)
    for doc in docs:
        term_ids = g.upsert_nodes(NodeKind.TERM, list(dict.fromkeys(tokenize(doc.text))))
        entity_ids = g.upsert_nodes(NodeKind.ENTITY, list(dict.fromkeys(doc.links)))
        g.add_edge(EdgeKind.DOCUMENT, members=term_ids + entity_ids, doc_id=doc.doc_id)
        for entity, entity_id in zip(dict.fromkeys(doc.links), entity_ids):
            name_ids = g.upsert_nodes(NodeKind.TERM, list(dict.fromkeys(tokenize(entity))))
            g.add_edge(EdgeKind.CONTAINED_IN, tail=name_ids, head=[entity_id])
        if len(entity_ids) >= 2:
            g.add_edge(EdgeKind.RELATED_TO, members=entity_ids)
    return g.freeze()


def test_an_entity_linked_by_three_documents_is_named_once(monkeypatch):
    docs = [
        CorpusDocument("d1", "boat", ("Grand Canal",)),
        CorpusDocument("d2", "canal trip", ("Rialto", "Grand Canal")),
        CorpusDocument("d3", "", ("Grand Canal", "Grand Canal", "Rialto")),
    ]
    expected = _index_per_link(docs)
    calls = []

    def counting_tokenize(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr("hgoe.indexer.tokenize", counting_tokenize)
    graph = index_corpus(docs)
    assert graph.structurally_equal(expected)
    assert calls.count("Grand Canal") == 1
    assert calls.count("Rialto") == 1
    contained = [e for e in graph.edges if e.kind is EdgeKind.CONTAINED_IN]
    assert [(e.tail, e.head) for e in contained] == [
        ((graph.node_id(NodeKind.TERM, "grand"), graph.node_id(NodeKind.TERM, "canal")),
         (graph.node_id(NodeKind.ENTITY, "Grand Canal"),)),
        ((graph.node_id(NodeKind.TERM, "rialto"),), (graph.node_id(NodeKind.ENTITY, "Rialto"),)),
    ]


def test_document_without_text_is_fine_with_links():
    graph = index_corpus([CorpusDocument("d1", "", ("Rome",))])
    assert graph.doc_count == 1
    assert graph.node_id(NodeKind.ENTITY, "Rome") is not None


def test_document_without_nodes_rejected():
    with pytest.raises(InputError):
        index_corpus([CorpusDocument("d1", "...", ())])


def test_unparseable_entity_name_rejected():
    with pytest.raises(InputError):
        index_corpus([CorpusDocument("d1", "x", ("$$$",))])


def test_duplicate_doc_ids_rejected():
    docs = [CorpusDocument("d1", "a"), CorpusDocument("d1", "b")]
    with pytest.raises(InputError):
        index_corpus(docs)


def test_base_variant_stays_plain():
    rng = np.random.default_rng(21)
    for _ in range(5):
        graph = index_corpus(graphgen.random_corpus(rng), Variant.BASE)
        assert all(e.kind not in (EdgeKind.SYNONYM, EdgeKind.CONTEXT) for e in graph.edges)
        assert all(n.weight is None for n in graph.nodes)
        assert all(e.weight is None for e in graph.edges)


def test_enriched_variants_require_resources():
    docs = [CorpusDocument("d1", "a b")]
    with pytest.raises(ConfigError):
        index_corpus(docs, Variant.SYNS_CONTEXT)
    with pytest.raises(ConfigError):
        index_corpus(docs, Variant.WEIGHTED, lexicon=[("a", "b")])


# -- enrichment ---------------------------------------------------------------

def test_extend_synonyms_overlap_rule():
    graph = Hypergraph()
    graph.upsert_node(NodeKind.TERM, "alpha")
    graph.upsert_node(NodeKind.TERM, "beta")
    added = extend_synonyms(graph, [("alpha", "extra"), ("nope", "zilch")])
    assert added == 1
    synonym = next(e for e in graph.edges if e.kind is EdgeKind.SYNONYM)
    labels = {graph.nodes[m].label for m in synonym.members}
    assert labels == {"alpha", "extra"}
    assert graph.node_id(NodeKind.TERM, "nope") is None
    assert extend_synonyms(graph, [("alpha", "extra")]) == 0
    with pytest.raises(InputError):
        extend_synonyms(graph, [("solo", "solo")])


def test_extend_context_neighbour_rule():
    graph = Hypergraph()
    for label in ("alpha", "bravo", "charlie", "delta"):
        graph.upsert_node(NodeKind.TERM, label)
    embeddings = {
        "alpha": np.array([1.0, 0.0, 0.0]),
        "bravo": np.array([0.9, math.sqrt(0.19), 0.0]),
        "charlie": np.array([0.6, 0.0, 0.8]),
        "delta": np.array([0.0, 1.0, 0.0]),
    }
    context_sims = extend_context(graph, embeddings)
    context = [e for e in graph.edges if e.kind is EdgeKind.CONTEXT]
    assert len(context_sims) == 1
    assert len(context) == 1
    labels = {graph.nodes[m].label for m in context[0].members}
    assert labels == {"alpha", "bravo", "charlie"}
    # one (term, neighbour) sim pair per source row: alpha, bravo, charlie
    assert context_sims[context[0].edge_id] == pytest.approx([0.9, 0.6, 0.9, 0.54, 0.6, 0.54])


def _context_pair_edges(cosine):
    graph = Hypergraph()
    graph.upsert_node(NodeKind.TERM, "p")
    graph.upsert_node(NodeKind.TERM, "q")
    embeddings = {
        "p": np.array([1.0, 0.0]),
        "q": np.array([cosine, math.sqrt(1.0 - cosine * cosine)]),
    }
    return len(extend_context(graph, embeddings))


def test_extend_context_threshold():
    assert _context_pair_edges(0.49) == 0
    assert _context_pair_edges(0.51) == 1


def test_extend_context_identical_vectors():
    graph = Hypergraph()
    graph.upsert_node(NodeKind.TERM, "golf")
    graph.upsert_node(NodeKind.TERM, "hotel")
    embeddings = {"golf": np.array([1.0, 1.0]), "hotel": np.array([1.0, 1.0])}
    context_sims = extend_context(graph, embeddings)
    assert len(context_sims) == 1
    edge = next(e for e in graph.edges if e.kind is EdgeKind.CONTEXT)
    assert context_sims[edge.edge_id] == pytest.approx([1.0, 1.0])
    assert all(s <= 1.0 for s in context_sims[edge.edge_id])


def test_extend_context_excludes_a_cosine_of_exactly_the_threshold():
    graph = Hypergraph()
    graph.upsert_node(NodeKind.TERM, "p")
    graph.upsert_node(NodeKind.TERM, "q")
    embeddings = {"p": np.array([1.0, 0.0, 0.0, 0.0]), "q": np.array([0.5, 0.5, 0.5, 0.5])}
    assert len(extend_context(graph, embeddings)) == 0


def test_extend_context_rejects_non_finite_vectors():
    graph = Hypergraph()
    graph.upsert_node(NodeKind.TERM, "finite")
    graph.upsert_node(NodeKind.TERM, "infinite")
    embeddings = {"finite": np.array([1.0, 0.0]), "infinite": np.array([np.inf, 0.0])}
    with pytest.raises(InputError, match="non-finite"):
        extend_context(graph, embeddings)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_extend_context_rescales_a_vector_whose_norm_over_or_underflows(scale):
    graph = Hypergraph()
    graph.upsert_node(NodeKind.TERM, "a")
    graph.upsert_node(NodeKind.TERM, "b")
    embeddings = {"a": np.array([scale, 0.0]), "b": np.array([1.0, 0.0])}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        context_sims = extend_context(graph, embeddings)
    assert len(context_sims) == 1
    (edge,) = [e for e in graph.edges if e.kind is EdgeKind.CONTEXT]
    assert context_sims[edge.edge_id] == [1.0, 1.0]


def test_extend_context_ignores_unembedded_vocabulary():
    graph = Hypergraph()
    graph.upsert_node(NodeKind.TERM, "only")
    assert len(extend_context(graph, {"unrelated": np.array([1.0, 0.0])})) == 0


# Unit-norm templates with dyadic components: a signed permutation of any of
# them times 4 is an integer vector, so every cosine is an exact multiple of
# 1/16 in float64 and many of them tie.
_DYADIC_TEMPLATES = (
    (4, 0, 0, 0, 0, 0),
    (2, 2, 2, 2, 0, 0),
    (3, 2, 1, 1, 1, 0),
)


def _context_by_rule(graph, labels, cosine):
    """The documented rule, spelled out: per term in label order, the other
    terms with cosine above the threshold by (-cosine, label), first two.

    Returns the (term, neighbour) index pairs of each Context edge, keyed by
    its sorted member ids, in the order extend_context adds them.
    """
    expected: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for i, label in enumerate(labels):
        above = np.flatnonzero(cosine[i] > CONTEXT_SIM_THRESHOLD)
        chosen = sorted((-cosine[i, j], labels[j], j) for j in above if j != i)[:2]
        if not chosen:
            continue
        ids = [graph.node_id(NodeKind.TERM, name) for name in (label, *(n for _, n, _ in chosen))]
        expected.setdefault(tuple(sorted(ids)), []).extend((i, j) for _, _, j in chosen)
    return expected


def _term_graph(labels, rng):
    graph = Hypergraph()
    for i in rng.permutation(len(labels)):  # node ids need not follow label order
        graph.upsert_node(NodeKind.TERM, labels[i])
    return graph


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_extend_context_matches_the_documented_rule_on_ties(seed):
    # 2,500 terms span six 419-row blocks of the similarity matrix.
    rng = np.random.default_rng(seed)
    labels = [f"w{i:04d}" for i in range(2500)]
    quarters = np.array([
        rng.permutation(_DYADIC_TEMPLATES[rng.integers(3)]) * rng.choice([-1, 1], size=6)
        for _ in labels
    ])
    graph = _term_graph(labels, rng)
    context_sims = extend_context(graph, {label: q / 4.0 for label, q in zip(labels, quarters)})

    cosine = (quarters @ quarters.T) / 16.0  # exact: integers over a power of two
    expected = _context_by_rule(graph, labels, cosine)
    context = [(e.members, context_sims[e.edge_id])
               for e in graph.edges if e.kind is EdgeKind.CONTEXT]
    assert context == [
        (members, [min(cosine[i, j], 1.0) for i, j in pairs]) for members, pairs in expected.items()
    ]
    assert len(context_sims) == len(expected)


def test_extend_context_matches_a_brute_force_rule_on_gaussian_vectors():
    # 1,500 terms span three 699-row blocks of the similarity matrix.
    rng = np.random.default_rng(0)
    labels = [f"w{i:04d}" for i in range(1500)]
    vectors = rng.standard_normal((len(labels), 32))
    graph = _term_graph(labels, rng)
    context_sims = extend_context(graph, dict(zip(labels, vectors)))

    unit = vectors / np.linalg.norm(vectors, axis=1)[:, None]
    cosine = sum(np.outer(unit[:, k], unit[:, k]) for k in range(unit.shape[1]))  # no BLAS
    # No cosine is near the threshold or near a tie among a row's three
    # nearest, so rounding cannot decide the rule.
    nearest = -np.sort(-np.where(np.eye(len(labels), dtype=bool), -np.inf, cosine), axis=1)[:, :3]
    assert np.abs(cosine - CONTEXT_SIM_THRESHOLD).min() > 1e-12
    assert np.diff(nearest, axis=1).max() < -1e-12
    expected = _context_by_rule(graph, labels, cosine)
    context = [e for e in graph.edges if e.kind is EdgeKind.CONTEXT]
    assert [e.members for e in context] == list(expected)
    assert len(context_sims) == len(expected)
    for edge, pairs in zip(context, expected.values()):
        assert len(context_sims[edge.edge_id]) == len(pairs)
        for sim, (i, j) in zip(context_sims[edge.edge_id], pairs):
            assert abs(sim - math.fsum(unit[i] * unit[j])) <= 1e-14


@pytest.mark.parametrize("n, block_rows", [(1024, [1024]), (1025, [1023, 2])])
def test_extend_context_splits_the_vocabulary_into_budgeted_blocks(monkeypatch, n, block_rows):
    rows = []
    matmul = np.matmul

    def recording_matmul(a, b, **kwargs):
        rows.append(len(a))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", recording_matmul)
    rng = np.random.default_rng(0)
    labels = [f"w{i:04d}" for i in range(n)]
    extend_context(_term_graph(labels, rng), dict(zip(labels, rng.standard_normal((n, 8)))))
    assert rows == block_rows
    assert max(rows) * n * 8 <= SIMILARITY_BLOCK_BYTES


def test_extend_context_keeps_one_similarity_block_alive():
    # 3,000 terms span nine 349-row blocks of the similarity matrix.
    rng = np.random.default_rng(0)
    graph = Hypergraph()
    embeddings = {}
    for i in range(3000):
        label = f"w{i:04d}"
        graph.upsert_node(NodeKind.TERM, label)
        embeddings[label] = rng.standard_normal(8)
    tracemalloc.start()
    try:
        extend_context(graph, embeddings)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * SIMILARITY_BLOCK_BYTES


# -- weighting ----------------------------------------------------------------

def weighted_fixture():
    docs = [
        CorpusDocument("d1", "alpha beta", ("Rome", "Paris")),
        CorpusDocument("d2", "beta gamma", ("Rome",)),
    ]
    lexicon = [("alpha", "fresh1", "fresh2", "fresh3")]
    embeddings = {
        "beta": np.array([1.0, 0.0]),
        "gamma": np.array([0.8, 0.6]),
    }
    return index_corpus(docs, Variant.WEIGHTED, lexicon, embeddings)


def test_node_weights_follow_document_frequency():
    graph = weighted_fixture()

    def weight_of(kind, label):
        return graph.nodes[graph.node_id(kind, label)].weight

    assert weight_of(NodeKind.TERM, "alpha") == pytest.approx(2 / 3)
    assert weight_of(NodeKind.TERM, "beta") == pytest.approx(1 / 2)
    assert weight_of(NodeKind.ENTITY, "Rome") == pytest.approx(1 / 2)
    assert weight_of(NodeKind.ENTITY, "Paris") == pytest.approx(2 / 3)
    # name terms and synonym-added terms occur in no document: limit weight
    assert weight_of(NodeKind.TERM, "rome") == 1.0
    assert weight_of(NodeKind.TERM, "fresh1") == 1.0


def test_node_weights_count_the_document_edges_of_a_hand_built_graph():
    graph = Hypergraph(Variant.WEIGHTED)
    alpha = graph.upsert_node(NodeKind.TERM, "alpha")
    beta = graph.upsert_node(NodeKind.TERM, "beta")
    graph.add_edge(EdgeKind.DOCUMENT, members=[alpha, beta], doc_id="d1")
    graph.add_edge(EdgeKind.DOCUMENT, members=[alpha], doc_id="d2")
    compute_weights(graph, {})
    assert graph.nodes[alpha].weight == 0.5
    assert graph.nodes[beta].weight == 2 / 3
    docs = [CorpusDocument("d1", "alpha beta"), CorpusDocument("d2", "alpha")]
    indexed = index_corpus(docs, Variant.WEIGHTED, [], {})
    assert [n.weight for n in indexed.nodes] == [0.5, 2 / 3]


def test_node_weight_matches_logistic_idf():
    for n_docs in (1, 3, 10, 250):
        for df in (1, 2, n_docs):
            direct = n_docs / (n_docs + df)
            logistic = 1.0 / (1.0 + math.exp(-math.log(n_docs / df)))
            assert direct == pytest.approx(logistic, abs=1e-12)


def test_edge_weights_by_kind():
    graph = weighted_fixture()
    weights = {}
    for edge in graph.edges:
        weights.setdefault(edge.kind, []).append(edge.weight)
    assert weights[EdgeKind.DOCUMENT] == [0.5, 0.5]
    assert all(w == 1.0 for w in weights[EdgeKind.CONTAINED_IN])
    assert weights[EdgeKind.RELATED_TO] == [pytest.approx(1.0)]
    assert weights[EdgeKind.SYNONYM] == [pytest.approx(0.25)]
    assert weights[EdgeKind.CONTEXT] == [pytest.approx(0.8)]


def test_context_weight_is_the_capped_mean_of_the_similarities_extend_context_returns(
        monkeypatch):
    recorded = []

    def recording_extend_context(graph, embeddings):
        recorded.append(extend_context(graph, embeddings))
        return recorded[-1]

    monkeypatch.setattr(indexer, "extend_context", recording_extend_context)
    rng = np.random.default_rng(24)
    from_several_terms = 0
    for _ in range(20):
        graph, _ = graphgen.random_graph(rng, Variant.WEIGHTED)
        context_sims = recorded.pop()
        context = [e for e in graph.edges if e.kind is EdgeKind.CONTEXT]
        assert [e.edge_id for e in context] == list(context_sims)
        for edge in context:
            sims = context_sims[edge.edge_id]
            assert edge.weight == min(math.fsum(sims) / len(sims), 1.0)
            # One term records one similarity per other member at most.
            from_several_terms += len(sims) > len(edge.members) - 1
    assert from_several_terms


def test_compute_weights_rejects_a_context_edge_with_no_similarities():
    graph = Hypergraph(Variant.WEIGHTED)
    alpha, beta = graph.upsert_nodes(NodeKind.TERM, ["alpha", "beta"])
    graph.add_edge(EdgeKind.DOCUMENT, members=[alpha, beta], doc_id="d1")
    context = graph.add_edge(EdgeKind.CONTEXT, members=[alpha, beta])
    for context_sims in ({}, {context: []}, {context + 1: [0.9]}):
        with pytest.raises(InternalError, match=f"context edge {context} has no recorded"):
            compute_weights(graph, context_sims)


def test_related_to_weight_counts_co_occurrence():
    docs = [
        CorpusDocument("d1", "x", ("A", "B")),
        CorpusDocument("d2", "x", ("C", "D")),
    ]
    graph = index_corpus(docs, Variant.WEIGHTED, [("x", "y")], {})
    related = [e for e in graph.edges if e.kind is EdgeKind.RELATED_TO]
    # each entity co-occurs with 1 of the 3 other entities
    assert all(e.weight == pytest.approx(1 / 3) for e in related)


def test_all_weights_in_unit_interval():
    rng = np.random.default_rng(22)
    for _ in range(8):
        graph, _ = graphgen.random_graph(rng, Variant.WEIGHTED)
        assert all(0.0 < n.weight <= 1.0 for n in graph.nodes)
        assert all(0.0 < e.weight <= 1.0 for e in graph.edges)


def test_weighting_does_not_change_topology():
    rng = np.random.default_rng(23)
    docs = graphgen.random_corpus(rng)
    lexicon = graphgen.random_lexicon(rng)
    embeddings = graphgen.random_embeddings(rng)
    plain = index_corpus(docs, Variant.SYNS_CONTEXT, lexicon, embeddings)
    weighted = index_corpus(docs, Variant.WEIGHTED, lexicon, embeddings)
    assert [(n.kind, n.label) for n in plain.nodes] == \
        [(n.kind, n.label) for n in weighted.nodes]
    assert [(e.kind, e.members, e.tail, e.head, e.doc_id) for e in plain.edges] == \
        [(e.kind, e.members, e.tail, e.head, e.doc_id) for e in weighted.edges]


# -- file loaders -------------------------------------------------------------

def test_load_corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"id": "d1", "text": "Hello world", "links": ["Earth"]}\n'
        '\n'
        '{"id": "d2", "text": "Bye"}\n'
        '{"id": "d3", "text": "--", "links": ["Rome"]}\n',
        encoding="utf-8",
    )
    docs = load_corpus(str(path))
    assert docs == [
        CorpusDocument("d1", "Hello world", ("Earth",)),
        CorpusDocument("d2", "Bye", ()),
        CorpusDocument("d3", "--", ("Rome",)),
    ]


@pytest.mark.parametrize("line,error", [
    ('{"id": "d1", "text": "x"}\n{"id": "d1", "text": "y"}', InputError),
    ('{"id": "d1", "text": "", "links": []}', InputError),
    ('not json', FormatError),
    ('[1, 2]', FormatError),
    ('{"id": "", "text": "x"}', FormatError),
    ('{"id": "d1", "text": 5}', FormatError),
    ('{"id": "d1", "text": "x", "links": [3]}', FormatError),
])
def test_load_corpus_rejects_bad_records(tmp_path, line, error):
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(error):
        load_corpus(str(path))


@pytest.mark.parametrize("line, message", [
    ('{"id": "d2", "text": "!!!"}', "document 'd2' has no tokens and no links"),
    ('{"id": "d2", "text": "x", "links": ["Rome", "..."]}', "entity name '...' has no tokens"),
    ('{"id": "d2", "text": "x", "links": [""]}', "entity name '' has no tokens"),
    ('{"id": "d2", "text": "!!!", "links": ["_"]}', "entity name '_' has no tokens"),
], ids=["punctuation-text", "punctuation-link", "empty-link", "underscore-link"])
def test_load_corpus_rejects_a_tokenless_document_at_its_line(tmp_path, line, message):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "d1", "text": "fine"}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(InputError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
        load_corpus(str(path))


def test_load_corpus_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "d1", "text": "x"}\nnot json\n', encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load_corpus(str(path))
    assert f"{path}:2" in str(err.value)


def test_load_synonyms(tmp_path):
    path = tmp_path / "syn.tsv"
    path.write_text("Car\tAutomobile\tauto\n\nbike\tcycle\n", encoding="utf-8")
    assert load_synonyms(str(path)) == [("car", "automobile", "auto"), ("bike", "cycle")]


@pytest.mark.parametrize("content", ["solo\n", "a\ta\n", "x\t\ty\n"])
def test_load_synonyms_rejects_degenerate_lines(tmp_path, content):
    path = tmp_path / "syn.tsv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(FormatError):
        load_synonyms(str(path))


@pytest.mark.parametrize("label", ["solar-power", "solar power", "solar_power", "-"])
def test_load_synonyms_rejects_a_label_that_is_not_one_token(tmp_path, label):
    path = tmp_path / "syn.tsv"
    path.write_text(f"sun\tstar\n{label}\tsun\n", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load_synonyms(str(path))
    assert str(err.value) == f"{path}:2: synonym label {label!r} is not one token"


def test_extend_synonyms_rejects_a_label_that_is_not_one_token():
    # "solar-power" would be a term node whose only out-edge is its Synonym
    # edge: walks from "sun" would step onto it, yet the query "solar-power"
    # maps to the terms "solar" and "power", never to it.
    docs = [CorpusDocument("d1", "the sun rises")]
    with pytest.raises(InputError, match="'solar-power' is not one token"):
        index_corpus(docs, Variant.SYNS_CONTEXT, lexicon=[("solar-power", "sun")], embeddings={})
    graph = Hypergraph()
    graph.upsert_node(NodeKind.TERM, "sun")
    for label in ("solar-power", "Star", ""):
        with pytest.raises(InputError, match=f"{label!r} is not one token"):
            extend_synonyms(graph, [("sun", label)])
    assert len(graph.nodes) == 1 and not graph.edges


@pytest.mark.parametrize("header", ["two 3", "2 x", "2.0 3", "2 3.5"])
def test_load_embeddings_rejects_a_header_that_is_not_two_integers(tmp_path, header):
    path = tmp_path / "vec.txt"
    path.write_text(f"{header}\ncat 1 0 0\ndog 0 1 0\n", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load_embeddings(str(path))
    assert str(err.value) == f"{path}:1: header must be 'count dim'"


def test_load_embeddings_accepts_extreme_non_zero_components(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("2 2\ntiny 1e-200 0\nhuge 1e200 0\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = load_embeddings(str(path))
    assert table["tiny"].tolist() == [1e-200, 0.0]
    assert table["huge"].tolist() == [1e200, 0.0]


def test_load_embeddings(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("2 3\nCat 1 0 0\ndog 0 1 0\n", encoding="utf-8")
    table = load_embeddings(str(path))
    assert set(table) == {"cat", "dog"}
    assert table["cat"].tolist() == [1.0, 0.0, 0.0]


@pytest.mark.parametrize("content", [
    "bogus\ncat 1 0\n",
    "1 3\ncat 1 0\n",
    "1 2\ncat 0 0\n",
    "2 2\ncat 1 0\ncat 0 1\n",
    "2 2\ncat 1 0\n",
    "1 2\ncat a b\n",
])
def test_load_embeddings_rejects_malformed_input(tmp_path, content):
    path = tmp_path / "vec.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(FormatError):
        load_embeddings(str(path))


@pytest.mark.parametrize("component", ["inf", "-inf", "nan"])
def test_load_embeddings_rejects_non_finite_components(tmp_path, component):
    path = tmp_path / "vec.txt"
    path.write_text(f"2 2\ncat 1 0\ndog 1 {component}\n", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load_embeddings(str(path))
    assert str(err.value) == f"{path}:3: non-finite vector component"


# Each file holds several bad lines of different kinds; the error names the
# earliest one, and on that line the first failing check in the order field
# count, duplicate, non-numeric, non-finite, zero. Line 3 is blank.
@pytest.mark.parametrize("lines, error", [
    (["cat 1 0", "", "dog 1", "Cat 1 0", "eel x 1", "fox inf 1", "gnu 0 0"],
     "4: expected 2 vector components"),
    (["cat 1 0", "", "CAT 0 0", "dog x", "eel 1 nan", "fox 0 0"],
     "4: duplicate embedding for 'cat'"),
    (["cat 1 0", "", "dog nan x", "eel 0 0", "fox 1", "cat 1 1"],
     "4: non-numeric vector component"),
    (["cat 1 0", "", "dog 0 -inf", "eel 0 0", "fox a 1", "gnu 1"],
     "4: non-finite vector component"),
    (["cat 1 0", "", "dog 0 -0.0", "eel 1 inf", "fox a 1", "cat 1 1"],
     "4: zero vector for 'dog'"),
])
def test_load_embeddings_reports_the_earliest_bad_line(tmp_path, lines, error):
    path = tmp_path / "vec.txt"
    path.write_text("\n".join(["9 2", *lines]) + "\n", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load_embeddings(str(path))
    assert str(err.value) == f"{path}:{error}"


@pytest.mark.parametrize("content, dim", [("0 -1\n", -1), ("1 -1\ncat 1\n", -1), ("2 0\n", 0)])
def test_load_embeddings_rejects_a_dimension_below_one_on_the_header(tmp_path, content, dim):
    path = tmp_path / "vec.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load_embeddings(str(path))
    assert str(err.value) == f"{path}:1: dimension must be at least 1, got {dim}"


def test_load_embeddings_checks_the_header_count_after_every_line(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("3 2\ncat 1 0\ndog 0 0\n", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load_embeddings(str(path))
    assert str(err.value) == f"{path}:3: zero vector for 'dog'"
    path.write_text("3 2\ncat 1 0\ndog 0 1\n", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load_embeddings(str(path))
    assert str(err.value) == f"{path}: header says 3 vectors, found 2"
