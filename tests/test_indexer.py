"""Tokenization, corpus loading, graph construction and weighting."""
from __future__ import annotations

import math
import tracemalloc

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
    NodeKind,
    Variant,
    index_corpus,
    load_corpus,
    load_embeddings,
    load_synonyms,
    tokenize,
)
from hgoe.indexer import extend_context, extend_synonyms

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


@given(st.text(max_size=80))
def test_tokenize_properties(text):
    tokens = tokenize(text)
    for token in tokens:
        assert token
        assert token == token.lower()
        assert tokenize(token) == [token]


# -- corpus structure ---------------------------------------------------------

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
    assert graph.term_df == {t: 1 for t in terms}
    assert graph.entity_df == {"Eiffel Tower": 1, "Paris": 1}


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
    assert graph.term_df["rain"] == 2
    assert graph.entity_df == {"Oslo": 2, "Bergen": 2}


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
    added = extend_context(graph, embeddings)
    context = [e for e in graph.edges if e.kind is EdgeKind.CONTEXT]
    assert added == 1
    assert len(context) == 1
    labels = {graph.nodes[m].label for m in context[0].members}
    assert labels == {"alpha", "bravo", "charlie"}
    # one (term, neighbour) sim pair per source row: alpha, bravo, charlie
    assert context[0].context_sims == pytest.approx([0.9, 0.6, 0.9, 0.54, 0.6, 0.54])


def _context_pair_edges(cosine):
    graph = Hypergraph()
    graph.upsert_node(NodeKind.TERM, "p")
    graph.upsert_node(NodeKind.TERM, "q")
    embeddings = {
        "p": np.array([1.0, 0.0]),
        "q": np.array([cosine, math.sqrt(1.0 - cosine * cosine)]),
    }
    return extend_context(graph, embeddings)


def test_extend_context_threshold():
    assert _context_pair_edges(0.49) == 0
    assert _context_pair_edges(0.51) == 1


def test_extend_context_identical_vectors():
    graph = Hypergraph()
    graph.upsert_node(NodeKind.TERM, "golf")
    graph.upsert_node(NodeKind.TERM, "hotel")
    embeddings = {"golf": np.array([1.0, 1.0]), "hotel": np.array([1.0, 1.0])}
    assert extend_context(graph, embeddings) == 1
    edge = next(e for e in graph.edges if e.kind is EdgeKind.CONTEXT)
    assert edge.context_sims == pytest.approx([1.0, 1.0])
    assert all(s <= 1.0 for s in edge.context_sims)


def test_extend_context_ignores_unembedded_vocabulary():
    graph = Hypergraph()
    graph.upsert_node(NodeKind.TERM, "only")
    assert extend_context(graph, {"unrelated": np.array([1.0, 0.0])}) == 0


def test_extend_context_keeps_one_similarity_block_alive():
    # 3,000 terms span three 1,024-row blocks of the similarity matrix.
    rng = np.random.default_rng(0)
    graph = Hypergraph()
    embeddings = {}
    for i in range(3000):
        label = f"w{i:04d}"
        graph.upsert_node(NodeKind.TERM, label)
        embeddings[label] = rng.standard_normal(8)
    block_bytes = 1024 * 3000 * 8
    tracemalloc.start()
    try:
        extend_context(graph, embeddings)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * block_bytes


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
        '{"id": "d2", "text": "Bye"}\n',
        encoding="utf-8",
    )
    docs = load_corpus(str(path))
    assert docs == [
        CorpusDocument("d1", "Hello world", ("Earth",)),
        CorpusDocument("d2", "Bye", ()),
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
