"""Corpus ingestion: tokenization, graph construction, enrichment, weighting.

The corpus is a JSON Lines file, one document per line with fields "id"
(string), "text" (string) and "links" (list of entity name strings). Each
document becomes one undirected Document hyperedge over its term and entity
nodes; each linked entity gets a directed ContainedIn edge from its name
terms, and documents with two or more entities contribute one RelatedTo
edge over that entity set.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, FormatError, InputError, InternalError
from .hypergraph import EdgeKind, Hypergraph, NodeKind, Variant
from .trec import open_text

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

CONTEXT_SIM_THRESHOLD = 0.5
CONTEXT_MAX_NEIGHBOURS = 2


def tokenize(text: str) -> list[str]:
    """Lowercase unigrams split on any non-alphanumeric character.

    Empty pieces are dropped, duplicates are preserved.
    """
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class CorpusDocument:
    doc_id: str
    text: str
    links: tuple[str, ...] = ()


def load_corpus(path: str) -> list[CorpusDocument]:
    """Read a .jsonl corpus, validating ids, field types and non-emptiness."""
    documents = []
    seen = set()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise FormatError(f"{path}:{lineno}: expected a JSON object")
            doc_id = record.get("id")
            text = record.get("text")
            links = record.get("links", [])
            if not isinstance(doc_id, str) or not doc_id:
                raise FormatError(f"{path}:{lineno}: 'id' must be a non-empty string")
            if not isinstance(text, str):
                raise FormatError(f"{path}:{lineno}: 'text' must be a string")
            if not isinstance(links, list) or any(not isinstance(x, str) for x in links):
                raise FormatError(f"{path}:{lineno}: 'links' must be a list of strings")
            if doc_id in seen:
                raise InputError(f"{path}:{lineno}: duplicate document id {doc_id!r}")
            if not text and not links:
                raise InputError(f"{path}:{lineno}: document {doc_id!r} has no text and no links")
            seen.add(doc_id)
            documents.append(CorpusDocument(doc_id, text, tuple(links)))
    return documents


def load_synonyms(path: str) -> list[tuple[str, ...]]:
    """Read a synonym lexicon: one synset per line, labels tab-separated."""
    synsets = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            labels = [part.strip().lower() for part in line.rstrip("\n").split("\t")]
            if any(not label for label in labels):
                raise FormatError(f"{path}:{lineno}: empty synonym label")
            distinct = tuple(dict.fromkeys(labels))
            if len(distinct) < 2:
                raise FormatError(f"{path}:{lineno}: a synset needs at least two distinct labels")
            synsets.append(distinct)
    return synsets


def load_embeddings(path: str) -> dict[str, np.ndarray]:
    """Read word2vec text format: header "count dim", then "word v1 .. vd"."""
    table: dict[str, np.ndarray] = {}
    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise FormatError(f"{path}:1: header must be 'count dim'")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise FormatError(f"{path}:1: header must be 'count dim'") from exc
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != dim + 1:
                raise FormatError(f"{path}:{lineno}: expected {dim} vector components")
            word = parts[0].lower()
            if word in table:
                raise FormatError(f"{path}:{lineno}: duplicate embedding for {word!r}")
            try:
                vector = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: non-numeric vector component") from exc
            if not np.linalg.norm(vector) > 0.0:
                raise FormatError(f"{path}:{lineno}: zero vector for {word!r}")
            table[word] = vector
    if len(table) != count:
        raise FormatError(f"{path}: header says {count} vectors, found {len(table)}")
    return table


def index_corpus(
    documents: Sequence[CorpusDocument],
    variant: Variant = Variant.BASE,
    lexicon: Sequence[Sequence[str]] | None = None,
    embeddings: Mapping[str, np.ndarray] | None = None,
) -> Hypergraph:
    """Build a frozen hypergraph over the given documents.

    The base variant indexes text terms and entity links. The syns-context
    variant additionally applies the synonym lexicon and the embedding
    neighbourhoods, and the weighted variant computes node and edge weights
    on top of that. Enriched variants require both resources.
    """
    variant = Variant(variant)
    if variant is not Variant.BASE:
        if lexicon is None:
            raise ConfigError(f"variant {variant.value} requires a synonym lexicon")
        if embeddings is None:
            raise ConfigError(f"variant {variant.value} requires an embedding table")
    graph = Hypergraph(variant)
    seen_docs = set()
    for doc in documents:
        if doc.doc_id in seen_docs:
            raise InputError(f"duplicate document id {doc.doc_id!r}")
        seen_docs.add(doc.doc_id)
        terms = list(dict.fromkeys(tokenize(doc.text)))
        entities = list(dict.fromkeys(doc.links))
        if not terms and not entities:
            raise InputError(f"document {doc.doc_id!r} yields no nodes")
        term_ids = [graph.upsert_node(NodeKind.TERM, t) for t in terms]
        entity_ids = [graph.upsert_node(NodeKind.ENTITY, e) for e in entities]
        graph.add_edge(EdgeKind.DOCUMENT, members=term_ids + entity_ids, doc_id=doc.doc_id)
        for entity, entity_id in zip(entities, entity_ids):
            name_terms = list(dict.fromkeys(tokenize(entity)))
            if not name_terms:
                raise InputError(f"entity name {entity!r} has no tokens")
            name_ids = [graph.upsert_node(NodeKind.TERM, t) for t in name_terms]
            graph.add_edge(EdgeKind.CONTAINED_IN, tail=name_ids, head=[entity_id])
        if len(entity_ids) >= 2:
            graph.add_edge(EdgeKind.RELATED_TO, members=entity_ids)
        for term in terms:
            graph.term_df[term] = graph.term_df.get(term, 0) + 1
        for entity in entities:
            graph.entity_df[entity] = graph.entity_df.get(entity, 0) + 1
    if variant is not Variant.BASE:
        extend_synonyms(graph, lexicon)
        extend_context(graph, embeddings)
    if variant is Variant.WEIGHTED:
        compute_weights(graph)
    return graph.freeze()


def extend_synonyms(graph: Hypergraph, lexicon: Iterable[Sequence[str]]) -> int:
    """Add one Synonym edge per synset that overlaps the graph vocabulary.

    Synset members missing from the graph are created as term nodes.
    Returns the number of Synonym edges added.
    """
    added = 0
    for synset in lexicon:
        labels = tuple(dict.fromkeys(synset))
        if len(labels) < 2:
            raise InputError("a synset needs at least two distinct labels")
        if not any(graph.node_id(NodeKind.TERM, label) is not None for label in labels):
            continue
        node_ids = [graph.upsert_node(NodeKind.TERM, label) for label in labels]
        before = len(graph.edges)
        graph.add_edge(EdgeKind.SYNONYM, members=node_ids)
        added += len(graph.edges) - before
    return added


def extend_context(graph: Hypergraph, embeddings: Mapping[str, np.ndarray]) -> int:
    """Add Context edges linking each embedded term to its nearest neighbours.

    Neighbour search is exact brute force over the embedded part of the
    graph vocabulary. A term picks up to CONTEXT_MAX_NEIGHBOURS other terms
    with cosine similarity strictly above CONTEXT_SIM_THRESHOLD; ties break
    on the label. The similarity of every recorded (term, neighbour) pair is
    stored on the edge for later weighting. Returns the number of Context
    edges added.
    """
    vocab = sorted(
        node.label
        for node in graph.nodes
        if node.kind is NodeKind.TERM and node.label in embeddings
    )
    if len(vocab) < 2:
        return 0
    matrix = np.stack([np.asarray(embeddings[label], dtype=np.float64) for label in vocab])
    norms = np.linalg.norm(matrix, axis=1)
    if not np.all(norms > 0.0):
        raise InputError("embeddings contain a zero vector")
    matrix = matrix / norms[:, None]
    added = 0
    chunk = 1024
    for start in range(0, len(vocab), chunk):
        block = matrix[start : start + chunk] @ matrix.T
        for row_offset in range(block.shape[0]):
            i = start + row_offset
            sims = block[row_offset]
            candidates = [
                (-float(sims[j]), vocab[j], j)
                for j in np.nonzero(sims > CONTEXT_SIM_THRESHOLD)[0]
                if j != i
            ]
            if not candidates:
                continue
            candidates.sort()
            chosen = candidates[:CONTEXT_MAX_NEIGHBOURS]
            term_id = graph.node_id(NodeKind.TERM, vocab[i])
            neighbour_ids = [graph.node_id(NodeKind.TERM, label) for _, label, _ in chosen]
            before = len(graph.edges)
            edge_id = graph.add_edge(EdgeKind.CONTEXT, members=[term_id, *neighbour_ids])
            added += len(graph.edges) - before
            graph.edges[edge_id].context_sims.extend(
                min(-neg_sim, 1.0) for neg_sim, _, _ in chosen
            )
        # `sims` is a view of `block`; drop both so that only one block is alive
        # while the next one is computed.
        del block, sims
    return added


def compute_weights(graph: Hypergraph) -> None:
    """Assign node and edge weights in place; all weights land in (0, 1].

    Node weight is the logistic function of the inverse document frequency,
    sigmoid(log(N / df)), which simplifies to N / (N + df). Terms that occur
    in no document (synonym-added vocabulary) take the df -> 0 limit of 1.0.
    Edge weights: Document 0.5, ContainedIn 1/|tail|, Synonym 1/|members|,
    Context the mean recorded similarity, RelatedTo the mean over member
    entities of the fraction of all other entities they co-occur with.
    """
    n_docs = graph.doc_count
    for node in graph.nodes:
        df_map = graph.term_df if node.kind is NodeKind.TERM else graph.entity_df
        df = df_map.get(node.label)
        if df is None:
            node.weight = 1.0
            continue
        if df <= 0:
            raise InternalError(f"node {node.label!r} has document frequency {df}")
        node.weight = n_docs / (n_docs + df)

    related_partners: dict[int, set[int]] = {}
    for edge in graph.edges:
        if edge.kind is EdgeKind.RELATED_TO:
            for member in edge.members:
                partners = related_partners.setdefault(member, set())
                partners.update(m for m in edge.members if m != member)
    entity_total = sum(1 for node in graph.nodes if node.kind is NodeKind.ENTITY)

    for edge in graph.edges:
        if edge.kind is EdgeKind.DOCUMENT:
            edge.weight = 0.5
        elif edge.kind is EdgeKind.CONTAINED_IN:
            edge.weight = 1.0 / len(edge.tail)
        elif edge.kind is EdgeKind.SYNONYM:
            edge.weight = 1.0 / len(edge.members)
        elif edge.kind is EdgeKind.CONTEXT:
            if not edge.context_sims:
                raise InternalError(f"context edge {edge.edge_id} has no recorded similarities")
            edge.weight = min(math.fsum(edge.context_sims) / len(edge.context_sims), 1.0)
        elif edge.kind is EdgeKind.RELATED_TO:
            if entity_total < 2:
                raise InternalError("RelatedTo edge in a graph with fewer than two entities")
            fractions = [
                len(related_partners.get(member, ())) / (entity_total - 1)
                for member in edge.members
            ]
            edge.weight = math.fsum(fractions) / len(fractions)
