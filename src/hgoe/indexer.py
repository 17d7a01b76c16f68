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
from .hypergraph import EdgeKind, Hypergraph, NodeKind, Variant, cyclic_collector_off
from .trec import check_token, open_text

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# Every ASCII character the pattern above does not match, mapped to a space.
_ASCII_SEPARATORS = str.maketrans({c: " " for c in map(chr, range(128)) if not c.isalnum()})

CONTEXT_SIM_THRESHOLD = 0.5
CONTEXT_MAX_NEIGHBOURS = 2
# Bytes of the float64 similarity block extend_context fills at a time: its
# memory stays constant as the vocabulary grows.
SIMILARITY_BLOCK_BYTES = 8 << 20


def tokenize(text: str) -> list[str]:
    """Lowercase unigrams split on any non-alphanumeric character.

    Empty pieces are dropped, duplicates are preserved. The tokens are those
    of `_TOKEN_RE` over the lowered text. An all-ASCII text takes a faster
    path with the same result: among ASCII characters the pattern matches
    exactly the letters and digits, so mapping every other one to a space and
    splitting on whitespace leaves the same runs. Any other text keeps the
    pattern, as the table maps ASCII separators only.
    """
    lowered = text.lower()
    if lowered.isascii():
        return lowered.translate(_ASCII_SEPARATORS).split()
    return _TOKEN_RE.findall(lowered)


@dataclass(frozen=True)
class CorpusDocument:
    doc_id: str
    text: str
    links: tuple[str, ...] = ()


def load_corpus(path: str) -> list[CorpusDocument]:
    """Read a .jsonl corpus, validating ids, field types and that each document yields a term."""
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
            check_token("doc id", doc_id, f"{path}:{lineno}: ")
            if not isinstance(text, str):
                raise FormatError(f"{path}:{lineno}: 'text' must be a string")
            if not isinstance(links, list) or any(not isinstance(x, str) for x in links):
                raise FormatError(f"{path}:{lineno}: 'links' must be a list of strings")
            if doc_id in seen:
                raise InputError(f"{path}:{lineno}: duplicate document id {doc_id!r}")
            # str.lower moves no character into or out of the token class: search as given.
            for name in links:
                if not _TOKEN_RE.search(name):
                    raise InputError(f"{path}:{lineno}: entity name {name!r} has no tokens")
            if not links and not _TOKEN_RE.search(text):
                raise InputError(f"{path}:{lineno}: document {doc_id!r} has no tokens and no links")
            seen.add(doc_id)
            documents.append(CorpusDocument(doc_id, text, tuple(links)))
    return documents


def load_synonyms(path: str) -> list[tuple[str, ...]]:
    """Read a synonym lexicon: one synset per line, labels tab-separated, each label
    one token as `tokenize` keeps it, so a query can reach the term node it becomes."""
    synsets = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            labels = [part.strip().lower() for part in line.rstrip("\n").split("\t")]
            for label in labels:
                if tokenize(label) != [label]:
                    raise FormatError(f"{path}:{lineno}: synonym label {label!r} is not one token")
            distinct = tuple(dict.fromkeys(labels))
            if len(distinct) < 2:
                raise FormatError(f"{path}:{lineno}: a synset needs at least two distinct labels")
            synsets.append(distinct)
    return synsets


def load_embeddings(path: str) -> dict[str, np.ndarray]:
    """Read word2vec text format: header "count dim", then "word v1 .. vd".

    The vectors are rows of one float64 matrix. A dim below 1 fails on the
    header. Otherwise an error names the earliest bad line and, on it, the
    first check that fails: component count, duplicate word, non-numeric,
    non-finite, zero vector. The header count is checked last.
    """
    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise FormatError(f"{path}:1: header must be 'count dim'")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise FormatError(f"{path}:1: header must be 'count dim'") from exc
        if dim < 1:
            raise FormatError(f"{path}:1: dimension must be at least 1, got {dim}")
        # Lines are read up to the first one that fails a per-line check; the
        # whole-matrix checks below can only name an earlier line.
        words: dict[str, int] = {}
        values: list[float] = []
        error = None
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split()
            word = parts[0].lower()
            if len(parts) != dim + 1:
                error = (lineno, f"expected {dim} vector components")
            elif word in words:
                error = (lineno, f"duplicate embedding for {word!r}")
            else:
                try:
                    values.extend(map(float, parts[1:]))
                except ValueError:
                    error = (lineno, "non-numeric vector component")
                    del values[len(words) * dim :]
            if error is not None:
                break
            words[word] = lineno
    matrix = np.array(values, dtype=np.float64).reshape(len(words), dim)
    non_finite = ~np.isfinite(matrix).all(axis=1)
    bad = np.flatnonzero(non_finite | ~matrix.any(axis=1))
    if bad.size:
        row = int(bad[0])
        word, lineno = list(words.items())[row]
        error = (lineno, "non-finite vector component" if non_finite[row] else f"zero vector for {word!r}")
    if error is not None:
        raise FormatError(f"{path}:{error[0]}: {error[1]}")
    if len(words) != count:
        raise FormatError(f"{path}: header says {count} vectors, found {len(words)}")
    return dict(zip(words, matrix))


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

    The cyclic garbage collector is off for the whole build, freeze included,
    and is restored as it was found, also when the build raises.
    """
    variant = Variant(variant)
    if variant is not Variant.BASE:
        if lexicon is None:
            raise ConfigError(f"variant {variant.value} requires a synonym lexicon")
        if embeddings is None:
            raise ConfigError(f"variant {variant.value} requires an embedding table")
    with cyclic_collector_off():
        graph = Hypergraph(variant)
        # A linked entity's name terms and ContainedIn edge are made on its
        # first link; a later link would find both already there.
        named: set[int] = set()
        for doc in documents:
            terms = list(dict.fromkeys(tokenize(doc.text)))
            entities = list(dict.fromkeys(doc.links))
            if not terms and not entities:
                raise InputError(f"document {doc.doc_id!r} yields no nodes")
            term_ids = graph.upsert_nodes(NodeKind.TERM, terms)
            entity_ids = graph.upsert_nodes(NodeKind.ENTITY, entities)
            graph.add_edge(EdgeKind.DOCUMENT, members=term_ids + entity_ids, doc_id=doc.doc_id)
            for entity, entity_id in zip(entities, entity_ids):
                if entity_id in named:
                    continue
                named.add(entity_id)
                name_terms = list(dict.fromkeys(tokenize(entity)))
                if not name_terms:
                    raise InputError(f"entity name {entity!r} has no tokens")
                name_ids = graph.upsert_nodes(NodeKind.TERM, name_terms)
                graph.add_edge(EdgeKind.CONTAINED_IN, tail=name_ids, head=[entity_id])
            if len(entity_ids) >= 2:
                graph.add_edge(EdgeKind.RELATED_TO, members=entity_ids)
        if variant is not Variant.BASE:
            extend_synonyms(graph, lexicon)
            context_sims = extend_context(graph, embeddings)
            if variant is Variant.WEIGHTED:
                compute_weights(graph, context_sims)
        return graph.freeze()


def extend_synonyms(graph: Hypergraph, lexicon: Iterable[Sequence[str]]) -> int:
    """Add one Synonym edge per synset that overlaps the graph vocabulary.

    Synset members missing from the graph are created as term nodes, so each
    label must be one token as `tokenize` keeps it. Returns the number of
    Synonym edges added.
    """
    added = 0
    for synset in lexicon:
        labels = tuple(dict.fromkeys(synset))
        if len(labels) < 2:
            raise InputError("a synset needs at least two distinct labels")
        for label in labels:
            if tokenize(label) != [label]:
                raise InputError(f"synonym label {label!r} is not one token")
        if not any(graph.node_id(NodeKind.TERM, label) is not None for label in labels):
            continue
        node_ids = graph.upsert_nodes(NodeKind.TERM, labels)
        before = len(graph.edges)
        graph.add_edge(EdgeKind.SYNONYM, members=node_ids)
        added += len(graph.edges) - before
    return added


def extend_context(
    graph: Hypergraph, embeddings: Mapping[str, np.ndarray]
) -> dict[int, list[float]]:
    """Add Context edges linking each embedded term to its nearest neighbours.

    Neighbour search is exact brute force over the embedded part of the
    graph vocabulary. A term picks up to CONTEXT_MAX_NEIGHBOURS other terms
    with cosine similarity strictly above CONTEXT_SIM_THRESHOLD; ties break
    on the label. The similarities are computed into one reused block of
    at most SIMILARITY_BLOCK_BYTES, as many rows at a time as fit (all of
    them up to 1,024 terms), and each term's neighbours are selected from
    its row by repeated argmax, so the candidates are never sorted. Returns
    each Context edge id's similarities, capped at 1.0, one per (term,
    neighbour) pair recorded for it in term order; the graph keeps none.

    The similarities come from a BLAS matrix product, whose last bits
    depend on the whole call: the BLAS build, the CPU, the thread count and
    the block's shape. The neighbours picked move only on a near-tie, but
    the Context weights, and so a weighted index, are reproducible byte for
    byte only under the same numpy and BLAS build, CPU and thread count.
    """
    vocab = sorted(
        node.label
        for node in graph.nodes
        if node.kind is NodeKind.TERM and node.label in embeddings
    )
    if len(vocab) < 2:
        return {}
    matrix = np.stack([np.asarray(embeddings[label], dtype=np.float64) for label in vocab])
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(matrix, axis=1)
    usable = np.isfinite(norms) & (norms > 0.0)
    # A finite non-zero row whose norm over- or underflows is first divided
    # by its largest |component|; every other row keeps its bits.
    rescale = ~usable & np.isfinite(matrix).all(axis=1) & matrix.any(axis=1)
    if rescale.any():
        rows = matrix[rescale]
        rows /= np.abs(rows).max(axis=1, keepdims=True)
        matrix[rescale] = rows
        norms[rescale] = np.linalg.norm(rows, axis=1)
    if not np.all(usable | rescale):
        raise InputError("embeddings contain a zero or non-finite vector")
    matrix = matrix / norms[:, None]
    term_ids = [graph.node_id(NodeKind.TERM, label) for label in vocab]
    n = len(vocab)
    # BLAS rounds the product differently with the block's row count (and its
    # thread count), so another budget moves the last bits of a weighted index.
    chunk = max(1, min(n, SIMILARITY_BLOCK_BYTES // (8 * n)))
    block = np.empty((chunk, n))
    context_sims: dict[int, list[float]] = {}
    for start in range(0, n, chunk):
        sims = np.matmul(matrix[start : start + chunk], matrix.T, out=block[: n - start])
        rows = np.arange(len(sims))
        sims[rows, start + rows] = -np.inf
        # vocab is sorted and argmax returns the first maximum, so the passes
        # pick each row's columns in (-similarity, label) order.
        passes = []
        for _ in range(CONTEXT_MAX_NEIGHBOURS):
            cols = sims.argmax(axis=1)
            passes.append(zip(cols.tolist(), sims[rows, cols].tolist()))
            sims[rows, cols] = -np.inf
        for row, nearest in enumerate(zip(*passes)):
            chosen = [(j, sim) for j, sim in nearest if sim > CONTEXT_SIM_THRESHOLD]
            if not chosen:
                continue
            members = [term_ids[start + row], *(term_ids[j] for j, _ in chosen)]
            edge_id = graph.add_edge(EdgeKind.CONTEXT, members=members)
            context_sims.setdefault(edge_id, []).extend(min(sim, 1.0) for _, sim in chosen)
    return context_sims


def compute_weights(graph: Hypergraph, context_sims: Mapping[int, Sequence[float]]) -> None:
    """Assign node and edge weights in place; all weights land in (0, 1].

    Node weight is the logistic function of the inverse document frequency,
    sigmoid(log(N / df)), which simplifies to N / (N + df), where df is the
    number of Document edges holding the node. Nodes in no Document edge
    (synonym-added vocabulary, entity name terms) take the df -> 0 limit of 1.0.
    Edge weights: Document 0.5, ContainedIn 1/|tail|, Synonym 1/|members|,
    Context the mean of its `context_sims` entry, RelatedTo the mean over
    member entities of the fraction of all other entities they co-occur with.
    """
    df = [0] * len(graph.nodes)
    for edge in graph.edges:
        if edge.kind is EdgeKind.DOCUMENT:
            for member in edge.members:
                df[member] += 1
    n_docs = graph.doc_count
    for node, count in zip(graph.nodes, df):
        node.weight = n_docs / (n_docs + count) if count else 1.0

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
            sims = context_sims.get(edge.edge_id)
            if not sims:
                raise InternalError(f"context edge {edge.edge_id} has no recorded similarities")
            edge.weight = min(math.fsum(sims) / len(sims), 1.0)
        elif edge.kind is EdgeKind.RELATED_TO:
            if entity_total < 2:
                raise InternalError("RelatedTo edge in a graph with fewer than two entities")
            fractions = [
                len(related_partners.get(member, ())) / (entity_total - 1)
                for member in edge.members
            ]
            edge.weight = math.fsum(fractions) / len(fractions)
