"""Hand-built graphs and corpora used by the acceptance suite."""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from hgoe import EdgeKind, Hypergraph, NodeKind, Variant

STAR_EDGE_WEIGHTS = (0.8, 0.2, 0.6, 0.4)

# Sizes ascend while labels are scrambled, so a lexicographic tie-break
# can never masquerade as rank agreement.
ANTENNA_SIZES = (2, 3, 4, 6, 8, 11, 15, 20, 27, 36, 48, 64)
ANTENNA_LABELS = ("r08", "r03", "r11", "r06", "r01", "r09", "r04", "r12", "r02", "r10", "r05", "r07")


def star_graph(weighted: bool = False):
    """Two query terms, four documents, one shared.

    Walks of length one starting from the two term nodes visit each
    document with a probability that can be read straight off the edge
    fan-out, which makes the exact score distribution computable by hand:

      unweighted: alpha picks d1/d2/d3 uniformly, beta picks d3/d4
      weighted:   alpha picks with probs 0.5/0.125/0.375, beta 0.6/0.4

    Returns the frozen graph and the expected score per document.
    """
    graph = Hypergraph(Variant.WEIGHTED if weighted else Variant.BASE)
    ids = {name: graph.upsert_node(NodeKind.TERM, name)
           for name in ("alpha", "beta", "m1", "m2", "m3", "m4")}
    edges = [
        graph.add_edge(EdgeKind.DOCUMENT, members=[ids["alpha"], ids["m1"]], doc_id="d1"),
        graph.add_edge(EdgeKind.DOCUMENT, members=[ids["alpha"], ids["m2"]], doc_id="d2"),
        graph.add_edge(EdgeKind.DOCUMENT, members=[ids["alpha"], ids["beta"], ids["m3"]], doc_id="d3"),
        graph.add_edge(EdgeKind.DOCUMENT, members=[ids["beta"], ids["m4"]], doc_id="d4"),
    ]
    if weighted:
        for edge_id, weight in zip(edges, STAR_EDGE_WEIGHTS):
            graph.edges[edge_id].weight = weight
        for node_id in ids.values():
            graph.nodes[node_id].weight = 0.5
        alpha = [w / 1.6 for w in STAR_EDGE_WEIGHTS[:3]]
        beta = [0.6, 0.4]
    else:
        alpha = [1 / 3] * 3
        beta = [1 / 2] * 2
    graph.freeze()
    expected = {
        "d1": alpha[0] / 2,
        "d2": alpha[1] / 2,
        "d3": (alpha[2] + beta[0]) / 2,
        "d4": beta[1] / 2,
    }
    return graph, expected


def antenna_graph() -> Hypergraph:
    """A hub term fanning out to documents of sharply different sizes.

    Every walk leaves the hub over a synonym spoke picked uniformly, so
    the chance of then stepping through a document edge grows with the
    document's antenna count.  The true ranking is by size descending;
    short runs only approximate it, long runs nail it.
    """
    graph = Hypergraph(Variant.BASE)
    hub = graph.upsert_node(NodeKind.TERM, "hub")
    for size, label in zip(ANTENNA_SIZES, ANTENNA_LABELS):
        antennas = [graph.upsert_node(NodeKind.TERM, f"{label}x{j:02d}") for j in range(size)]
        for antenna in antennas:
            graph.add_edge(EdgeKind.SYNONYM, members=[hub, antenna])
        graph.add_edge(EdgeKind.DOCUMENT, members=antennas, doc_id=label)
    graph.freeze()
    return graph


def dense_funnel_graph() -> Hypergraph:
    """A large dense core plus thirty tiny entity funnels.

    The core supplies the node count and the high mean degree.  The
    funnels are what queries actually reach: each entity sits in two
    two-term documents, so walks seeded at an entity can only ever
    touch a handful of nodes and a node fatigue window quickly runs
    the walker out of eligible targets.
    """
    graph = Hypergraph(Variant.BASE)
    rng = np.random.default_rng(7)
    core = [graph.upsert_node(NodeKind.TERM, f"c{i:03d}") for i in range(970)]
    for j in range(30):
        picks = rng.choice(len(core), size=150, replace=False)
        graph.add_edge(EdgeKind.DOCUMENT,
                       members=[core[int(i)] for i in picks],
                       doc_id=f"core{j:02d}")
    for i in range(30):
        label = f"topic{i:02d}"
        entity = graph.upsert_node(NodeKind.ENTITY, label)
        name_term = graph.upsert_node(NodeKind.TERM, label)
        graph.add_edge(EdgeKind.CONTAINED_IN, tail=[name_term], head=[entity])
        for half in ("a", "b"):
            first = graph.upsert_node(NodeKind.TERM, f"f{i:02d}{half}1")
            second = graph.upsert_node(NodeKind.TERM, f"f{i:02d}{half}2")
            graph.add_edge(EdgeKind.DOCUMENT,
                           members=[first, second, entity],
                           doc_id=f"leaf{i:02d}{half}")
    graph.freeze()
    return graph


def mean_distinct_degree(graph: Hypergraph) -> float:
    """Mean over nodes of the number of distinct co-occurring nodes."""
    neighbours: list[set[int]] = [set() for _ in graph.nodes]
    for edge in graph.edges:
        touched = (*edge.members, *edge.tail, *edge.head)
        for node_id in touched:
            neighbours[node_id].update(touched)
    total = sum(len(found - {node_id}) for node_id, found in enumerate(neighbours))
    return total / len(graph.nodes)


SWEEP_TOPIC_COUNT = 10


def write_sweep_fixture(root: Path) -> dict[str, Path]:
    """A ten-topic retrieval testbed written as CLI input files.

    Per topic: five documents linked to both topic entities (relevant),
    eight linked only to the first and seven only to the second (all
    judged non-relevant).  Texts share the three topic terms, the
    lexicon aliases the third term, and the embeddings plant a 0.7
    cosine pair so the enriched variants gain real synonym and context
    edges.  Document ids are shuffled across topics.
    """
    rng = np.random.default_rng(42)
    order = rng.permutation(SWEEP_TOPIC_COUNT * 20)
    corpus_lines = []
    topic_lines = []
    qrels_lines = []
    lexicon_lines = []
    embedding_words: list[tuple[str, np.ndarray]] = []
    position = 0
    for t in range(SWEEP_TOPIC_COUNT):
        topic_id = f"q{t:02d}"
        entity_a, entity_b = f"topica{t:02d}", f"topicb{t:02d}"
        terms = [f"t{t:02d}a", f"t{t:02d}b", f"t{t:02d}c"]
        text = " ".join(terms)
        topic_lines.append(f"{topic_id}\t{entity_a} {entity_b}")
        lexicon_lines.append(f"{terms[2]}\talias{t:02d}")
        base = _unit(rng, 16)
        partner = _with_cosine(rng, base, 0.7)
        embedding_words.append((terms[0], base))
        embedding_words.append((terms[1], partner))
        embedding_words.append((terms[2], _unit(rng, 16)))
        groups = [([entity_a, entity_b], 1)] * 5 + [([entity_a], 0)] * 8 + [([entity_b], 0)] * 7
        for links, grade in groups:
            doc_id = f"D{int(order[position]):03d}"
            position += 1
            corpus_lines.append(json.dumps({"id": doc_id, "text": text, "links": links}))
            qrels_lines.append(f"{topic_id} 0 {doc_id} {grade}")
    paths = {
        "corpus": root / "corpus.jsonl",
        "topics": root / "topics.tsv",
        "qrels": root / "qrels.txt",
        "lexicon": root / "lexicon.tsv",
        "embeddings": root / "vectors.txt",
    }
    paths["corpus"].write_text("\n".join(corpus_lines) + "\n", encoding="utf-8")
    paths["topics"].write_text("\n".join(topic_lines) + "\n", encoding="utf-8")
    paths["qrels"].write_text("\n".join(qrels_lines) + "\n", encoding="utf-8")
    paths["lexicon"].write_text("\n".join(lexicon_lines) + "\n", encoding="utf-8")
    vector_lines = [f"{len(embedding_words)} 16"]
    for word, vector in embedding_words:
        vector_lines.append(word + " " + " ".join(f"{x:.6f}" for x in vector))
    paths["embeddings"].write_text("\n".join(vector_lines) + "\n", encoding="utf-8")
    return paths


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    vector = rng.normal(size=dim)
    return vector / np.linalg.norm(vector)


def _with_cosine(rng: np.random.Generator, base: np.ndarray, target: float) -> np.ndarray:
    raw = rng.normal(size=base.shape[0])
    ortho = raw - (raw @ base) * base
    ortho /= np.linalg.norm(ortho)
    return target * base + np.sqrt(1.0 - target * target) * ortho
