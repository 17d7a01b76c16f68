"""Seeded input generator for the benchmark workloads.

One seed gives one corpus, one topic stream, the qrels of every topic, a
synonym lexicon and a clustered embedding table of the terms in two or more
documents, written as the files the `hgoe` CLI reads. Every draw comes from
`numpy.random.default_rng(seed)` and every set or counter is sorted before it
is drawn from, so the files are the same under any PYTHONHASHSEED.

Corpus recipe: each document holds `terms_per_doc` Zipf(`zipf_a`) draws mod
`vocab`, written as tokens `t<i>`, and links 0..`max_links` of `entities`
entities named `Ent <i>`. Each of `funnels` funnel entities `Funnel<k>` is
linked by two documents of two terms that occur nowhere else.

Topics come round-robin in five classes:
  hub     a top-30 df term plus a mid term
  mid     a term of df rank 100..999
  tail    a term of df 2..5
  entity  a mid term plus the name-number token of an entity one of its documents links
  funnel  a funnel entity's name token
Terms are taken at fixed df-rank positions (see STRATA), so every prefix of
5 x STRATA topics has the same df profile whatever the seed; the seed decides
the corpus, and so which term holds each position.
A document is relevant to a topic when its tokens (text and linked entity
names) include every query token.
"""
from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np


CLASSES = ("hub", "mid", "tail", "entity", "funnel")
STRATA = 20  # the k-th topic of a class takes a term from df slice k % STRATA of its candidates


def tokenize(text: str) -> list[str]:
    """Generated text is lowercase-able ASCII words, so splitting matches hgoe's tokenizer."""
    return text.lower().split()


@dataclass(frozen=True)
class CorpusSize:
    docs: int = 5000
    terms_per_doc: int = 60
    zipf_a: float = 1.3
    vocab: int = 20000
    entities: int = 2000
    max_links: int = 3
    funnels: int = 30
    hub_rank: int = 30
    mid_ranks: tuple[int, int] = (100, 1000)
    tail_df: tuple[int, int] = (2, 5)
    synsets: int = 2000
    clusters: int = 1500
    dim: int = 16
    noise: float = 0.35


FULL = CorpusSize()
SMOKE = CorpusSize(docs=400, vocab=3000, entities=150, funnels=6, hub_rank=10,
                   mid_ranks=(20, 200), synsets=150, clusters=120)


@dataclass(frozen=True)
class Inputs:
    corpus: Path
    topics: Path
    qrels: Path
    lexicon: Path
    embeddings: Path
    classes: list[str]

    def digest(self) -> str:
        h = hashlib.sha256()
        for path in (self.corpus, self.topics, self.qrels, self.lexicon, self.embeddings):
            h.update(path.read_bytes())
        return h.hexdigest()


def generate(seed: int, n_topics: int, out_dir: Path, size: CorpusSize = FULL) -> Inputs:
    """Write the inputs for `seed` into out_dir; the first n_topics topics are kept."""
    rng = np.random.default_rng(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    docs = _corpus(rng, size)
    df = Counter(t for _, text, _ in docs for t in set(tokenize(text)))
    docs_with: dict[str, list[str]] = {}
    for doc_id, text, links in docs:
        for token in sorted(set(tokenize(" ".join([text, *links])))):
            docs_with.setdefault(token, []).append(doc_id)
    topics, classes = _topics(rng, size, docs, df, docs_with, n_topics)
    qrels = [
        (topic_id, sorted(set.intersection(*(set(docs_with[t]) for t in set(tokenize(query))))))
        for topic_id, query in topics
    ]
    vocab = sorted(df)
    inputs = Inputs(out_dir / "corpus.jsonl", out_dir / "topics.tsv", out_dir / "qrels.txt",
                    out_dir / "lexicon.tsv", out_dir / "vectors.txt", classes)
    with open(inputs.corpus, "w", encoding="utf-8") as fh:
        for doc_id, text, links in docs:
            fh.write(json.dumps({"id": doc_id, "text": text, "links": links}) + "\n")
    with open(inputs.topics, "w", encoding="utf-8") as fh:
        for topic_id, query in topics:
            fh.write(f"{topic_id}\t{query}\n")
    with open(inputs.qrels, "w", encoding="utf-8") as fh:
        for topic_id, relevant in qrels:
            for doc_id in relevant:
                fh.write(f"{topic_id} 0 {doc_id} 1\n")
    _write_lexicon(rng, size, vocab, inputs.lexicon)
    # Like a real embedding table, this one lacks the rarest words.
    _write_embeddings(rng, size, [t for t in vocab if df[t] >= 2], inputs.embeddings)
    return inputs


def _corpus(rng: np.random.Generator, size: CorpusSize) -> list[tuple[str, str, list[str]]]:
    terms = rng.zipf(size.zipf_a, size=(size.docs, size.terms_per_doc)) % size.vocab
    n_links = rng.integers(0, size.max_links + 1, size=size.docs)
    docs = []
    for i in range(size.docs):
        linked = rng.choice(size.entities, size=int(n_links[i]), replace=False)
        docs.append((
            f"d{i:05d}",
            " ".join(f"t{x}" for x in terms[i]),
            [f"Ent {e}" for e in linked],
        ))
    for k in range(size.funnels):
        for half in ("a", "b"):
            docs.append((f"f{k:02d}{half}", f"f{k:02d}{half}1 f{k:02d}{half}2", [f"Funnel{k:02d}"]))
    return docs


def _topics(rng, size, docs, df, docs_with, n_topics):
    ranked = sorted(df, key=lambda t: (-df[t], t))
    hubs = ranked[: size.hub_rank]
    mids = ranked[size.mid_ranks[0] : size.mid_ranks[1]]
    tails = [t for t in ranked if size.tail_df[0] <= df[t] <= size.tail_df[1]]
    entity_links = {doc_id: [e for e in links if e.startswith("Ent ")] for doc_id, _, links in docs}
    funnel_order = [int(k) for k in rng.permutation(size.funnels)]

    def stratum(candidates: list[str], k: int) -> str:
        """The k-th pick from candidates in df order: a fixed point of slice k % STRATA.

        Picking by df position, not at random, keeps the df profile of every
        class, and so the walk cost of a topic set, the same from seed to
        seed; the seed still decides which term holds each position.
        """
        j, r = k % STRATA, k // STRATA
        lo = j * len(candidates) // STRATA
        hi = max((j + 1) * len(candidates) // STRATA, lo + 1)
        return candidates[lo + int((0.5 + 0.618034 * r) % 1.0 * (hi - lo))]

    def entity_with(mid: str) -> str | None:
        linked = [e for d in docs_with[mid] for e in entity_links.get(d, ())]
        return linked[int(rng.integers(len(linked)))].split()[1] if linked else None

    topics, classes, used = [], [], set()
    for i in range(n_topics):
        cls = CLASSES[i % len(CLASSES)]
        k = i // len(CLASSES)
        for _ in range(100):
            if cls == "hub":
                query = f"{stratum(hubs, k)} {stratum(mids, k + STRATA // 2)}"
            elif cls == "mid":
                query = stratum(mids, k)
            elif cls == "tail":
                query = stratum(tails, k)
            elif cls == "entity":
                mid = stratum(mids, k + STRATA // 4)
                number = entity_with(mid)
                query = f"{number} {mid}" if number else ""
            else:
                query = f"funnel{funnel_order[k % len(funnel_order)]:02d}"
            if query and (query not in used or cls == "funnel"):
                break
        used.add(query)
        topics.append((f"q{i:03d}", query))
        classes.append(cls)
    return topics, classes


def _write_lexicon(rng, size, vocab, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(size.synsets):
            n = int(rng.integers(2, 4))
            picks = rng.choice(len(vocab), size=n, replace=False)
            fh.write("\t".join(vocab[int(j)] for j in picks) + "\n")


def _write_embeddings(rng, size, vocab, path: Path) -> None:
    centres = rng.normal(size=(size.clusters, size.dim))
    assign = rng.integers(0, size.clusters, size=len(vocab))
    vectors = centres[assign] + size.noise * rng.normal(size=(len(vocab), size.dim))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(vocab)} {size.dim}\n")
        for word, vec in zip(vocab, vectors):
            fh.write(word + " " + " ".join(f"{x:.5f}" for x in vec) + "\n")
