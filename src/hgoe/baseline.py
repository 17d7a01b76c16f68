"""Inverted index baselines: TF-IDF and BM25."""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .errors import InputError
from .indexer import CorpusDocument, tokenize
from .ranking import Ranking

BM25_K1 = 1.2
BM25_B = 0.75


@dataclass
class InvertedIndex:
    postings: dict[str, list[tuple[str, int]]]
    doc_len: dict[str, int]
    doc_count: int
    avgdl: float


def build_inverted(documents: Sequence[CorpusDocument]) -> InvertedIndex:
    postings: dict[str, list[tuple[str, int]]] = {}
    doc_len: dict[str, int] = {}
    for doc in documents:
        if doc.doc_id in doc_len:
            raise InputError(f"duplicate document id {doc.doc_id!r}")
        tokens = tokenize(doc.text)
        doc_len[doc.doc_id] = len(tokens)
        for term, tf in Counter(tokens).items():
            postings.setdefault(term, []).append((doc.doc_id, tf))
    for plist in postings.values():
        plist.sort()
    n = len(doc_len)
    avgdl = sum(doc_len.values()) / n if n else 0.0
    return InvertedIndex(postings, doc_len, n, avgdl)


def search_tfidf(index: InvertedIndex, query: str, k: int = 10) -> Ranking:
    """score(d) = sum over query terms of tf * (1 + log(N / (1 + df)))."""
    if k < 1:
        raise InputError("k must be at least 1")
    if index.doc_count == 0:
        return Ranking()
    scores: dict[str, float] = {}
    for term in tokenize(query):
        plist = index.postings.get(term)
        if not plist:
            continue
        idf = 1.0 + math.log(index.doc_count / (1.0 + len(plist)))
        for doc_id, tf in plist:
            scores[doc_id] = scores.get(doc_id, 0.0) + tf * idf
    return _top_k(scores, k)


def search_bm25(index: InvertedIndex, query: str, k: int = 10) -> Ranking:
    """Okapi BM25 with k1 = BM25_K1 and b = BM25_B."""
    if k < 1:
        raise InputError("k must be at least 1")
    if index.doc_count == 0:
        return Ranking()
    scores: dict[str, float] = {}
    for term in tokenize(query):
        plist = index.postings.get(term)
        if not plist:
            continue
        df = len(plist)
        idf = math.log((index.doc_count - df + 0.5) / (df + 0.5) + 1.0)
        for doc_id, tf in plist:
            norm = BM25_K1 * (1.0 - BM25_B + BM25_B * index.doc_len[doc_id] / index.avgdl)
            scores[doc_id] = scores.get(doc_id, 0.0) + idf * tf * (BM25_K1 + 1.0) / (tf + norm)
    return _top_k(scores, k)


def _top_k(scores: dict[str, float], k: int) -> Ranking:
    entries = [(doc_id, score) for doc_id, score in scores.items() if score > 0.0]
    entries.sort(key=lambda item: (-item[1], item[0]))
    return Ranking(entries[:k])
