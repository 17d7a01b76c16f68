"""Readers and writers for the text exchange formats.

Run files use the six-column TREC layout "topicId Q0 docId rank score
runTag", qrels the four-column "topicId 0 docId grade", and topics a
two-column tab-separated "topicId<TAB>query" file.
"""
from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Iterator, Sequence, TextIO

from .errors import FormatError, InputError


@contextmanager
def open_text(path: str) -> Iterator[TextIO]:
    """Open a UTF-8 text input; bytes that are not UTF-8 raise FormatError naming path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not valid UTF-8") from exc


def format_run_lines(
    topic_id: str, entries: Sequence[tuple[str, float]], tag: str = "hgoe"
) -> list[str]:
    """Render one topic's scored documents as run-file lines."""
    return [
        f"{topic_id} Q0 {doc_id} {rank} {score:.6f} {tag}"
        for rank, (doc_id, score) in enumerate(entries, start=1)
    ]


def check_token(kind: str, value: str, where: str = "") -> None:
    """Raise InputError unless value is one whitespace-free token, as read_run splits a line.

    `kind` names the value in the message and `where` ("path:line: ") places it.
    """
    if value.split() != [value]:
        raise InputError(f"{where}a run file cannot hold {kind} {value!r}: it is not one token")


def write_run(
    out: TextIO | str, run: dict[str, Sequence[tuple[str, float]]], tag: str = "hgoe"
) -> None:
    """Write run lines for every topic, in the order of `run`, to a stream or a file path.

    read_run splits lines on whitespace, so unless the tag and every id are
    one whitespace-free token, InputError is raised before any line is
    written and before a path is opened: a file already there is kept.
    The corpus and topic readers reject such ids, but `index_corpus` accepts
    any CorpusDocument, and none of `add_edge`, `save` and `load` requires a
    doc id to be one token, so an index can hold a doc id with whitespace.
    """
    fields = [("run tag", tag), *(("topic id", topic_id) for topic_id in run)]
    fields += (("doc id", doc_id) for entries in run.values() for doc_id, _ in entries)
    for kind, value in fields:
        check_token(kind, value)
    with open(out, "w", encoding="utf-8") if isinstance(out, str) else nullcontext(out) as fh:
        for topic_id in run:
            for line in format_run_lines(topic_id, run[topic_id], tag):
                fh.write(line + "\n")


def read_run(path: str) -> dict[str, list[tuple[str, float]]]:
    """Parse a run file into topic -> [(doc id, score)] in rank order."""
    staged: dict[str, list[tuple[int, str, float]]] = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 6:
                raise FormatError(f"{path}:{lineno}: expected 6 columns, found {len(parts)}")
            topic_id, _, doc_id, rank_text, score_text, _ = parts
            try:
                rank = int(rank_text)
                score = float(score_text)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: bad rank or score") from exc
            staged.setdefault(topic_id, []).append((rank, doc_id, score))
    run: dict[str, list[tuple[str, float]]] = {}
    for topic_id, rows in staged.items():
        rows.sort()
        seen = set()
        for _, doc_id, _ in rows:
            if doc_id in seen:
                raise InputError(f"{path}: duplicate document {doc_id!r} in topic {topic_id!r}")
            seen.add(doc_id)
        run[topic_id] = [(doc_id, score) for _, doc_id, score in rows]
    return run


def read_qrels(path: str) -> dict[str, dict[str, int]]:
    """Parse relevance judgements into topic -> {doc id: grade}."""
    qrels: dict[str, dict[str, int]] = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 4:
                raise FormatError(f"{path}:{lineno}: expected 4 columns, found {len(parts)}")
            topic_id, _, doc_id, grade_text = parts
            try:
                grade = int(grade_text)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: grade must be an integer") from exc
            by_doc = qrels.setdefault(topic_id, {})
            if doc_id in by_doc:
                raise InputError(
                    f"{path}:{lineno}: duplicate judgement for topic {topic_id!r} doc {doc_id!r}"
                )
            by_doc[doc_id] = grade
    return qrels


def read_topics(path: str) -> list[tuple[str, str]]:
    """Parse a topics file into (topic id, query) pairs in file order."""
    topics: list[tuple[str, str]] = []
    seen = set()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise FormatError(f"{path}:{lineno}: expected 'topicId<TAB>query'")
            topic_id, query = line.split("\t", 1)
            if not topic_id or not query.strip():
                raise FormatError(f"{path}:{lineno}: empty topic id or query")
            check_token("topic id", topic_id, f"{path}:{lineno}: ")
            if topic_id in seen:
                raise InputError(f"{path}:{lineno}: duplicate topic id {topic_id!r}")
            seen.add(topic_id)
            topics.append((topic_id, query.strip()))
    return topics
