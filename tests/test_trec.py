"""Run file, qrels and topics parsing."""
from __future__ import annotations

import io
import re

import pytest

from hgoe import FormatError, InputError, cli
from hgoe.indexer import load_corpus, load_embeddings, load_synonyms
from hgoe.trec import format_run_lines, read_qrels, read_run, read_topics, write_run


def test_format_run_lines():
    lines = format_run_lines("t1", [("docB", 0.5), ("docA", 0.25)], tag="mytag")
    assert lines == [
        "t1 Q0 docB 1 0.500000 mytag",
        "t1 Q0 docA 2 0.250000 mytag",
    ]


def test_write_and_read_run_round_trip(tmp_path):
    run = {
        "t2": [("a", 0.75), ("b", 0.25)],
        "t1": [("c", 1.0)],
    }
    path = tmp_path / "run.txt"
    with open(path, "w", encoding="utf-8") as fh:
        write_run(fh, run, tag="round")
    loaded = read_run(str(path))
    assert loaded == {
        "t2": [("a", 0.75), ("b", 0.25)],
        "t1": [("c", 1.0)],
    }


def test_write_run_to_text_buffer():
    buffer = io.StringIO()
    write_run(buffer, {"t": [("d", 0.123456789)]})
    assert buffer.getvalue() == "t Q0 d 1 0.123457 hgoe\n"


@pytest.mark.parametrize("run, tag, message", [
    ({"t": [("d", 0.5)]}, "my tag", "run tag 'my tag'"),
    ({"t": [("d", 0.5)]}, "", "run tag ''"),
    ({"t 1": [("d", 0.5)]}, "hgoe", "topic id 't 1'"),
    ({"t": [("d", 0.5), ("doc\t2", 0.25)]}, "hgoe", "doc id 'doc\\t2'"),
    ({"t": [("d", 0.5)], "": []}, "hgoe", "topic id ''"),
    ({"t": [("d", 0.5)], "u": [("d\n", 0.5)]}, "hgoe", "doc id 'd\\n'"),
])
def test_write_run_rejects_fields_read_run_would_split(run, tag, message):
    """Every field must be what line.split() gives back, and nothing is written otherwise."""
    buffer = io.StringIO()
    with pytest.raises(InputError) as err:
        write_run(buffer, run, tag=tag)
    assert message in str(err.value)
    assert buffer.getvalue() == ""


def test_read_run_orders_by_rank_column(tmp_path):
    path = tmp_path / "run.txt"
    path.write_text(
        "t1 Q0 second 2 0.25 tag\n"
        "\n"
        "t1 Q0 first 1 0.75 tag\n",
        encoding="utf-8",
    )
    assert read_run(str(path)) == {"t1": [("first", 0.75), ("second", 0.25)]}


def test_read_run_rejects_malformed_lines(tmp_path):
    path = tmp_path / "run.txt"
    path.write_text("t1 Q0 doc 1 0.5\n", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        read_run(str(path))
    assert ":1" in str(err.value)

    path.write_text("t1 Q0 doc one 0.5 tag\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_run(str(path))


def test_read_run_rejects_duplicate_documents(tmp_path):
    path = tmp_path / "run.txt"
    path.write_text(
        "t1 Q0 doc 1 0.9 tag\nt1 Q0 doc 2 0.1 tag\n",
        encoding="utf-8",
    )
    with pytest.raises(InputError):
        read_run(str(path))


def test_read_qrels(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text(
        "t1 0 docA 1\n"
        "t1 0 docB 0\n"
        "t2 0 docA 2\n",
        encoding="utf-8",
    )
    assert read_qrels(str(path)) == {
        "t1": {"docA": 1, "docB": 0},
        "t2": {"docA": 2},
    }


def test_read_qrels_skips_blank_lines(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("\nt1 0 docA 1\n  \n\nt2 0 docB 0\n\n", encoding="utf-8")
    assert read_qrels(str(path)) == {"t1": {"docA": 1}, "t2": {"docB": 0}}


@pytest.mark.parametrize("content,error", [
    ("t1 0 docA\n", FormatError),
    ("t1 0 docA one\n", FormatError),
    ("t1 0 docA 1\nt1 0 docA 0\n", InputError),
])
def test_read_qrels_rejects_bad_lines(tmp_path, content, error):
    path = tmp_path / "qrels.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(error):
        read_qrels(str(path))


def test_read_topics(tmp_path):
    path = tmp_path / "topics.tsv"
    path.write_text(
        "t1\tfirst query\n"
        "\n"
        "t2\tsecond\tquery with a tab\n",
        encoding="utf-8",
    )
    # only the first tab separates the id; the rest belongs to the query
    assert read_topics(str(path)) == [
        ("t1", "first query"),
        ("t2", "second\tquery with a tab"),
    ]


@pytest.mark.parametrize("content,error", [
    ("no tab here\n", FormatError),
    ("t1\t \n", FormatError),
    ("\tjust a query\n", FormatError),
    ("t1\tq\nt1\tother\n", InputError),
])
def test_read_topics_rejects_bad_lines(tmp_path, content, error):
    path = tmp_path / "topics.tsv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(error):
        read_topics(str(path))


@pytest.mark.parametrize("reader, good, bad, message", [
    (read_run, "t1 Q0 d1 1 0.5 tag", "t1 Q0 d2 2", "expected 6 columns, found 4"),
    (read_qrels, "t1 0 d1 1", "t1 0 d2", "expected 4 columns, found 3"),
    (read_topics, "t1\tquery", "t2 no tab", "expected 'topicId<TAB>query'"),
    (load_corpus, '{"id": "d1", "text": "a"}', '{"id": 2, "text": "b"}',
     "'id' must be a non-empty string"),
    (load_synonyms, "sun\tstar", "sun\tsun", "a synset needs at least two distinct labels"),
], ids=["run", "qrels", "topics", "corpus", "lexicon"])
def test_a_line_based_reader_names_a_bad_line_after_blank_ones_by_its_own_number(
        tmp_path, reader, good, bad, message):
    path = tmp_path / "input.txt"
    path.write_text(f"{good}\n\n \t\n{bad}\n", encoding="utf-8")
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path}:4: {message}')}$"):
        reader(str(path))


@pytest.mark.parametrize("reader, text", [
    (read_run, "t1 Q0 d1 1 0.5 tag\n"),
    (read_qrels, "t1 0 d1 1\n"),
    (read_topics, "t1\tquery\n"),
    (load_corpus, '{"id": "d1", "text": "a"}\n'),
    (load_synonyms, "sun\tstar\n"),
    (lambda path: {word: list(vector) for word, vector in load_embeddings(path).items()},
     "1 2\nsun 1 0\n"),
    (lambda path: cli._parse_args(["index", "--config", path]).corpus, '{"corpus": "c.jsonl"}'),
], ids=["run", "qrels", "topics", "corpus", "lexicon", "embeddings", "config"])
def test_a_leading_byte_order_mark_is_dropped(tmp_path, reader, text):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert reader(str(plain))
    assert reader(str(marked)) == reader(str(plain))
