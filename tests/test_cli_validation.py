"""Bad input to the command line interface ends in exit code 2 and one
"error:" line, never in a traceback."""
from __future__ import annotations

import json

import pytest

from hgoe import ConfigError, cli

CORPUS = (
    '{"id": "d1", "text": "solar panels power the grid", "links": ["Solar Power"]}\n'
    '{"id": "d2", "text": "wind turbines power the grid", "links": ["Wind Power"]}\n'
)


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "corpus.jsonl").write_text(CORPUS, encoding="utf-8")
    (tmp_path / "topics.tsv").write_text("t1\tsolar power\n", encoding="utf-8")
    (tmp_path / "empty.tsv").write_text("\n", encoding="utf-8")
    (tmp_path / "qrels.txt").write_text("t1 0 d1 1\n", encoding="utf-8")
    return tmp_path


def test_search_with_no_topics_exits_2(workspace, capsys):
    assert cli.main([
        "search", "--corpus", str(workspace / "corpus.jsonl"),
        "--topics", str(workspace / "empty.tsv"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no topics" in err


def test_sweep_with_no_topics_exits_2(workspace, capsys):
    assert cli.main([
        "sweep", "--corpus", str(workspace / "corpus.jsonl"),
        "--topics", str(workspace / "empty.tsv"), "--qrels", str(workspace / "qrels.txt"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no topics" in err


@pytest.mark.parametrize("command, key, value", [
    ("index", "variant", "nope"),
    ("sweep", "variants", "base"),
    ("sweep", "repeats", "lots"),
    ("sweep", "length", 2.7),
    ("sweep", "repeats", True),
])
def test_bad_config_value_is_a_config_error(workspace, capsys, command, key, value):
    inputs = {"corpus": str(workspace / "corpus.jsonl"), "out": str(workspace / "out.hgoe")}
    if command == "sweep":
        inputs.update(topics=str(workspace / "topics.tsv"), qrels=str(workspace / "qrels.txt"),
                      out=str(workspace))
    config = workspace / "config.json"
    config.write_text(json.dumps({**inputs, key: value}), encoding="utf-8")
    argv = [command, "--config", str(config)]
    with pytest.raises(ConfigError, match=key):
        cli._parse_args(argv)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1 and repr(key) in err
    assert not (workspace / "out.hgoe").exists() and not (workspace / "sweep.csv").exists()


def sweep_config(workspace, **keys):
    """A sweep config over the workspace's corpus, topics and qrels, plus `keys`."""
    config = workspace / "config.json"
    config.write_text(json.dumps({
        "corpus": str(workspace / "corpus.jsonl"),
        "topics": str(workspace / "topics.tsv"),
        "qrels": str(workspace / "qrels.txt"),
        **keys,
    }), encoding="utf-8")
    return config


@pytest.mark.parametrize("text, message", [
    ('{"corpus": ', "invalid JSON: "),
    ('["corpus.jsonl"]', "config must be a JSON object"),
    ("7", "config must be a JSON object"),
], ids=["invalid-json", "array", "number"])
@pytest.mark.parametrize("command", ["index", "sweep"])
def test_a_config_file_that_is_not_a_json_object_exits_2(workspace, capsys, command, text,
                                                        message):
    config = workspace / "config.json"
    config.write_text(text, encoding="utf-8")
    assert cli.main([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: {message}") and err.count("\n") == 1


def test_sweep_takes_a_variants_list_from_its_config(workspace, capsys):
    (workspace / "lexicon.tsv").write_text("solar\tsun\n", encoding="utf-8")
    (workspace / "vectors.txt").write_text("2 3\nsolar 1 0 0\nwind 0.9 0.1 0\n",
                                           encoding="utf-8")
    config = sweep_config(workspace, variants=["weighted", "base"], repeats=20,
                          lexicon=str(workspace / "lexicon.tsv"),
                          embeddings=str(workspace / "vectors.txt"),
                          node_fatigue_grid=[0], edge_fatigue_grid=[0])
    assert cli.main(["sweep", "--config", str(config)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[1] for row in rows] == ["variant=weighted", "variant=base"]


def test_a_grid_given_as_a_json_number_exits_2(workspace, capsys):
    config = sweep_config(workspace, node_fatigue_grid=5)
    assert cli.main(["sweep", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "error: node fatigue grid must be a comma list or a JSON array\n")


@pytest.mark.parametrize("grid", [[2.7], [True], [0, None]], ids=["float", "true", "null"])
def test_a_grid_of_json_non_integers_exits_2(workspace, capsys, grid):
    config = sweep_config(workspace, node_fatigue_grid=grid)
    assert cli.main(["sweep", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: node fatigue grid must contain integers\n"


# The keys a sweep config may hold that index has no flag for, each with a
# value sweep itself would take.
SWEEP_ONLY = {
    "variants": ["weighted"], "topics": "topics.tsv", "qrels": "qrels.txt", "length": 3,
    "repeats": 5, "rng_seed": 1, "k": 3, "node_fatigue_grid": [3], "edge_fatigue_grid": "0,3",
}


@pytest.mark.parametrize("key", SWEEP_ONLY)
def test_index_rejects_a_config_key_only_sweep_has(workspace, capsys, key):
    out = workspace / "out.hgoe"
    config = workspace / "config.json"
    config.write_text(json.dumps({
        "corpus": str(workspace / "corpus.jsonl"), "out": str(out), key: SWEEP_ONLY[key],
    }), encoding="utf-8")
    assert cli.main(["index", "--config", str(config)]) == 2
    assert capsys.readouterr() == ("", f"error: {config}: unknown config keys: [{key!r}]\n")
    assert not out.exists()


def test_sweep_rejects_the_variant_key_only_index_has(workspace, capsys):
    config = sweep_config(workspace, out=str(workspace), repeats=5, variant="weighted")
    assert cli.main(["sweep", "--config", str(config)]) == 2
    assert capsys.readouterr() == ("", f"error: {config}: unknown config keys: ['variant']\n")
    assert not (workspace / "sweep.csv").exists()


def test_sweep_without_qrels_exits_2(workspace, capsys):
    assert cli.main([
        "sweep", "--corpus", str(workspace / "corpus.jsonl"),
        "--topics", str(workspace / "topics.tsv"),
    ]) == 2
    assert capsys.readouterr().err == "error: sweep needs --corpus, --topics and --qrels\n"


@pytest.mark.parametrize("flags, message", [
    (["--run-a", "run.txt"], "compare needs both --run-a and --run-b"),
    (["--engine-a", "rws"], "compare needs both --engine-a and --engine-b"),
    (["--engine-a", "rws", "--engine-b", "bm25", "--topics", "topics.tsv", "-m", "0"],
     "repetitions must be at least 1"),
], ids=["run-a-only", "engine-a-only", "no-repetitions"])
def test_compare_with_a_side_or_a_repetition_missing_exits_2(workspace, capsys, flags,
                                                             message):
    flags = [str(workspace / flag) if flag.endswith((".txt", ".tsv")) else flag
             for flag in flags]
    assert cli.main(["compare", "--corpus", str(workspace / "corpus.jsonl"), *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_sweep_rejects_config_keys_only_search_has(workspace, capsys):
    # Fatigue is swept through the grids and the tag belongs to search, so
    # sweep must not accept these keys and then run the default grid.
    config = workspace / "config.json"
    config.write_text(json.dumps({
        "corpus": str(workspace / "corpus.jsonl"),
        "topics": str(workspace / "topics.tsv"),
        "qrels": str(workspace / "qrels.txt"),
        "out": str(workspace),
        "node_fatigue": 5, "edge_fatigue": 7, "tag": "zzz",
    }), encoding="utf-8")
    assert cli.main(["sweep", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown config keys" in err
    assert "'edge_fatigue', 'node_fatigue', 'tag'" in err
    assert not (workspace / "sweep.csv").exists()


@pytest.mark.parametrize("command", ["index", "search", "sweep"])
def test_non_utf8_corpus_exits_2(workspace, capsys, command):
    bad = workspace / "latin1.jsonl"
    bad.write_bytes(b'{"id": "d1", "text": "caf\xff"}\n')
    argv = {
        "index": ["index", "--corpus", str(bad), "--out", str(workspace / "x.hgoe")],
        "search": ["search", "--corpus", str(bad), "--query", "cafe"],
        "sweep": ["sweep", "--corpus", str(bad), "--topics", str(workspace / "topics.tsv"),
                  "--qrels", str(workspace / "qrels.txt")],
    }[command]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {bad}: not valid UTF-8\n"


@pytest.mark.parametrize("reader", ["lexicon", "embeddings", "topics", "qrels", "run", "config"])
def test_non_utf8_input_names_its_file(workspace, capsys, reader):
    bad = workspace / f"bad-{reader}.txt"
    bad.write_bytes(b"t1\tcaf\xff\n")
    corpus, topics, qrels, out = (
        str(workspace / name) for name in ("corpus.jsonl", "topics.tsv", "qrels.txt", "x.hgoe")
    )
    argv = {
        "lexicon": ["index", "--corpus", corpus, "--variant", "syns-context",
                    "--lexicon", str(bad), "--out", out],
        "embeddings": ["index", "--corpus", corpus, "--variant", "syns-context",
                       "--embeddings", str(bad), "--out", out],
        "topics": ["search", "--corpus", corpus, "--topics", str(bad)],
        "qrels": ["sweep", "--corpus", corpus, "--topics", topics, "--qrels", str(bad)],
        "run": ["evaluate", "--run", str(bad), "--qrels", qrels],
        "config": ["sweep", "--config", str(bad)],
    }[reader]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {bad}: not valid UTF-8\n"


def test_sweep_checks_k_before_indexing(workspace, capsys, monkeypatch):
    def index_corpus(*args, **kwargs):
        raise AssertionError("sweep indexed a corpus before checking --k")

    monkeypatch.setattr(cli, "index_corpus", index_corpus)
    assert cli.main([
        "sweep", "--corpus", str(workspace / "corpus.jsonl"),
        "--topics", str(workspace / "topics.tsv"), "--qrels", str(workspace / "qrels.txt"),
        "--k", "0",
    ]) == 2
    assert "k must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("engine_b", ["rws", "bm25"])
def test_compare_rejects_k_below_1_for_every_engine(workspace, capsys, engine_b):
    assert cli.main([
        "compare", "--corpus", str(workspace / "corpus.jsonl"),
        "--topics", str(workspace / "topics.tsv"),
        "--engine-a", "rws", "--engine-b", engine_b, "--repeats", "10", "--k", "0",
    ]) == 2
    assert "k must be at least 1" in capsys.readouterr().err


def test_sweep_checks_walk_flags_before_reading_inputs(workspace, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sweep read its inputs before checking the walk flags")

    monkeypatch.setattr(cli, "load_corpus", refuse)
    monkeypatch.setattr(cli, "index_corpus", refuse)
    assert cli.main([
        "sweep", "--corpus", str(workspace / "corpus.jsonl"),
        "--topics", str(workspace / "topics.tsv"), "--qrels", str(workspace / "qrels.txt"),
        "--length", "0", "--variants", "weighted",
    ]) == 2
    assert capsys.readouterr().err == "error: walk_length must be at least 1\n"


@pytest.mark.parametrize("command", ["search", "compare"])
def test_flags_are_checked_before_any_file_is_read(workspace, capsys, command):
    missing = str(workspace / "missing")
    argv = {
        "search": ["search", "--index", missing, "--topics", missing],
        "compare": ["compare", "--index", missing, "--topics", missing,
                    "--engine-a", "rws", "--engine-b", "rws"],
    }[command]
    assert cli.main([*argv, "--repeats", "0"]) == 2
    assert capsys.readouterr().err == "error: repeats must be at least 1\n"
    assert cli.main([*argv, "--k", "0"]) == 2
    assert capsys.readouterr().err == "error: k must be at least 1\n"


def test_evaluate_checks_k_before_any_file_is_read(workspace, capsys):
    missing = str(workspace / "missing")
    assert cli.main(["evaluate", "--run", missing, "--qrels", missing, "--k", "0"]) == 2
    assert capsys.readouterr().err == "error: k must be at least 1\n"


@pytest.mark.parametrize("command", ["index", "search", "sweep", "evaluate", "compare"])
def test_a_missing_output_directory_is_rejected_before_any_input_is_read(
        workspace, capsys, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} read its inputs before checking its output path")

    for name in ("load_corpus", "index_corpus"):
        monkeypatch.setattr(cli, name, refuse)
    for name in ("read_run", "read_topics", "read_qrels"):
        monkeypatch.setattr(cli.trec, name, refuse)
    (workspace / "run.txt").write_text("t1 Q0 d1 1 1.000000 hgoe\n", encoding="utf-8")
    corpus, topics, qrels, run = (
        str(workspace / name) for name in ("corpus.jsonl", "topics.tsv", "qrels.txt", "run.txt")
    )
    missing = workspace / "nodir"
    argv = {
        "index": ["index", "--corpus", corpus, "--out", str(missing / "i.hgoe")],
        "search": ["search", "--corpus", corpus, "--topics", topics,
                   "--out", str(missing / "run.txt")],
        "sweep": ["sweep", "--corpus", corpus, "--topics", topics, "--qrels", qrels,
                  "--out", str(missing)],
        "evaluate": ["evaluate", "--run", run, "--qrels", qrels,
                     "--json", str(missing / "e.json")],
        "compare": ["compare", "--run-a", run, "--run-b", run,
                    "--json", str(missing / "c.json")],
    }[command]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {argv[-2]}: no such directory: {missing}\n"
    assert not missing.exists()
