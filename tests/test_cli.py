"""End-to-end checks of the command line interface.

Every command is run in-process through cli.main. Machine output goes to
stdout, timing lines to stderr; these tests also pin the exit code contract:
0 success, 1 nothing evaluable, 2 bad input.
"""
from __future__ import annotations

import gc
import json
import sys

import pytest

from hgoe import CorpusDocument, Hypergraph, Variant, cli, index_corpus, ranking
from hgoe.trec import read_run

CORPUS = "\n".join([
    '{"id": "d1", "text": "solar panels power the grid", "links": ["Solar Power"]}',
    '{"id": "d2", "text": "wind turbines power the grid", "links": ["Wind Power"]}',
    '{"id": "d3", "text": "solar cells charge batteries", "links": ["Solar Power"]}',
    '{"id": "d4", "text": "cooking pasta with tomato sauce", "links": []}',
]) + "\n"

TOPICS = "t1\tsolar power\nt2\twind power\n"

QRELS = "\n".join([
    "t1 0 d1 1",
    "t1 0 d3 1",
    "t1 0 d2 0",
    "t2 0 d2 1",
    "t2 0 d1 0",
]) + "\n"

LEXICON = "solar\tsun\n"

EMBEDDINGS = "2 3\nsolar 1 0 0\nwind 0.9 0.1 0\n"


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "corpus.jsonl").write_text(CORPUS, encoding="utf-8")
    (tmp_path / "topics.tsv").write_text(TOPICS, encoding="utf-8")
    (tmp_path / "qrels.txt").write_text(QRELS, encoding="utf-8")
    (tmp_path / "lexicon.tsv").write_text(LEXICON, encoding="utf-8")
    (tmp_path / "vectors.txt").write_text(EMBEDDINGS, encoding="utf-8")
    return tmp_path


def keyvals(text):
    pairs = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


# -- index ---------------------------------------------------------------------

def test_index_builds_a_loadable_file(workspace, capsys):
    out = workspace / "base.hgoe"
    code = cli.main([
        "index", "--corpus", str(workspace / "corpus.jsonl"), "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 0
    values = keyvals(captured.out)
    assert values["index.documents"] == "4"
    assert values["index.variant"] == "base"
    assert int(values["index.nodes"]) > 0
    assert all(line.startswith("time.index.") for line in captured.err.splitlines())
    graph = Hypergraph.load(str(out))
    assert graph.doc_count == 4


def test_index_output_is_byte_deterministic(workspace, capsys):
    first = workspace / "one.hgoe"
    second = workspace / "two.hgoe"
    for out in (first, second):
        assert cli.main([
            "index",
            "--corpus", str(workspace / "corpus.jsonl"),
            "--variant", "weighted",
            "--lexicon", str(workspace / "lexicon.tsv"),
            "--embeddings", str(workspace / "vectors.txt"),
            "--out", str(out),
        ]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_index_reads_config_file(workspace, capsys):
    config = workspace / "config.json"
    config.write_text(json.dumps({
        "corpus": str(workspace / "corpus.jsonl"),
        "variant": "base",
        "out": str(workspace / "conf.hgoe"),
    }), encoding="utf-8")
    assert cli.main(["index", "--config", str(config)]) == 0
    capsys.readouterr()
    assert (workspace / "conf.hgoe").exists()


def test_index_flag_overrides_config(workspace, capsys):
    config = workspace / "config.json"
    config.write_text(json.dumps({
        "corpus": str(workspace / "corpus.jsonl"),
        "out": str(workspace / "from_config.hgoe"),
    }), encoding="utf-8")
    override = workspace / "from_flag.hgoe"
    assert cli.main(["index", "--config", str(config), "--out", str(override)]) == 0
    capsys.readouterr()
    assert override.exists()
    assert not (workspace / "from_config.hgoe").exists()


def test_index_rejects_unknown_config_keys(workspace, capsys):
    config = workspace / "config.json"
    config.write_text('{"corpus": "x", "out": "y", "typo_key": 1}', encoding="utf-8")
    assert cli.main(["index", "--config", str(config)]) == 2
    assert "typo_key" in capsys.readouterr().err


def test_index_requires_corpus_and_out(workspace, capsys):
    assert cli.main(["index", "--corpus", str(workspace / "corpus.jsonl")]) == 2
    assert cli.main(["index", "--out", str(workspace / "x.hgoe")]) == 2
    capsys.readouterr()


# -- search --------------------------------------------------------------------

def test_search_single_query_writes_run_lines(workspace, capsys):
    code = cli.main([
        "search", "--corpus", str(workspace / "corpus.jsonl"),
        "--query", "solar power", "--repeats", "200",
    ])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines
    for rank, line in enumerate(lines, start=1):
        parts = line.split()
        assert len(parts) == 6
        assert parts[0] == "q1"
        assert parts[1] == "Q0"
        assert int(parts[3]) == rank
        assert parts[5] == "hgoe"
    assert all(line.startswith("time.search.") for line in captured.err.splitlines())


def test_search_is_deterministic(workspace, capsys):
    argv = [
        "search", "--corpus", str(workspace / "corpus.jsonl"),
        "--query", "solar power", "--repeats", "100",
    ]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_search_from_index_matches_direct_build(workspace, capsys):
    out = workspace / "g.hgoe"
    assert cli.main([
        "index", "--corpus", str(workspace / "corpus.jsonl"), "--out", str(out),
    ]) == 0
    capsys.readouterr()
    assert cli.main([
        "search", "--index", str(out), "--query", "solar power", "--repeats", "100",
    ]) == 0
    from_index = capsys.readouterr().out
    assert cli.main([
        "search", "--corpus", str(workspace / "corpus.jsonl"),
        "--query", "solar power", "--repeats", "100",
    ]) == 0
    from_corpus = capsys.readouterr().out
    assert from_index == from_corpus


def test_search_reports_its_setup_time_on_stderr(workspace, capsys):
    for source in (["--corpus", str(workspace / "corpus.jsonl")],
                   ["--corpus", str(workspace / "corpus.jsonl"), "--engine", "bm25"]):
        assert cli.main(["search", *source, "--query", "solar power", "--repeats", "50"]) == 0
        times = keyvals(capsys.readouterr().err)
        assert list(times) == ["time.search.setup_ms", "time.search.total_ms", "time.search.avg_ms"]
        assert float(times["time.search.setup_ms"]) > 0


def test_search_freezes_the_collector_once_the_graph_is_ready(workspace, capsys):
    index = workspace / "g.hgoe"
    assert cli.main(["index", "--corpus", str(workspace / "corpus.jsonl"), "--out", str(index)]) == 0
    gc.unfreeze()
    try:
        assert gc.get_freeze_count() == 0
        assert cli.main(["search", "--corpus", str(workspace / "corpus.jsonl"),
                         "--engine", "bm25", "--query", "solar power"]) == 0
        assert gc.get_freeze_count() == 0  # only the rws engine freezes
        for source in (["--index", str(index)], ["--corpus", str(workspace / "corpus.jsonl")]):
            assert cli.main(["search", *source, "--query", "solar power", "--repeats", "50"]) == 0
            assert gc.get_freeze_count() > 0, source
            gc.unfreeze()
    finally:
        gc.unfreeze()
    capsys.readouterr()


def test_search_topics_to_run_file(workspace, capsys):
    run_path = workspace / "run.txt"
    code = cli.main([
        "search", "--corpus", str(workspace / "corpus.jsonl"),
        "--topics", str(workspace / "topics.tsv"),
        "--repeats", "100", "--tag", "myrun", "--out", str(run_path),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    run = read_run(str(run_path))
    assert set(run) == {"t1", "t2"}
    assert run_path.read_text(encoding="utf-8").splitlines()[0].endswith("myrun")


def test_search_baseline_engines(workspace, capsys):
    for engine in ("tfidf", "bm25"):
        code = cli.main([
            "search", "--corpus", str(workspace / "corpus.jsonl"),
            "--engine", engine, "--query", "solar grid", "--k", "2",
        ])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert 0 < len(lines) <= 2
        assert lines[0].split()[2] == "d1"  # matches both query terms


def test_search_input_validation(workspace, capsys):
    corpus = str(workspace / "corpus.jsonl")
    assert cli.main(["search", "--corpus", corpus]) == 2
    assert cli.main([
        "search", "--corpus", corpus, "--query", "x",
        "--topics", str(workspace / "topics.tsv"),
    ]) == 2
    assert cli.main(["search", "--query", "x"]) == 2
    assert cli.main(["search", "--engine", "bm25", "--query", "x"]) == 2
    assert cli.main(["search", "--corpus", corpus, "--query", "x", "--k", "0"]) == 2
    capsys.readouterr()


def test_search_writes_no_run_file_its_own_evaluate_cannot_read(workspace, capsys, monkeypatch):
    """An id or a tag a run line cannot hold is an error, and an earlier --out file stays.

    The readers and the tag check reject such values before any walk; an
    index built by index_corpus can still hold such a doc id, and the run
    is rejected before --out is opened.
    """
    spaced_corpus = workspace / "spaced.jsonl"
    spaced_corpus.write_text(
        '{"id": "doc 1", "text": "solar panels power the grid", "links": []}\n', encoding="utf-8"
    )
    spaced_topics = workspace / "spaced.tsv"
    spaced_topics.write_text("q1\tsolar\nq 2\tsolar\n", encoding="utf-8")
    spaced_index = workspace / "spaced.hgoe"
    documents = [CorpusDocument("doc 1", "solar panels", ()), CorpusDocument("d2", "solar cells", ())]
    index_corpus(documents, Variant.BASE).save(str(spaced_index))
    corpus, topics = str(workspace / "corpus.jsonl"), str(workspace / "topics.tsv")
    run = workspace / "run.txt"
    run.write_text("an earlier run\n", encoding="utf-8")
    walked = []
    rws = cli.rws
    monkeypatch.setattr(cli, "rws", lambda *args: walked.append(args) or rws(*args))
    cases = [
        (["--corpus", str(spaced_corpus), "--topics", topics],
         f"{spaced_corpus}:1: a run file cannot hold doc id 'doc 1'"),
        (["--corpus", corpus, "--topics", str(spaced_topics)],
         f"{spaced_topics}:2: a run file cannot hold topic id 'q 2'"),
        (["--corpus", corpus, "--query", "solar", "--topic-id", "q 1"],
         "a run file cannot hold topic id 'q 1'"),
        (["--corpus", corpus, "--topics", topics, "--tag", "my run"],
         "a run file cannot hold run tag 'my run'"),
    ]
    for flags, bad in cases:
        assert cli.main(["search", *flags, "--repeats", "50", "--out", str(run)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: it is not one token\n"
        assert run.read_text(encoding="utf-8") == "an earlier run\n"
    assert not walked
    code = cli.main(["search", "--index", str(spaced_index), "--topics", topics,
                     "--repeats", "50", "--out", str(run)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: a run file cannot hold doc id 'doc 1': it is not one token\n"
    )
    assert walked
    assert run.read_text(encoding="utf-8") == "an earlier run\n"


def test_search_rejects_corrupt_index(workspace, capsys):
    bad = workspace / "bad.hgoe"
    bad.write_bytes(b"XXXX not an index")
    assert cli.main(["search", "--index", str(bad), "--query", "x"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_search_names_a_stale_index_and_how_to_rebuild_it(workspace, capsys):
    index = workspace / "old.hgoe"
    assert cli.main(["index", "--corpus", str(workspace / "corpus.jsonl"), "--out", str(index)]) == 0
    data = bytearray(index.read_bytes())
    data[4:8] = (3).to_bytes(4, "little")  # an index from before format version 4
    index.write_bytes(bytes(data))
    capsys.readouterr()
    assert cli.main(["search", "--index", str(index), "--query", "solar"]) == 2
    assert capsys.readouterr().err == (
        f"error: {index}: unsupported format version 3 at offset 4; "
        "it predates this hgoe, rebuild it with `hgoe index`\n"
    )


def test_unknown_engine_is_an_argparse_error(workspace):
    with pytest.raises(SystemExit) as err:
        cli.main(["search", "--corpus", "c", "--engine", "nope", "--query", "x"])
    assert err.value.code == 2


# -- evaluate ------------------------------------------------------------------

def run_search(workspace, capsys, run_name="run.txt"):
    run_path = workspace / run_name
    assert cli.main([
        "search", "--corpus", str(workspace / "corpus.jsonl"),
        "--topics", str(workspace / "topics.tsv"),
        "--repeats", "200", "--out", str(run_path),
    ]) == 0
    capsys.readouterr()
    return run_path


def test_evaluate_reports_map_and_precision(workspace, capsys):
    run_path = run_search(workspace, capsys)
    report_path = workspace / "report.json"
    code = cli.main([
        "evaluate", "--run", str(run_path), "--qrels", str(workspace / "qrels.txt"),
        "--k", "5", "--json", str(report_path),
    ])
    captured = capsys.readouterr()
    assert code == 0
    values = keyvals(captured.out)
    assert values["topics.evaluated"] == "2"
    assert 0.0 <= float(values["map"]) <= 1.0
    assert "topic.t1.ap" in values
    assert "topic.t1.p_at_5" in values
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["map"] == pytest.approx(float(values["map"]), abs=1e-6)
    assert set(report["per_topic"]) == {"t1", "t2"}


def test_evaluate_skips_unjudged_topics(workspace, capsys):
    run_path = run_search(workspace, capsys)
    partial_qrels = workspace / "partial.txt"
    partial_qrels.write_text("t1 0 d1 1\n", encoding="utf-8")
    code = cli.main([
        "evaluate", "--run", str(run_path), "--qrels", str(partial_qrels),
    ])
    captured = capsys.readouterr()
    assert code == 0
    values = keyvals(captured.out)
    assert values["topics.evaluated"] == "1"
    assert values["topics.skipped_unknown"] == "1"
    assert "skipped" in captured.err


def test_evaluate_exits_1_when_nothing_is_evaluable(workspace, capsys):
    run_path = run_search(workspace, capsys)
    hopeless = workspace / "hopeless.txt"
    hopeless.write_text("t1 0 d1 0\nt2 0 d2 0\n", encoding="utf-8")
    assert cli.main([
        "evaluate", "--run", str(run_path), "--qrels", str(hopeless),
    ]) == 1
    captured = capsys.readouterr()
    assert keyvals(captured.out)["topics.evaluated"] == "0"


def test_evaluate_missing_file_exits_2(workspace, capsys):
    assert cli.main([
        "evaluate", "--run", str(workspace / "absent.txt"),
        "--qrels", str(workspace / "qrels.txt"),
    ]) == 2
    assert capsys.readouterr().err.startswith("error:")


# d1 and d2 both link "Gamma Ray"; "unknownword" is in no document, so q2 ranks nothing.
TWO_TOPICS = {
    "corpus.jsonl": '{"id": "d1", "text": "alpha beta", "links": ["Gamma Ray"]}\n'
                    '{"id": "d2", "text": "beta delta", "links": ["Gamma Ray"]}\n'
                    '{"id": "d3", "text": "epsilon zeta", "links": []}\n',
    "topics.tsv": "q1\talpha\nq2\tunknownword\n",
    "qrels.txt": "q1 0 d1 1\nq2 0 d3 1\n",
}


def test_sweep_and_evaluate_score_a_topic_that_ranks_nothing_as_0(tmp_path, capsys):
    for name, text in TWO_TOPICS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    corpus, topics, qrels, run = (str(tmp_path / name) for name in [*TWO_TOPICS, "run.txt"])
    assert cli.main(["sweep", "--corpus", corpus, "--topics", topics, "--qrels", qrels,
                     "--repeats", "50", "--node-fatigue-grid", "0", "--edge-fatigue-grid", "0"]) == 0
    assert "map=0.500000 p_at_10=0.050000" in capsys.readouterr().out
    assert cli.main(["search", "--corpus", corpus, "--topics", topics, "--repeats", "50",
                     "--out", run]) == 0
    capsys.readouterr()
    assert {line.split()[0] for line in open(run, encoding="utf-8")} == {"q1"}
    assert cli.main(["evaluate", "--run", run, "--qrels", qrels]) == 0
    captured = capsys.readouterr()
    values = keyvals(captured.out)
    assert (values["map"], values["p_at_10"]) == ("0.500000", "0.050000")
    assert (values["topic.q2.ap"], values["topics.evaluated"]) == ("0.000000", "2")
    assert captured.err == "warning: topic 'q2' has no ranking, scored 0\n"
    # a sweep whose topics leave out a judged one names it once, not once per cell
    (tmp_path / "topics.tsv").write_text("q1\talpha\n", encoding="utf-8")
    assert cli.main(["sweep", "--corpus", corpus, "--topics", topics, "--qrels", qrels,
                     "--repeats", "50", "--node-fatigue-grid", "0,5"]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("map=0.500000 p_at_10=0.050000") == 4
    assert [line for line in captured.err.splitlines() if line.startswith("warning")] == [
        "warning: topic 'q2' has no ranking, scored 0"]


def test_a_byte_order_mark_is_no_part_of_the_first_topic_search_writes(tmp_path, capsys):
    inputs = {
        "corpus.jsonl": '{"id": "d1", "text": "alpha beta"}\n{"id": "d2", "text": "beta gamma"}\n',
        "topics.tsv": "q1\talpha\nq2\tgamma\n",
        "qrels.txt": "q1 0 d1 1\nq2 0 d2 1\n",
    }
    for name, text in inputs.items():
        (tmp_path / name).write_text("\ufeff" + text, encoding="utf-8")
    corpus, topics, qrels, run = (str(tmp_path / name) for name in [*inputs, "run.txt"])
    assert cli.main(["search", "--corpus", corpus, "--topics", topics, "--repeats", "50",
                     "--out", run]) == 0
    capsys.readouterr()
    assert {line.split()[0] for line in open(run, encoding="utf-8")} == {"q1", "q2"}
    assert cli.main(["evaluate", "--run", run, "--qrels", qrels]) == 0
    captured = capsys.readouterr()
    assert (keyvals(captured.out)["map"], captured.err) == ("1.000000", "")


def test_sweep_and_evaluate_score_the_first_run_k_documents(workspace, capsys, monkeypatch):
    corpus, topics, qrels, run = (
        str(workspace / name) for name in ("corpus.jsonl", "topics.tsv", "qrels.txt", "run.txt"))
    sweep = ["sweep", "--corpus", corpus, "--topics", topics, "--qrels", qrels,
             "--repeats", "200", "--node-fatigue-grid", "0", "--edge-fatigue-grid", "0"]

    def sweep_and_evaluate():
        assert cli.main(sweep) == 0
        swept = keyvals(capsys.readouterr().out.replace(" ", "\n"))["map"]
        assert cli.main(["search", "--corpus", corpus, "--topics", topics, "--repeats", "200",
                         "--out", run]) == 0
        assert cli.main(["evaluate", "--run", run, "--qrels", qrels]) == 0
        return swept, keyvals(capsys.readouterr().out)["map"]

    assert sweep_and_evaluate() == ("0.791667", "0.791667")
    # t1 ranks d2, d1, d3: with RUN_K 2, search keeps two documents and sweep scores two
    monkeypatch.setattr(cli, "RUN_K", 2)
    assert sweep_and_evaluate() == ("0.625000", "0.625000")


# -- sweep ---------------------------------------------------------------------

def test_sweep_grid_rows_and_csv(workspace, capsys):
    out_dir = workspace / "sweepout"
    out_dir.mkdir()
    code = cli.main([
        "sweep", "--corpus", str(workspace / "corpus.jsonl"),
        "--topics", str(workspace / "topics.tsv"),
        "--qrels", str(workspace / "qrels.txt"),
        "--variants", "base", "syns-context",
        "--lexicon", str(workspace / "lexicon.tsv"),
        "--embeddings", str(workspace / "vectors.txt"),
        "--repeats", "50",
        "--node-fatigue-grid", "0,5",
        "--edge-fatigue-grid", "0",
        "--out", str(out_dir),
    ])
    captured = capsys.readouterr()
    assert code == 0
    sweep_lines = [l for l in captured.out.splitlines() if l.startswith("sweep ")]
    assert len(sweep_lines) == 4  # 2 variants x 2 node fatigue x 1 edge fatigue
    assert captured.out.count("variant=base") == 2
    timing_lines = [l for l in captured.err.splitlines() if l.startswith("time.sweep ")]
    assert len(timing_lines) == 4

    csv_lines = (out_dir / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0] == "variant,node_fatigue,edge_fatigue,map,p_at_10,total_steps"
    assert len(csv_lines) == 5
    timing_csv = (out_dir / "sweep_timing.csv").read_text(encoding="utf-8").splitlines()
    assert timing_csv[0] == "variant,node_fatigue,edge_fatigue,avg_topic_ms,total_ms"
    assert len(timing_csv) == 5


def test_sweep_node_fatigue_cuts_steps(workspace, capsys):
    code = cli.main([
        "sweep", "--corpus", str(workspace / "corpus.jsonl"),
        "--topics", str(workspace / "topics.tsv"),
        "--qrels", str(workspace / "qrels.txt"),
        "--repeats", "100",
        "--node-fatigue-grid", "0,10",
        "--edge-fatigue-grid", "0",
    ])
    captured = capsys.readouterr()
    assert code == 0
    steps = {}
    for line in captured.out.splitlines():
        fields = dict(part.split("=", 1) for part in line.split()[1:])
        steps[fields["node_fatigue"]] = int(fields["total_steps"])
    assert steps["10"] < steps["0"]


def test_sweep_config_with_flag_override(workspace, capsys):
    config = workspace / "sweep.json"
    config.write_text(json.dumps({
        "corpus": str(workspace / "corpus.jsonl"),
        "topics": str(workspace / "topics.tsv"),
        "qrels": str(workspace / "qrels.txt"),
        "repeats": 20,
        "node_fatigue_grid": [0, 1, 2],
        "edge_fatigue_grid": [0],
    }), encoding="utf-8")
    assert cli.main([
        "sweep", "--config", str(config), "--node-fatigue-grid", "0",
    ]) == 0
    captured = capsys.readouterr()
    sweep_lines = [l for l in captured.out.splitlines() if l.startswith("sweep ")]
    assert len(sweep_lines) == 1  # the flag beat the three-point grid


def test_sweep_rejects_bad_grid(workspace, capsys):
    assert cli.main([
        "sweep", "--corpus", str(workspace / "corpus.jsonl"),
        "--topics", str(workspace / "topics.tsv"),
        "--qrels", str(workspace / "qrels.txt"),
        "--node-fatigue-grid", "0,-3",
    ]) == 2
    assert cli.main([
        "sweep", "--corpus", str(workspace / "corpus.jsonl"),
        "--topics", str(workspace / "topics.tsv"),
        "--qrels", str(workspace / "qrels.txt"),
        "--edge-fatigue-grid", "a,b",
    ]) == 2
    capsys.readouterr()


# -- config files --------------------------------------------------------------

def config_actions(command):
    """The flags of `command` that its --config file may set, by key."""
    return cli._config_actions(cli._build_parser().parse_args([command]).config_parser)


def required_inputs(workspace, command):
    """Values for the flags `command` needs to run, by config key (sweep walks 20 repeats)."""
    files = {"corpus": "corpus.jsonl", "lexicon": "lexicon.tsv", "embeddings": "vectors.txt"}
    if command == "index":
        return {**{key: str(workspace / name) for key, name in files.items()},
                "out": str(workspace / "out.hgoe")}
    files.update(topics="topics.tsv", qrels="qrels.txt")
    return {**{key: str(workspace / name) for key, name in files.items()},
            "out": str(workspace), "repeats": 20}


def other_value(action, inputs):
    """A value the flag takes other than its default, as a config file holds it."""
    if action.choices:
        choice = next(c for c in action.choices if action.default not in (c, [c]))
        return [choice] if action.nargs else choice
    if action.type is int:
        return 3
    if action.type is not None:  # a grid, whose type parses a comma list
        return "0,3"
    return inputs[action.dest]  # a file or directory


def as_flag(action, value):
    """The command line that gives the flag `value`."""
    values = value if isinstance(value, list) else [value]
    return [action.option_strings[-1], *map(str, values)]


def run_out(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("command, key", [
    (command, key) for command in ("index", "sweep") for key in config_actions(command)
])
def test_a_config_value_runs_as_its_flag_does(workspace, capsys, command, key):
    actions = config_actions(command)
    action = actions[key]
    inputs = required_inputs(workspace, command)
    value = other_value(action, inputs)
    assert value != action.default
    others = [token for other, given in inputs.items() if other != key
              for token in as_flag(actions[other], given)]
    config = workspace / "config.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    by_flag = run_out(capsys, [command, *others, *as_flag(action, value)])
    assert by_flag[0] == 0
    assert run_out(capsys, [command, *others, "--config", str(config)]) == by_flag
    if action.default is not None:
        explicit = run_out(capsys, [command, *others, *as_flag(action, action.default)])
        assert run_out(capsys, [command, *others]) == explicit


def test_a_flag_beats_its_config_value_which_beats_the_default(workspace):
    # argparse writes a subparser's defaults over a namespace passed in
    # pre-filled, so the order rests on the config going in as defaults.
    config = workspace / "config.json"
    config.write_text(json.dumps({"repeats": 20, "length": 3}), encoding="utf-8")
    args = cli._parse_args(["sweep", "--config", str(config), "--repeats", "30"])
    assert (args.repeats, args.length, args.rng_seed) == (30, 3, 0)
    config.write_text(json.dumps({"variant": "weighted"}), encoding="utf-8")
    assert cli._parse_args(["index", "--config", str(config)]).variant == "weighted"
    args = cli._parse_args(["index", "--config", str(config), "--variant", "syns-context"])
    assert args.variant == "syns-context"
    assert cli._parse_args(["index"]).variant == "base"


# -- a lexicon and embeddings that no chosen variant reads -------------------------

def unread_resource_argv(workspace, command):
    """`command` with every chosen variant base, on the workspace's corpus."""
    corpus, topics = str(workspace / "corpus.jsonl"), str(workspace / "topics.tsv")
    return {
        "index": ["index", "--corpus", corpus, "--out", str(workspace / "base.hgoe")],
        "search": ["search", "--corpus", corpus, "--topics", topics, "--repeats", "50"],
        "sweep": ["sweep", "--corpus", corpus, "--topics", topics,
                  "--qrels", str(workspace / "qrels.txt"), "--variants", "base",
                  "--repeats", "20", "--node-fatigue-grid", "0", "--edge-fatigue-grid", "0"],
        "compare": ["compare", "--corpus", corpus, "--topics", topics, "--engine-a", "rws",
                    "--engine-b", "bm25", "--repeats", "20"],
    }[command]


@pytest.mark.parametrize("command", ["index", "search", "sweep", "compare"])
@pytest.mark.parametrize("given", [("--lexicon", "--embeddings"), ("--embeddings",)],
                         ids=["both", "embeddings"])
def test_base_opens_no_lexicon_or_embeddings_and_warns_once(workspace, capsys, command, given):
    argv = unread_resource_argv(workspace, command)
    index = workspace / "base.hgoe"
    without = cli.main(argv), capsys.readouterr().out, index.exists() and index.read_bytes()
    # the files do not exist, so opening either would exit 2
    code = cli.main([*argv, *(token for flag in given
                              for token in (flag, str(workspace / f"missing{flag}")))])
    captured = capsys.readouterr()
    assert (code, captured.out, index.exists() and index.read_bytes()) == without
    assert without[0] == 0
    assert [line for line in captured.err.splitlines() if not line.startswith("time.")] == [
        f"warning: variant base reads no {' or '.join(given)}; not opened"]


@pytest.mark.parametrize("argv", [
    ["index", "--variant", "syns-context", "--out", "x.hgoe"],
    ["sweep", "--variants", "base", "weighted", "--topics", "topics.tsv", "--qrels", "qrels.txt"],
])
def test_an_enriched_variant_still_opens_the_lexicon(workspace, capsys, argv):
    missing = workspace / "no-lexicon.tsv"
    argv = [str(workspace / value) if value.endswith((".hgoe", ".tsv", ".txt")) else value
            for value in argv]
    assert cli.main([*argv, "--corpus", str(workspace / "corpus.jsonl"),
                     "--lexicon", str(missing),
                     "--embeddings", str(workspace / "vectors.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(missing) in err and "warning" not in err


# -- flags an index makes moot ------------------------------------------------------

def index_argv(workspace, command, variant="base"):
    """`command` ranking with rws on a `variant` index built from the workspace's corpus."""
    index, topics = workspace / f"{variant}.hgoe", str(workspace / "topics.tsv")
    if not index.exists():
        assert cli.main(["index", "--corpus", str(workspace / "corpus.jsonl"), "--variant", variant,
                         "--lexicon", str(workspace / "lexicon.tsv"),
                         "--embeddings", str(workspace / "vectors.txt"), "--out", str(index)]) == 0
    return {
        "search": ["search", "--index", str(index), "--topics", topics, "--repeats", "50"],
        "compare": ["compare", "--index", str(index), "--topics", topics, "--engine-a", "rws",
                    "--engine-b", "rws", "--node-fatigue-b", "2", "--repeats", "20"],
    }[command]


@pytest.mark.parametrize("command", ["search", "compare"])
@pytest.mark.parametrize("variant", ["base", "weighted"])
@pytest.mark.parametrize("given", [("--lexicon", "--embeddings"), ("--lexicon",)],
                         ids=["both", "lexicon"])
def test_an_index_opens_no_lexicon_or_embeddings_and_warns_once(
        workspace, capsys, command, variant, given):
    argv = index_argv(workspace, command, variant)
    capsys.readouterr()
    without = cli.main(argv), capsys.readouterr().out
    # the files do not exist, so opening either would exit 2; naming the index's
    # own variant changes nothing
    code = cli.main([*argv, "--variant", variant, *(
        token for flag in given for token in (flag, str(workspace / f"missing{flag}")))])
    captured = capsys.readouterr()
    assert (code, captured.out) == without
    assert without[0] == 0
    assert [line for line in captured.err.splitlines() if not line.startswith("time.")] == [
        f"warning: --index reads no {' or '.join(given)}; not opened"]


@pytest.mark.parametrize("command", ["search", "compare"])
@pytest.mark.parametrize("variant, other", [("base", "weighted"), ("weighted", "syns-context")])
def test_a_variant_other_than_the_index_s_exits_2(workspace, capsys, command, variant, other):
    argv = index_argv(workspace, command, variant)
    capsys.readouterr()
    assert cli.main([*argv, "--variant", other]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error:") and f"--variant {other}" in line and variant in line


# -- source flags no engine of the command reads ------------------------------------

def unread_source_argv(workspace, case):
    """(argv, source flags that argv's engines do not read, the warning they get) for
    `case`. The unread flags name files that do not exist."""
    corpus, topics = str(workspace / "corpus.jsonl"), str(workspace / "topics.tsv")
    missing = {flag: str(workspace / f"missing{flag}") for flag in
               ("--index", "--corpus", "--lexicon", "--embeddings")}
    if case == "search-index":
        return (index_argv(workspace, "search"), ["--corpus", missing["--corpus"]],
                "--index reads no --corpus")
    if case == "compare-runs":
        run = workspace / "a.txt"
        run.write_text("t1 Q0 d1 1 0.9 a\nt1 Q0 d2 2 0.5 a\nt1 Q0 d3 3 0.1 a\n", encoding="utf-8")
        return (["compare", "--run-a", str(run), "--run-b", str(run)],
                [token for flag in ("--index", "--corpus", "--lexicon")
                 for token in (flag, missing[flag])],
                "--run-a/--run-b reads no --index or --corpus or --lexicon")
    return {
        "search-bm25": (
            ["search", "--engine", "bm25", "--corpus", corpus, "--topics", topics],
            ["--index", missing["--index"], "--variant", "weighted",
             "--lexicon", missing["--lexicon"], "--embeddings", missing["--embeddings"]],
            "engine bm25 reads no --index or --variant or --lexicon or --embeddings"),
        "search-tfidf": (
            ["search", "--engine", "tfidf", "--corpus", corpus, "--topics", topics],
            ["--variant", "syns-context"],
            "engine tfidf reads no --variant"),
        "compare-baselines": (
            ["compare", "--engine-a", "tfidf", "--engine-b", "bm25", "--corpus", corpus,
             "--topics", topics],
            ["--index", missing["--index"], "--variant", "weighted"],
            "engine tfidf/bm25 reads no --index or --variant"),
    }[case]


@pytest.mark.parametrize("case", ["search-bm25", "search-tfidf", "search-index",
                                  "compare-baselines", "compare-runs"])
def test_a_source_flag_no_engine_reads_is_not_opened_and_warns_once(workspace, capsys, case):
    argv, unread, warning = unread_source_argv(workspace, case)
    capsys.readouterr()
    without = cli.main(argv), capsys.readouterr().out
    code = cli.main([*argv, *unread])
    captured = capsys.readouterr()
    assert (code, captured.out) == without
    assert without[0] == 0
    assert [line for line in captured.err.splitlines() if not line.startswith("time.")] == [
        f"warning: {warning}; not opened"]


def test_a_failed_read_prints_one_error_and_no_warning(workspace, capsys):
    # rws reads the index and bm25 the missing corpus; the lexicon is read by neither
    argv = [*index_argv(workspace, "compare"), "--engine-b", "bm25",
            "--corpus", str(workspace / "missing.jsonl"), "--lexicon", str(workspace / "missing.tsv")]
    capsys.readouterr()
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error:") and "missing.jsonl" in line


# -- a warning before a costly topic -----------------------------------------------

@pytest.fixture()
def every_entity_workspace(tmp_path):
    """12 documents, each linking its own entity "Ent <i>", so the token "ent" maps to
    all 12 entities as seeds and "word3" to its one term node."""
    lines = [json.dumps({"id": f"d{i}", "text": f"plain word{i}", "links": [f"Ent {i}"]})
             for i in range(12)]
    (tmp_path / "corpus.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (tmp_path / "topics.tsv").write_text("t1\tword3\nt2\tent\nt3\tword5\n", encoding="utf-8")
    return tmp_path


def test_a_topic_over_the_step_budget_warns_once_before_its_walks(
        every_entity_workspace, capsys, monkeypatch):
    argv = ["search", "--corpus", str(every_entity_workspace / "corpus.jsonl"),
            "--topics", str(every_entity_workspace / "topics.tsv"), "--repeats", "10"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    unwarned = captured.out
    assert [line for line in captured.err.splitlines() if not line.startswith("time.")] == []
    rws = cli.rws

    def marked(graph, seed_set, params):
        print(f"walks {seed_set.query}", file=sys.stderr)
        return rws(graph, seed_set, params)

    # "ent": 12 seeds x 10 repeats x length 2 = 240 steps; "word3" and "word5": 20 each
    monkeypatch.setattr(cli, "rws", marked)
    monkeypatch.setattr(cli, "STEP_BUDGET_WARNING", 239)
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == unwarned
    assert [line for line in captured.err.splitlines() if not line.startswith("time.")] == [
        "walks word3",
        "warning: query 'ent' may take up to 240 steps (12 seeds x 10 repeats x length 2),"
        " above 239",
        "walks ent",
        "walks word5",
    ]
    monkeypatch.setattr(cli, "STEP_BUDGET_WARNING", 240)
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == unwarned
    assert "warning" not in captured.err


def test_a_sweep_warns_once_per_variant_and_topic_over_the_step_budget(
        every_entity_workspace, capsys, monkeypatch):
    workspace = every_entity_workspace
    (workspace / "qrels.txt").write_text("t1 0 d3 1\nt2 0 d0 1\nt3 0 d5 1\n", encoding="utf-8")
    (workspace / "lexicon.tsv").write_text("plain\tsimple\n", encoding="utf-8")
    (workspace / "vectors.txt").write_text("2 3\nplain 1 0 0\nword3 0.9 0.1 0\n", encoding="utf-8")
    argv = ["sweep", *(f"--{flag}={workspace / name}" for flag, name in [
                ("corpus", "corpus.jsonl"), ("topics", "topics.tsv"), ("qrels", "qrels.txt"),
                ("lexicon", "lexicon.tsv"), ("embeddings", "vectors.txt")]),
            "--variants", "base", "weighted", "--repeats", "10", "--out", str(workspace)]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    unwarned, csv_bytes = captured.out, (workspace / "sweep.csv").read_bytes()
    assert [line for line in captured.err.splitlines() if not line.startswith("time.")] == []
    mapped = []
    map_query_to_seeds, run_timed = cli.map_query_to_seeds, cli.run_timed

    def counted(graph, query):
        mapped.append(query)
        return map_query_to_seeds(graph, query)

    def marked(graph, seed_set, params):
        print(f"walks {seed_set.query}", file=sys.stderr)
        return run_timed(graph, seed_set, params)

    monkeypatch.setattr(ranking, "map_query_to_seeds", counted)
    monkeypatch.setattr(cli, "map_query_to_seeds", counted)
    monkeypatch.setattr(cli, "run_timed", marked)
    monkeypatch.setattr(cli, "STEP_BUDGET_WARNING", 239)
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert (captured.out, (workspace / "sweep.csv").read_bytes()) == (unwarned, csv_bytes)
    # each variant maps each topic once and warns about "ent" before its first cell (of 4)
    cells = ["walks word3", "walks ent", "walks word5"] * 4
    warning = ("warning: query 'ent' may take up to 240 steps (12 seeds x 10 repeats x length 2),"
               " above 239")
    assert [line for line in captured.err.splitlines() if not line.startswith("time.")] == [
        warning, *cells, warning, *cells]
    assert mapped == ["word3", "ent", "word5"] * 2
    monkeypatch.setattr(cli, "STEP_BUDGET_WARNING", 240)
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == unwarned
    assert "warning" not in captured.err


def test_a_sweep_times_no_ranking_that_grows_a_walk_table(every_entity_workspace, monkeypatch):
    workspace = every_entity_workspace
    (workspace / "qrels.txt").write_text("t1 0 d3 1\nt2 0 d0 1\n", encoding="utf-8")
    (workspace / "lexicon.tsv").write_text("plain\tsimple\n", encoding="utf-8")
    (workspace / "vectors.txt").write_text("2 3\nplain 1 0 0\nword3 0.9 0.1 0\n", encoding="utf-8")
    sizes = []
    run_timed = cli.run_timed

    def tables(graph):
        return len(graph.weight_sums), len(graph.target_tables), len(graph.by_targets)

    def checked(graph, seed_set, params):
        before = tables(graph)
        timed = run_timed(graph, seed_set, params)
        sizes.append((before, tables(graph)))
        return timed

    monkeypatch.setattr(cli, "run_timed", checked)
    argv = ["sweep", *(f"--{flag}={workspace / name}" for flag, name in [
                ("corpus", "corpus.jsonl"), ("topics", "topics.tsv"), ("qrels", "qrels.txt"),
                ("lexicon", "lexicon.tsv"), ("embeddings", "vectors.txt")]),
            "--variants", "base", "weighted", "--repeats", "10"]
    assert cli.main(argv) == 0
    # 2 variants x 4 cells x 3 topics, none growing a table; the weighted cells read all three
    assert len(sizes) == 24
    assert [before for before, _ in sizes] == [after for _, after in sizes]
    assert all(sizes[-1][0])
    assert gc.get_freeze_count() > 0  # nor does a collection walk the graph


@pytest.mark.parametrize("command", ["search", "compare"])
def test_an_rws_search_maps_each_query_once(every_entity_workspace, capsys, monkeypatch, command):
    corpus, topics = (str(every_entity_workspace / name) for name in ("corpus.jsonl", "topics.tsv"))
    argv = {
        "search": ["search", "--corpus", corpus, "--topics", topics, "--repeats", "10"],
        "compare": ["compare", "--corpus", corpus, "--topics", topics, "--engine-a", "rws",
                    "--engine-b", "rws", "--edge-fatigue-b", "2", "--repeats", "10"],
    }[command]
    assert cli.main(argv) == 0
    unpatched = capsys.readouterr().out
    mapped = []
    map_query_to_seeds = ranking.map_query_to_seeds

    def counted(graph, query):
        mapped.append(query)
        return map_query_to_seeds(graph, query)

    # rws maps through the ranking module's name, the budget warning through the CLI's
    monkeypatch.setattr(ranking, "map_query_to_seeds", counted)
    monkeypatch.setattr(cli, "map_query_to_seeds", counted)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == unpatched
    walks = 1 if command == "search" else 2
    assert sorted(mapped) == sorted(["word3", "ent", "word5"] * walks)


# -- compare -------------------------------------------------------------------

def test_compare_two_run_files(workspace, capsys):
    run_a = workspace / "a.txt"
    run_b = workspace / "b.txt"
    run_a.write_text(
        "t1 Q0 d1 1 0.9 a\nt1 Q0 d2 2 0.1 a\n", encoding="utf-8")
    run_b.write_text(
        "t1 Q0 d2 1 0.8 b\nt1 Q0 d3 2 0.2 b\n", encoding="utf-8")
    code = cli.main(["compare", "--run-a", str(run_a), "--run-b", str(run_b)])
    captured = capsys.readouterr()
    assert code == 0
    values = keyvals(captured.out)
    assert values["topic.t1.rho"] == "-0.500000"
    assert values["topic.t1.jaccard"] == "0.333333"
    assert values["rho.mean"] == "-0.500000"
    assert values["repetitions"] == "1"


def test_compare_runs_without_shared_topics(workspace, capsys):
    run_a = workspace / "a.txt"
    run_b = workspace / "b.txt"
    run_a.write_text("t1 Q0 d1 1 0.9 a\n", encoding="utf-8")
    run_b.write_text("t9 Q0 d1 1 0.9 b\n", encoding="utf-8")
    assert cli.main(["compare", "--run-a", str(run_a), "--run-b", str(run_b)]) == 2
    capsys.readouterr()


def test_compare_exits_1_when_rho_is_undefined(workspace, capsys):
    run_a = workspace / "a.txt"
    run_b = workspace / "b.txt"
    run_a.write_text("t1 Q0 d1 1 0.9 a\n", encoding="utf-8")
    run_b.write_text("t1 Q0 d1 1 0.9 b\n", encoding="utf-8")
    code = cli.main(["compare", "--run-a", str(run_a), "--run-b", str(run_b)])
    captured = capsys.readouterr()
    assert code == 1
    values = keyvals(captured.out)
    assert values["topic.t1.rho"] == "missing"
    assert values["rho.mean"] == "missing"
    assert values["topic.t1.jaccard"] == "1.000000"


def test_compare_systems(workspace, capsys):
    json_path = workspace / "compare.json"
    argv = [
        "compare", "--corpus", str(workspace / "corpus.jsonl"),
        "--topics", str(workspace / "topics.tsv"),
        "--engine-a", "rws", "--engine-b", "bm25",
        "--repeats", "100", "-m", "2", "--json", str(json_path),
    ]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    values = keyvals(first)
    assert values["repetitions"] == "2"
    assert -1.0 <= float(values["rho.mean"]) <= 1.0
    report = json.loads(json_path.read_text(encoding="utf-8"))
    assert set(report["per_topic"]) == {"t1", "t2"}
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first


def test_compare_per_side_fatigue_flags(workspace, capsys):
    code = cli.main([
        "compare", "--corpus", str(workspace / "corpus.jsonl"),
        "--topics", str(workspace / "topics.tsv"),
        "--engine-a", "rws", "--engine-b", "rws",
        "--repeats", "100",
        "--node-fatigue-a", "10", "--edge-fatigue-b", "2",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "jaccard.mean=" in captured.out


@pytest.mark.parametrize("flag", ["--node-fatigue", "--edge-fatigue"])
def test_compare_has_no_fatigue_flag_for_both_sides(workspace, capsys, flag):
    with pytest.raises(SystemExit) as err:
        cli.main(["compare", "--corpus", str(workspace / "corpus.jsonl"),
                  "--topics", str(workspace / "topics.tsv"),
                  "--engine-a", "rws", "--engine-b", "rws", flag, "10"])
    assert err.value.code == 2
    assert f"ambiguous option: {flag} could match {flag}-a, {flag}-b" in capsys.readouterr().err


def test_compare_per_side_fatigue_prints_what_the_shared_flag_printed(workspace, capsys):
    # the stdout of `--node-fatigue 10` before that flag was dropped
    shared = ("topic.t1.rho=0.750000\ntopic.t1.jaccard=1.000000\n"
              "topic.t2.rho=0.750000\ntopic.t2.jaccard=1.000000\n"
              "rho.mean=0.750000\nrho.std=0.000000\njaccard.mean=1.000000\n"
              "jaccard.std=0.000000\nrepetitions=2\n")
    assert cli.main([
        "compare", "--corpus", str(workspace / "corpus.jsonl"),
        "--topics", str(workspace / "topics.tsv"), "--engine-a", "rws", "--engine-b", "rws",
        "--repeats", "100", "-m", "2", "--node-fatigue-a", "10", "--node-fatigue-b", "10",
    ]) == 0
    assert capsys.readouterr().out == shared


def test_compare_needs_exactly_one_mode(workspace, capsys):
    assert cli.main(["compare"]) == 2
    assert cli.main([
        "compare", "--run-a", "x", "--engine-a", "rws", "--engine-b", "rws",
    ]) == 2
    assert cli.main([
        "compare", "--engine-a", "rws", "--engine-b", "rws",
        "--corpus", str(workspace / "corpus.jsonl"),
    ]) == 2  # system mode without topics
    capsys.readouterr()
