"""Command line interface.

Subcommands: index, search, evaluate, sweep, compare. Machine-readable
results go to stdout and are byte-stable across reruns; timing and
diagnostics go to stderr on dedicated "time." lines. Exit codes: 0 success,
1 metric anomaly (nothing could be evaluated), 2 input or configuration
error.
"""
from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import sys
import time
from dataclasses import replace
from functools import partial
from typing import Callable

from . import baseline, evaluation, trec
from .errors import ConfigError, HgoeError, InputError
from .hypergraph import Hypergraph, Variant
from .indexer import index_corpus, load_corpus, load_embeddings, load_synonyms
from .ranking import (
    Ranking, RankingParams, SeedSet, map_query_to_seeds, run_timed, rws, step_budget,
)

VARIANT_CHOICES = [v.value for v in Variant]
ENGINE_CHOICES = ["rws", "tfidf", "bm25"]
VARIANT_HELP = "graph built from --corpus (default base); with --index, must be the index's"
# An rws ranking whose step budget (seeds x repeats x length) passes this warns on
# stderr before it walks: `search` once per topic, `compare` once per repetition,
# `sweep` once per variant and topic.
STEP_BUDGET_WARNING = 1_000_000
# `evaluate` and `sweep` score the first RUN_K documents of a ranking, and `search`
# and `compare` keep that many per topic by default (--k).
RUN_K = 1000

# A search ranks a query, keeping at most --k entries; baselines ignore params.
Search = Callable[[str, RankingParams], Ranking]


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code. `search` and `compare`
    call gc.freeze() once the rws graph is ready, which takes every object
    in the process out of the collector's reach until gc.unfreeze()."""
    try:
        args = _parse_args(argv)
        return args.handler(args)
    except (HgoeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """Parse argv, and with --config parse it again over the file's values set as
    the subcommand's defaults: a flag beats the file, which beats the default."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    path = getattr(args, "config", None)
    if not path:
        return args
    with trec.open_text(path) as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    actions = _config_actions(args.config_parser)
    unknown = set(config) - set(actions)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {sorted(unknown)}")
    args.config_parser.set_defaults(
        **{key: _config_value(path, actions[key], value) for key, value in config.items()})
    return parser.parse_args(argv)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgoe",
        description="Hypergraph-of-entity retrieval: index, search, evaluate, sweep, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build a hypergraph index from a .jsonl corpus")
    p.add_argument("--config", help="JSON file of flag values, keyed by flag; flags win")
    p.add_argument("--corpus", help="corpus .jsonl path")
    p.add_argument("--variant", choices=VARIANT_CHOICES, default=Variant.BASE.value)
    p.add_argument("--lexicon", help="synonym lexicon .tsv (one synset per line)")
    p.add_argument("--embeddings", help="word2vec text embeddings")
    p.add_argument("--out", help="output index path")
    p.set_defaults(handler=cmd_index, config_parser=p)

    p = sub.add_parser("search", help="rank documents for one query or a topics file")
    p.add_argument("--index", help="hypergraph index path (rws engine)")
    p.add_argument("--corpus", help="corpus .jsonl (baseline engines, or rws without an index)")
    p.add_argument("--variant", choices=VARIANT_CHOICES, help=VARIANT_HELP)
    p.add_argument("--lexicon")
    p.add_argument("--embeddings")
    p.add_argument("--engine", choices=ENGINE_CHOICES, default="rws")
    p.add_argument("--query", help="ad hoc query text")
    p.add_argument("--topic-id", default="q1", help="topic id used with --query")
    p.add_argument("--topics", help="topics .tsv (topicId<TAB>query)")
    _add_walk_flags(p)
    p.add_argument("--k", type=int, default=RUN_K, help="entries kept per topic")
    p.add_argument("--tag", default="hgoe", help="run tag written to the run lines")
    p.add_argument("--out", help="run file path (default: stdout)")
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("evaluate", help="score a run file against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--k", type=int, default=10, help="cutoff for precision at k")
    p.add_argument("--json", dest="json_out", help="also write a JSON report here")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("sweep", help="grid of fatigue settings over variants, with MAP and timing")
    p.add_argument("--config", help="JSON file of flag values, keyed by flag; flags win")
    p.add_argument("--corpus")
    p.add_argument("--variants", nargs="+", choices=VARIANT_CHOICES, default=[Variant.BASE.value])
    p.add_argument("--lexicon")
    p.add_argument("--embeddings")
    p.add_argument("--topics")
    p.add_argument("--qrels")
    _add_walk_flags(p, sides=())
    p.add_argument("--k", type=int, default=10)
    for side in ("node", "edge"):
        p.add_argument(f"--{side}-fatigue-grid", default="0,10", help="comma list, default 0,10",
                       type=partial(_parse_grid, name=f"{side} fatigue grid"))
    p.add_argument("--out", help="directory for sweep.csv and sweep_timing.csv")
    p.set_defaults(handler=cmd_sweep, config_parser=p)

    p = sub.add_parser("compare", help="per-topic rank agreement between two runs or systems")
    p.add_argument("--run-a", help="first run file")
    p.add_argument("--run-b", help="second run file")
    p.add_argument("--index", help="hypergraph index (rws sides)")
    p.add_argument("--corpus", help="corpus .jsonl (baseline sides, or rws without an index)")
    p.add_argument("--variant", choices=VARIANT_CHOICES, help=VARIANT_HELP)
    p.add_argument("--lexicon")
    p.add_argument("--embeddings")
    p.add_argument("--topics", help="topics .tsv (system mode)")
    p.add_argument("--engine-a", choices=ENGINE_CHOICES)
    p.add_argument("--engine-b", choices=ENGINE_CHOICES)
    p.add_argument("-m", "--repetitions", type=int, default=1)
    _add_walk_flags(p, sides=("-a", "-b"))
    p.add_argument("--k", type=int, default=RUN_K)
    p.add_argument("--json", dest="json_out")
    p.set_defaults(handler=cmd_compare)
    return parser


def _add_walk_flags(p: argparse.ArgumentParser, sides: tuple[str, ...] = ("",)) -> None:
    """The walk flags, defaulting to RankingParams()'s values, with a fatigue pair per
    suffix in `sides`: `compare` sets each side's, `sweep` takes its from the grids."""
    defaults = RankingParams()
    p.add_argument("--length", type=int, default=defaults.walk_length, help="walk length")
    p.add_argument("--repeats", type=int, default=defaults.repeats, help="walks per seed")
    for side in sides:
        p.add_argument(f"--node-fatigue{side}", type=int, default=defaults.node_fatigue)
        p.add_argument(f"--edge-fatigue{side}", type=int, default=defaults.edge_fatigue)
    p.add_argument("--rng-seed", type=int, default=defaults.rng_seed)


def _config_actions(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """The flags a --config file may set, by key (the dest): all but --help and --config."""
    return {action.dest: action for action in parser._actions
            if action.default is not argparse.SUPPRESS and action.dest != "config"}


def _config_value(path: str, action: argparse.Action, value):
    """A config value as its flag takes it, converted by its type and checked against
    its choices. A flag without a type takes a string, none takes a JSON float or
    boolean (`--length 2.7` exits 2), and one with nargs takes a non-empty array."""
    def convert(item):
        if isinstance(item, (bool, float)) or action.type is None and not isinstance(item, str):
            raise TypeError
        item = action.type(item) if action.type else item
        if action.choices is not None and item not in action.choices:
            raise ValueError
        return item

    try:
        if not action.nargs:
            return convert(value)
        if isinstance(value, list) and value:
            return [convert(item) for item in value]
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{path}: bad value for {action.dest!r}: {value!r}")


def _open_sources(args: argparse.Namespace, engines: list[str], variants: list[Variant]):
    """Open each source file the `engines` read, once: (index graph, documents, lexicon,
    embeddings), None for any not read; `index` and `sweep` run "rws", compare on run
    files none. rws reads --index (whose variant --variant must name if given), else
    --corpus and, if one of `variants` is not base, --lexicon and --embeddings; tfidf
    and bm25 read --corpus. Once every read has succeeded, one warning on stderr names
    the source flags given but not read, which stay unopened."""
    index = getattr(args, "index", None)
    read = set()
    reader = f"engine {'/'.join(dict.fromkeys(engines))}" if engines else "--run-a/--run-b"
    if "rws" in engines:
        if not (index or args.corpus):
            raise ConfigError("the rws engine needs --index or --corpus")
        read = {"variant", "index" if index else "corpus"}
        reader = "--index" if index else "variant base"
        if not index and any(variant is not Variant.BASE for variant in variants):
            read |= {"lexicon", "embeddings"}
    if set(engines) - {"rws"}:
        if not args.corpus:
            raise ConfigError("the tfidf and bm25 engines need --corpus")
        read.add("corpus")
    graph = Hypergraph.load(index) if "index" in read else None
    if graph and args.variant and Variant(args.variant) is not graph.variant:
        raise ConfigError(
            f"--variant {args.variant} does not match the index's variant {graph.variant.value}")
    documents = load_corpus(args.corpus) if "corpus" in read else None
    lexicon = load_synonyms(args.lexicon) if "lexicon" in read and args.lexicon else None
    embeddings = (load_embeddings(args.embeddings)
                  if "embeddings" in read and args.embeddings else None)
    unread = [f"--{flag}" for flag in ("index", "corpus", "variant", "lexicon", "embeddings")
              if getattr(args, flag, None) and flag not in read]
    if unread:
        print(f"warning: {reader} reads no {' or '.join(unread)}; not opened", file=sys.stderr)
    return graph, documents, lexicon, embeddings


def _check_k(k: int) -> int:
    if k < 1:
        raise InputError("k must be at least 1")
    return k


def _check_out(flag: str, path: str | None) -> None:
    """Reject an output path whose directory is missing; opens, creates and truncates nothing."""
    parent = os.path.dirname(path or "") or "."
    if path and not os.path.isdir(parent):
        raise ConfigError(f"{flag}: no such directory: {parent}")


def _read_topics(path: str) -> list[tuple[str, str]]:
    topics = trec.read_topics(path)
    if not topics:
        raise InputError(f"{path}: no topics")
    return topics


# -- index ------------------------------------------------------------------

def cmd_index(args: argparse.Namespace) -> int:
    if not args.corpus:
        raise ConfigError("index needs --corpus")
    if not args.out:
        raise ConfigError("index needs --out")
    _check_out("--out", args.out)
    variant = Variant(args.variant)
    started = time.perf_counter_ns()
    _, documents, lexicon, embeddings = _open_sources(args, ["rws"], [variant])
    graph = index_corpus(documents, variant, lexicon, embeddings)
    graph.save(args.out)
    elapsed_ms = (time.perf_counter_ns() - started) / 1e6
    print(f"index.out={args.out}")
    print(f"index.variant={variant.value}")
    print(f"index.documents={graph.doc_count}")
    print(f"index.nodes={len(graph.nodes)}")
    print(f"index.edges={len(graph.edges)}")
    print(f"time.index.total_ms={elapsed_ms:.3f}", file=sys.stderr)
    per_doc = elapsed_ms / graph.doc_count if graph.doc_count else 0.0
    print(f"time.index.per_doc_ms={per_doc:.3f}", file=sys.stderr)
    return 0


# -- engines ------------------------------------------------------------------

def _params(args: argparse.Namespace, node_fatigue: int, edge_fatigue: int) -> RankingParams:
    """The walk flags, with the fatigue of one ranking, as RankingParams."""
    return RankingParams(walk_length=args.length, repeats=args.repeats, node_fatigue=node_fatigue,
                         edge_fatigue=edge_fatigue, rng_seed=args.rng_seed)


def _engines(args: argparse.Namespace, names: list[str]) -> dict[str, Search]:
    """Searches for the engines in `names` (both baselines if either is named); the
    caller has checked k."""
    k = args.k
    variant = Variant(args.variant or Variant.BASE.value)
    graph, documents, lexicon, embeddings = _open_sources(args, names, [variant])
    searches: dict[str, Search] = {}
    if "rws" in names:
        if graph is None:
            graph = index_corpus(documents, variant, lexicon, embeddings)
        # The graph's records form no cycles, yet they sit in the young
        # generation, so the next collections would walk them all (8-12 ms
        # after loading a 5,000-document index). gc.freeze moves every object
        # in the process out of the collector's reach, not just the graph's,
        # which is a choice for a command to make and not for the library.
        gc.freeze()

        def search_rws(query: str, params: RankingParams) -> Ranking:
            return Ranking(rws(graph, _seed_set(graph, query, params), params).entries[:k])

        searches["rws"] = search_rws
    if set(names) - {"rws"}:
        inverted = baseline.build_inverted(documents)
        searches["tfidf"] = lambda query, params: baseline.search_tfidf(inverted, query, k)
        searches["bm25"] = lambda query, params: baseline.search_bm25(inverted, query, k)
    return searches


def _seed_set(graph: Hypergraph, query: str, params: RankingParams) -> SeedSet:
    """The query's seeds; first a warning on stderr if its step budget passes
    STEP_BUDGET_WARNING."""
    seed_set = map_query_to_seeds(graph, query)
    seeds = len(seed_set.seeds)
    budget = step_budget(params, seeds)
    if budget > STEP_BUDGET_WARNING:
        print(f"warning: query {query!r} may take up to {budget:,} steps ({seeds:,} seeds"
              f" x {params.repeats:,} repeats x length {params.walk_length}), above"
              f" {STEP_BUDGET_WARNING:,}", file=sys.stderr)
    return seed_set


# -- search -------------------------------------------------------------------

def _search_topics(args: argparse.Namespace) -> list[tuple[str, str]]:
    if args.topics and args.query:
        raise ConfigError("use --query or --topics, not both")
    if args.topics:
        return _read_topics(args.topics)
    if args.query:
        trec.check_token("topic id", args.topic_id)
        return [(args.topic_id, args.query)]
    raise ConfigError("search needs --query or --topics")


def cmd_search(args: argparse.Namespace) -> int:
    _check_k(args.k)
    params = _params(args, args.node_fatigue, args.edge_fatigue)
    trec.check_token("run tag", args.tag)
    _check_out("--out", args.out)
    topics = _search_topics(args)
    started = time.perf_counter_ns()
    search = _engines(args, [args.engine])[args.engine]
    setup_ns = time.perf_counter_ns() - started
    total_ns = 0
    run: dict[str, list[tuple[str, float]]] = {}
    for topic_id, query in topics:
        started = time.perf_counter_ns()
        run[topic_id] = search(query, params).entries
        total_ns += time.perf_counter_ns() - started
    trec.write_run(args.out or sys.stdout, run, args.tag)
    print(f"time.search.setup_ms={setup_ns / 1e6:.3f}", file=sys.stderr)
    print(f"time.search.total_ms={total_ns / 1e6:.3f}", file=sys.stderr)
    print(f"time.search.avg_ms={total_ns / len(topics) / 1e6:.3f}", file=sys.stderr)
    return 0


# -- evaluate -----------------------------------------------------------------

def _score(run: dict[str, list[tuple[str, float]]], qrels: dict[str, dict[str, int]], k: int,
           warn: bool = True) -> tuple[evaluation.MapResult, dict[str, float], float]:
    """Score a run's rankings as `evaluate` and `sweep` both do: every ranked topic, and
    every judged topic with a relevant document, on the first RUN_K documents of its
    ranking; a judged topic with no ranking scores AP 0 and P@k 0 (trec_eval's -c).
    With `warn`, a stderr line names each such topic and each unjudged one skipped."""
    unranked = sorted(topic_id for topic_id, judged in qrels.items()
                      if topic_id not in run and any(grade > 0 for grade in judged.values()))
    scored = {topic_id: [doc for doc, _ in run.get(topic_id, [])[:RUN_K]]
              for topic_id in [*run, *unranked]}
    result, per_topic_p, mean_p = evaluation.evaluate_run(scored, qrels, k)
    if warn:
        for topic_id in unranked:
            print(f"warning: topic {topic_id!r} has no ranking, scored 0", file=sys.stderr)
        for topic_id in result.skipped_unknown:
            print(f"warning: topic {topic_id!r} has no judgements, skipped", file=sys.stderr)
    return result, per_topic_p, mean_p


def cmd_evaluate(args: argparse.Namespace) -> int:
    _check_k(args.k)
    _check_out("--json", args.json_out)
    run = trec.read_run(args.run)
    qrels = trec.read_qrels(args.qrels)
    result, per_topic_p, mean_p = _score(run, qrels, args.k)
    p_label = f"p_at_{args.k}"
    for topic_id, ap in result.per_topic.items():
        print(f"topic.{topic_id}.ap={ap:.6f}")
        print(f"topic.{topic_id}.{p_label}={per_topic_p[topic_id]:.6f}")
    print(f"map={result.mean:.6f}")
    print(f"{p_label}={mean_p:.6f}")
    print(f"topics.evaluated={len(result.per_topic)}")
    print(f"topics.excluded_no_relevant={len(result.excluded_no_relevant)}")
    print(f"topics.skipped_unknown={len(result.skipped_unknown)}")
    if args.json_out:
        _write_json(args.json_out, {
            "map": result.mean,
            p_label: mean_p,
            "k": args.k,
            "per_topic": {
                t: {"ap": ap, p_label: per_topic_p[t]} for t, ap in result.per_topic.items()
            },
            "excluded_no_relevant": result.excluded_no_relevant,
            "skipped_unknown": result.skipped_unknown,
        })
    if not result.per_topic:
        print("error: no topic could be evaluated", file=sys.stderr)
        return 1
    return 0


# -- sweep --------------------------------------------------------------------

def _parse_grid(value, name: str) -> list[int]:
    """A grid flag's type: a comma list of integers >= 0, or a JSON array of them."""
    if isinstance(value, str):
        parts = value.split(",")
    elif isinstance(value, list):
        parts = value
    else:
        raise ConfigError(f"{name} must be a comma list or a JSON array")
    try:
        grid = [int(str(x)) for x in parts]  # as text, so 2.7 and true are no integers
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must contain integers") from exc
    if not grid or any(x < 0 for x in grid):
        raise ConfigError(f"{name} must be non-empty and non-negative")
    return grid


def cmd_sweep(args: argparse.Namespace) -> int:
    if not args.corpus or not args.topics or not args.qrels:
        raise ConfigError("sweep needs --corpus, --topics and --qrels")
    _check_k(args.k)
    variants = [Variant(v) for v in args.variants]
    cells = [(nf, ef, _params(args, nf, ef))
             for nf in args.node_fatigue_grid for ef in args.edge_fatigue_grid]
    _check_out("--out", args.out and f"{args.out}/sweep.csv")
    topics = _read_topics(args.topics)
    qrels = trec.read_qrels(args.qrels)
    _, documents, lexicon, embeddings = _open_sources(args, ["rws"], variants)

    rows = []
    timing_rows = []
    p_label = f"p_at_{args.k}"
    for variant in variants:
        graph = index_corpus(documents, variant, lexicon, embeddings)
        # the cells differ only in fatigue, so they share each topic's step budget
        seed_sets = [(topic_id, _seed_set(graph, query, cells[0][2])) for topic_id, query in topics]
        for node_fatigue, edge_fatigue, params in cells:
            run: dict[str, list[tuple[str, float]]] = {}
            total_steps = 0
            total_ns = 0
            for topic_id, seed_set in seed_sets:
                ranking, elapsed = run_timed(graph, seed_set, params)
                run[topic_id] = ranking.entries
                total_steps += ranking.total_steps
                total_ns += elapsed
            # every cell ranks the same topics, so only the first one warns
            result, _, mean_p = _score(run, qrels, args.k, warn=not rows)
            cell = {"variant": variant.value, "node_fatigue": node_fatigue,
                    "edge_fatigue": edge_fatigue}
            rows.append({**cell, "map": result.mean, p_label: mean_p,
                         "total_steps": total_steps})
            timing_rows.append({**cell, "avg_topic_ms": total_ns / len(topics) / 1e6,
                                "total_ms": total_ns / 1e6})
    for row in rows:
        print("sweep" + "".join(f" {key}={_cell(value)}" for key, value in row.items()))
    for row in timing_rows:
        print("time.sweep" + "".join(f" {key}={_cell(value, 3)}" for key, value in row.items()),
              file=sys.stderr)
    if args.out:
        _write_csv(f"{args.out}/sweep.csv", rows)
        _write_csv(f"{args.out}/sweep_timing.csv", timing_rows)
    return 0


def _write_json(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, rows: list[dict]) -> None:
    """Write rows that share the first row's keys, which make the header."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({key: _cell(value) for key, value in row.items()})


def _cell(value, digits: int = 6):
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return value


# -- compare ------------------------------------------------------------------

def _system(search: Search, params: RankingParams) -> evaluation.System:
    """A search as compare runs it: each run's seed replaces params.rng_seed."""
    return lambda query, seed: search(query, replace(params, rng_seed=seed)).doc_ids()


def cmd_compare(args: argparse.Namespace) -> int:
    run_mode = bool(args.run_a or args.run_b)
    system_mode = bool(args.engine_a or args.engine_b)
    if run_mode == system_mode:
        raise ConfigError("compare needs either --run-a/--run-b or --engine-a/--engine-b")
    _check_out("--json", args.json_out)
    if run_mode:
        if not (args.run_a and args.run_b):
            raise ConfigError("compare needs both --run-a and --run-b")
        run_a = trec.read_run(args.run_a)
        run_b = trec.read_run(args.run_b)
        shared = sorted(set(run_a) & set(run_b))
        if not shared:
            raise InputError("the two runs share no topics")
        topics = [(topic_id, topic_id) for topic_id in shared]
        _open_sources(args, [], [])
        system_a = lambda topic_id, seed: [d for d, _ in run_a[topic_id]]  # noqa: E731
        system_b = lambda topic_id, seed: [d for d, _ in run_b[topic_id]]  # noqa: E731
        repetitions = 1
    else:
        if not (args.engine_a and args.engine_b):
            raise ConfigError("compare needs both --engine-a and --engine-b")
        if not args.topics:
            raise ConfigError("system-mode compare needs --topics")
        if args.repetitions < 1:
            raise InputError("repetitions must be at least 1")
        _check_k(args.k)
        params_a = _params(args, args.node_fatigue_a, args.edge_fatigue_a)
        params_b = _params(args, args.node_fatigue_b, args.edge_fatigue_b)
        topics = _read_topics(args.topics)
        searches = _engines(args, [args.engine_a, args.engine_b])
        system_a = _system(searches[args.engine_a], params_a)
        system_b = _system(searches[args.engine_b], params_b)
        repetitions = args.repetitions
    report = evaluation.repeated_comparison(
        system_a, system_b, topics, repetitions, base_seed=args.rng_seed
    )
    for topic_id, _ in topics:
        rho = report.per_topic_rho[topic_id]
        rho_text = f"{rho:.6f}" if rho is not None else "missing"
        print(f"topic.{topic_id}.rho={rho_text}")
        print(f"topic.{topic_id}.jaccard={report.per_topic_jaccard[topic_id]:.6f}")
    print(f"rho.mean={report.rho_mean:.6f}" if report.rho_mean is not None else "rho.mean=missing")
    print(f"rho.std={report.rho_std:.6f}" if report.rho_std is not None else "rho.std=missing")
    print(f"jaccard.mean={report.jaccard_mean:.6f}")
    print(f"jaccard.std={report.jaccard_std:.6f}")
    print(f"repetitions={report.repetitions}")
    if args.json_out:
        _write_json(args.json_out, {
            "repetitions": report.repetitions,
            "per_topic": {
                t: {"rho": report.per_topic_rho[t], "jaccard": report.per_topic_jaccard[t]}
                for t, _ in topics
            },
            "rho_mean": report.rho_mean,
            "rho_std": report.rho_std,
            "jaccard_mean": report.jaccard_mean,
            "jaccard_std": report.jaccard_std,
        })
    if report.rho_mean is None:
        print("error: no topic produced a comparable ranking pair", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
