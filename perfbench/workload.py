"""One stage of a workload, run the way the `hgoe` CLI runs it, in a fresh process.

run.py starts one process per stage over inputs it generated beforehand, as
a user runs one `hgoe` command per process:

    python3 perfbench/workload.py index  --inputs DIR --workload NAME --out FILE
    python3 perfbench/workload.py load   --inputs DIR --workload NAME --out FILE
    python3 perfbench/workload.py search --inputs DIR --workload NAME --until T \
        [--first-pass K] [--check] --out FILE

`index` is `hgoe index`; `load` times `Hypergraph.load` alone, which every
`hgoe search --index` pays; `search` loads the index and runs the topics as
`hgoe search --topics` does, in passes, until the wall-clock time T, writing
the run file; with --check it makes one whole pass at least, then runs
`hgoe evaluate` and checks the outputs. Each writes
a JSON record with its measurements and its own peak RSS, read before any
output check.

With --trace-out FILE.npz, `index` and `search` instead wrap the program's
public functions (see `install`), write their spans to FILE.npz and report
per-layer times and counts. `search` then brackets its traced pass with two
untraced passes of the same topics, which gives the tracing overhead.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import signal
import statistics
import time
from array import array
from pathlib import Path

import numpy as np

import checks
from common import EVAL_K, RUN_K, WORKLOADS, import_program, load_reference
from gen import CLASSES
from spans import SpanTable, Tracer

import_program()

from hgoe import baseline, cli, evaluation, hypergraph, indexer, ranking, trec  # noqa: E402
from hgoe.hypergraph import Hypergraph, Variant  # noqa: E402
from hgoe.ranking import RankingParams  # noqa: E402


def install(tracer: Tracer) -> None:
    """Wrap the bindings the CLI and the engine actually call."""
    for attr in ("load_corpus", "load_synonyms", "load_embeddings", "index_corpus"):
        tracer.wrap(cli, attr, f"cli.{attr}")
    for attr in ("extend_synonyms", "extend_context", "compute_weights"):
        tracer.wrap(indexer, attr, f"indexer.{attr}")
    for attr in ("freeze", "save", "load"):
        tracer.wrap(hypergraph.Hypergraph, attr, f"Hypergraph.{attr}")
    tracer.wrap(ranking, "map_query_to_seeds", "ranking.map_query_to_seeds",
                count=lambda seed_set: len(seed_set.seeds))
    tracer.wrap(ranking, "random_walk", "ranking.random_walk", count=lambda walk: walk[2])
    for attr in ("build_inverted", "search_bm25"):
        tracer.wrap(baseline, attr, f"baseline.{attr}")
    for attr in ("write_run", "read_run", "read_qrels", "read_topics"):
        tracer.wrap(trec, attr, f"trec.{attr}")
    for attr in ("mean_average_precision", "precision_at_k"):
        tracer.wrap(evaluation, attr, f"evaluation.{attr}")


class SpeedProbe:
    """Times a short loop from a timer signal, to state timings at a fixed reference speed.

    On the 2-vCPU machine this benchmark was written on, load from outside
    the machine slows a plain Python loop by up to 1.9 times, for stretches
    of a few milliseconds to whole minutes, and on both vCPUs independently.
    So even the fastest or the median of several samples varies with the
    stretch a run falls in. While the probe is armed, a SIGALRM handler
    times LOOPS iterations of a loop every INTERVAL_S; `scaled_ns` takes the
    time of a span less the probes inside it and scales it by REFERENCE_NS
    over the median probe in and around it. The reference is a constant, not
    the fastest probe of the process, since the fastest of a few hundred
    probes itself moves by a quarter with the load. The probes cost about 1%
    of the time they are armed for.
    """

    INTERVAL_S = 0.005
    LOOPS = 1000
    NEAREST = 8       # probes a span is scaled by, at least: the nearest ones for short spans
    # The loop's time on that machine when it is quiet (Python 3.11); a span
    # scaled by it reads as the seconds it would take there.
    REFERENCE_NS = 27_000

    def __init__(self):
        self.at = array("q")
        self.took = array("q")

    @classmethod
    def _loop(cls) -> int:
        started = time.perf_counter_ns()
        total = 0
        for i in range(cls.LOOPS):
            total += i
        return time.perf_counter_ns() - started

    def _tick(self, signum, frame) -> None:
        took = self._loop()
        self.at.append(time.perf_counter_ns())
        self.took.append(took)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def scaled_ns(self, span: tuple[int, int], less_ns: int = 0) -> float:
        """The time of span (perf_counter_ns start, end), less less_ns, at the reference speed."""
        start, end = span
        lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        own = sum(self.took[lo:hi])
        while hi - lo < self.NEAREST and (lo > 0 or hi < len(self.at)):
            lo = max(lo - 1, 0)
            hi = min(hi + (hi - lo < self.NEAREST), len(self.at))
        if hi == lo:
            return float(end - start - less_ns)
        return (end - start - own - less_ns) * self.REFERENCE_NS / statistics.median(self.took[lo:hi])


class FullCollections:
    """Records the spans of the cyclic collector's full (generation 2) collections.

    A full collection walks the whole heap, the loaded graph included, and
    falls on whichever topic allocates past the collector's threshold: on a
    fatigue pass about 30 of them take some 80 ms each, a fifth of the pass.
    A topic's latency sample leaves them out (`inside`); a whole pass's time
    keeps them.
    """

    def __init__(self):
        self.starts = array("q")
        self.ends = array("q")
        self._started = 0

    def _callback(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._started = time.perf_counter_ns()
        else:
            self.starts.append(self._started)
            self.ends.append(time.perf_counter_ns())

    def __enter__(self) -> "FullCollections":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)

    def inside(self, span: tuple[int, int]) -> int:
        """Nanoseconds of full collections within span (perf_counter_ns start, end)."""
        lo, hi = bisect.bisect_left(self.starts, span[0]), bisect.bisect_right(self.ends, span[1])
        return sum(self.ends[lo:hi]) - sum(self.starts[lo:hi])


def quiet_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


class Session:
    """Paths, parameters and the attempted/failed tally of one stage."""

    def __init__(self, inputs: Path, workload):
        self.inputs = inputs
        self.workload = workload
        self.index = inputs / "index.hgoe"
        self.run_file = inputs / "run.txt"
        self.attempted = 0
        self.failures: list[str] = []
        self.params = RankingParams(**workload.walk_flags())
        self.probe = SpeedProbe()

    def record(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def setup(self) -> tuple[int, int]:
        argv = ["index", "--corpus", str(self.inputs / "corpus.jsonl"),
                "--variant", self.workload.variant, "--out", str(self.index)]
        if self.workload.variant != Variant.BASE.value:
            argv += ["--lexicon", str(self.inputs / "lexicon.tsv"),
                     "--embeddings", str(self.inputs / "vectors.txt")]
        started = time.perf_counter_ns()
        rc = quiet_cli(argv)
        span = started, time.perf_counter_ns()
        self.record(f"index exited {rc}", rc == 0)
        return span

    def load(self):
        """Hypergraph.load of the index: (graph, its time span in perf_counter_ns)."""
        started = time.perf_counter_ns()
        graph = Hypergraph.load(str(self.index))
        span = started, time.perf_counter_ns()
        self.record("load", True)
        return graph, span

    def query_pass(self, graph, topics, order=None, until: float | None = None,
                   tracer: Tracer | None = None):
        """One `hgoe search --topics` loop over the topics in `order` (file order by default).

        Returns (full rankings in file order, time span in perf_counter_ns by
        topic index). With `until`, a wall-clock time, the pass stops at the
        first topic boundary after it and returns the topics it ran.
        """
        entries, spans = {}, {}
        for i in range(len(topics)) if order is None else order:
            if until is not None and time.time() >= until:
                break
            topic_id, query = topics[i]
            t0 = time.perf_counter_ns()
            if tracer is None:
                result, _ = cli.run_timed(graph, query, self.params)
            else:
                with tracer.span("query", value=i):
                    result, _ = cli.run_timed(graph, query, self.params)
            spans[i] = t0, time.perf_counter_ns()
            entries[i] = result.entries
        self.attempted += len(spans)
        return {topics[i][0]: entries[i] for i in sorted(entries)}, spans

    def write_run(self, rankings) -> str:
        run = {topic_id: entries[:RUN_K] for topic_id, entries in rankings.items()}
        with open(self.run_file, "w", encoding="utf-8") as fh:
            trec.write_run(fh, run, "hgoe")
        return hashlib.sha256(self.run_file.read_bytes()).hexdigest()

    def evaluate(self) -> dict:
        report = self.inputs / "eval.json"
        rc = quiet_cli(["evaluate", "--run", str(self.run_file), "--qrels",
                        str(self.inputs / "qrels.txt"), "--k", str(EVAL_K), "--json", str(report)])
        self.record(f"evaluate exited {rc}", rc == 0)
        return json.loads(report.read_text()) if rc == 0 else {}

    def check_score_sums(self, rankings) -> None:
        for topic_id, entries in rankings.items():
            total = math.fsum(score for _, score in entries)
            self.record(f"scores of {topic_id} sum to {total!r}",
                        not entries or abs(total - 1.0) <= 1e-9)

    def check_outputs(self, graph, topics) -> None:
        run_lines: dict[str, list[str]] = {}
        with open(self.run_file, encoding="utf-8") as fh:
            for line in fh:
                run_lines.setdefault(line.split(" ", 1)[0], []).append(line.rstrip("\n"))
        rws = cli.rws
        results = [checks.check_run_file(rws, trec.format_run_lines, graph, topics, self.params,
                                         run_lines, RUN_K)]
        if self.workload.reference_check:
            results.append(checks.check_reference(load_reference(), rws, graph, topics, self.params))
        if self.params.node_fatigue or self.params.edge_fatigue:
            results.append(checks.check_fatigue_windows(rws, graph, topics, self.params))
        self.attempted += len(checks.sample_topics(topics)) * len(results)
        for failures in results:
            self.failures += failures


def elapsed_s(span: tuple[int, int]) -> float:
    return (span[1] - span[0]) / 1e9


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- untraced stages ----------------------------------------------------------

def index_stage(session: Session) -> dict:
    with session.probe:
        span = session.setup()
    data = session.index.read_bytes()
    return {"seconds": session.probe.scaled_ns(span) / 1e9, "raw_seconds": elapsed_s(span),
            "index_bytes": len(data), "index_digest": hashlib.sha256(data).hexdigest(),
            "peak_rss_kb": peak_rss_kb()}


def load_stage(session: Session) -> dict:
    with session.probe:
        _, span = session.load()
    return {"seconds": session.probe.scaled_ns(span) / 1e9, "raw_seconds": elapsed_s(span),
            "peak_rss_kb": peak_rss_kb()}


def search_stage(session: Session, until: float, first_pass: int, check: bool) -> dict:
    """Load, then passes over the topics until the wall-clock time `until`.

    Pass k runs the topics in an order drawn from k alone, so the machine's
    speed drift falls on other topics in each pass, and a topic's median
    sample, less the full collections inside it, is its own cost. A pass cut
    short by `until` still gives samples; only whole passes write
    the run file and time the batch. With `check` the search makes one whole
    pass at least, then runs `hgoe evaluate` and the output checks.
    """
    topics = trec.read_topics(str(session.inputs / "topics.tsv"))
    spans: list[list[tuple[int, int]]] = [[] for _ in topics]
    passes, digests = [], []
    number = first_pass
    with session.probe:
        graph, load_span = session.load()
    with session.probe, FullCollections() as collections:
        while (check and not passes) or time.time() < until:
            order = np.random.default_rng(number).permutation(len(topics)).tolist()
            number += 1
            rankings, ran = session.query_pass(graph, topics, order, until if passes else None)
            for i, span in ran.items():
                spans[i].append(span)
            if len(ran) == len(topics):
                passes.append(list(ran.values()))
                digests.append(session.write_run(rankings))
                whole = rankings
    scaled = session.probe.scaled_ns
    result = {
        "load_seconds": scaled(load_span) / 1e9,
        "load_raw_seconds": elapsed_s(load_span),
        "samples_ns": [[scaled(span, collections.inside(span)) for span in topic]
                       for topic in spans],
        "raw_samples_ns": [[span[1] - span[0] - collections.inside(span) for span in topic]
                           for topic in spans],
        "pass_ns": [sum(scaled(span) for span in ran) for ran in passes],
        "digests": digests,
    }
    if check:
        report = session.evaluate()
        result.update(map=report.get("map", math.nan), p_at_10=report.get(f"p_at_{EVAL_K}", math.nan))
    result["peak_rss_kb"] = peak_rss_kb()
    if check:
        session.check_score_sums(whole)
        session.check_outputs(graph, topics)
    return result


# -- traced stages ------------------------------------------------------------

def index_traced(session: Session, trace_out: Path) -> dict:
    tracer = Tracer()
    install(tracer)
    with tracer.span("setup") as setup_root:
        session.setup()
    if session.workload.variant == Variant.BASE.value:
        # This workload indexes without enrichment. Time the enrichment layers
        # on its corpus aside, so that every workload measures them.
        with tracer.span("side.enrich"):
            docs = cli.load_corpus(str(session.inputs / "corpus.jsonl"))
            cli.index_corpus(docs, Variant.WEIGHTED,
                             cli.load_synonyms(str(session.inputs / "lexicon.tsv")),
                             cli.load_embeddings(str(session.inputs / "vectors.txt")))
    tracer.restore()
    tracer.save(trace_out)
    t = SpanTable(tracer)
    in_setup = t.under(setup_root)
    inputs = ("cli.load_corpus", "cli.load_synonyms", "cli.load_embeddings")
    return {
        "metrics": {
            "indexer.load_inputs_s": sum(t.seconds(n, in_setup) for n in inputs),
            "indexer.build_s": t.seconds("cli.index_corpus", in_setup, self_time=True),
            "indexer.extend_synonyms_s": t.seconds("indexer.extend_synonyms"),
            "indexer.extend_context_s": t.seconds("indexer.extend_context"),
            "indexer.compute_weights_s": t.seconds("indexer.compute_weights"),
            "hypergraph.freeze_s": t.seconds("Hypergraph.freeze", in_setup,
                                             parent="cli.index_corpus"),
            "hypergraph.save_s": t.seconds("Hypergraph.save", in_setup),
        },
        "accounting": {"setup": t.breakdown(setup_root)},
    }


def total_ns(spans: dict) -> int:
    return sum(end - start for start, end in spans.values())


def search_traced(session: Session, trace_out: Path) -> dict:
    workload = session.workload
    tracer = Tracer()
    install(tracer)
    with tracer.span("load") as load_root:
        graph, _ = session.load()
    topics = trec.read_topics(str(session.inputs / "topics.tsv"))
    tracer.restore()
    rankings, plain_before = session.query_pass(graph, topics)
    plain_digest = session.write_run(rankings)
    install(tracer)
    with tracer.span("query_loop") as loop_root:
        rankings, traced = session.query_pass(graph, topics, tracer=tracer)
    tracer.restore()
    _, plain_after = session.query_pass(graph, topics)
    install(tracer)
    digest = session.write_run(rankings)
    with tracer.span("evaluate") as eval_root:
        session.evaluate()
    with tracer.span("side.baseline"):
        inverted = baseline.build_inverted(indexer.load_corpus(str(session.inputs / "corpus.jsonl")))
        for _, query in topics:
            baseline.search_bm25(inverted, query, RUN_K)
    tracer.restore()
    tracer.save(trace_out)
    session.record("traced run file differs from the untraced one", digest == plain_digest)
    session.check_score_sums(rankings)
    session.check_outputs(graph, topics)

    t = SpanTable(tracer)
    in_loop = t.under(loop_root)
    queries = t.mask("query") & in_loop
    walks = t.mask("ranking.random_walk") & in_loop
    seed_maps = t.mask("ranking.map_query_to_seeds") & in_loop
    walk_class = [CLASSES[i % len(CLASSES)] for i in t.value[t.parent[walks]]]
    seed_class = [CLASSES[i % len(CLASSES)] for i in t.value[t.parent[seed_maps]]]
    walk_steps, walk_ns = t.value[walks], t.dur[walks]
    budget = t.value[seed_maps] * workload.repeats * workload.walk_length
    bm25 = t.mask("baseline.search_bm25")
    metrics = {
        "hypergraph.load_replay_s": t.seconds("Hypergraph.load", t.under(load_root), self_time=True),
        "hypergraph.load_freeze_s": t.seconds("Hypergraph.freeze", t.under(load_root)),
        "hypergraph.nodes": len(graph.nodes),
        "hypergraph.edges": len(graph.edges),
        "hypergraph.edge_members": sum(len(e.members) + len(e.tail) + len(e.head)
                                       for e in graph.edges),
        "ranking.seed_map_ms": t.seconds("ranking.map_query_to_seeds", in_loop) * 1e3 / len(topics),
        "ranking.seeds_per_query": float(t.value[seed_maps].mean()),
        "ranking.walk_s": float(walk_ns.sum()) / 1e9,
        "ranking.score_s": float(t.self_ns[queries].sum()) / 1e9,
        "ranking.steps": int(walk_steps.sum()),
        "ranking.steps_per_budget": float(walk_steps.sum() / budget.sum()),
        "ranking.walks_short": int((walk_steps < workload.walk_length).sum()),
        "ranking.walks_zero": int((walk_steps == 0).sum()),
    }
    for cls in CLASSES:
        in_walks = [c == cls for c in walk_class]
        steps = int(walk_steps[in_walks].sum())
        metrics[f"ranking.us_per_step.{cls}"] = float(walk_ns[in_walks].sum()) / 1e3 / max(steps, 1)
        metrics[f"ranking.steps_per_budget.{cls}"] = (
            steps / int(budget[[c == cls for c in seed_class]].sum()))
    metrics.update({
        "baseline.build_s": t.seconds("baseline.build_inverted"),
        "baseline.bm25_ms": float(t.dur[bm25].sum()) / 1e6 / int(bm25.sum()),
        "baseline.postings_scanned": sum(len(inverted.postings.get(term, ()))
                                         for _, query in topics
                                         for term in indexer.tokenize(query)),
        "trec.write_run_ms": t.seconds("trec.write_run") * 1e3,
        "evaluation.evaluate_ms": float(t.dur[eval_root]) / 1e6,
        "trace.overhead_pct": (2 * total_ns(traced)
                               / (total_ns(plain_before) + total_ns(plain_after)) - 1) * 100.0,
    })
    return {
        "passes": 1,
        "samples": len(topics),
        "digest": digest,
        "metrics": metrics,
        "accounting": {"load": t.breakdown(load_root), "query_loop": t.breakdown(loop_root)},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("stage", choices=("index", "load", "search"))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--until", type=float, default=0.0,
                        help="search: wall-clock time (time.time()) to end the passes at")
    parser.add_argument("--first-pass", type=int, default=0,
                        help="search: number of the first pass, which draws its topic order")
    parser.add_argument("--check", action="store_true",
                        help="search: one whole pass at least, then evaluate and check")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace-out", type=Path, help="trace this stage, spans to this .npz")
    args = parser.parse_args()
    session = Session(args.inputs, WORKLOADS[args.workload])
    if args.stage == "index":
        result = (index_traced(session, args.trace_out) if args.trace_out
                  else index_stage(session))
    elif args.stage == "load":
        result = load_stage(session)
    else:
        result = (search_traced(session, args.trace_out) if args.trace_out
                  else search_stage(session, args.until, args.first_pass, args.check))
    result.update(attempted=session.attempted, failures=session.failures)
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
