"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/record.py --seeds 1-10                      # all workloads, untraced
    python3 perfbench/record.py --seeds 1-5 --workload zipf-fatigue
    python3 perfbench/record.py --seeds 1-10 --traced-seeds 1 --out perfbench/baseline.json

For each workload and metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and their distance as a share
of the median, beside the metric's bound in BENCHMARK.json; a spread at or
above a third of its bound is flagged. With --out it also writes the machine,
the workload parameters, which end-to-end metric each per-layer metric should
move, and the medians and quartiles.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import asdict

import numpy as np

import gen
from common import BENCH_DIR, ROOT, ROUNDS, WORKLOADS

# Which end-to-end metric a per-layer metric should move, and on which of the
# workloads in BENCHMARK.json.
ALL = ("zipf-fatigue", "weighted-ingest")
MOVES = {
    "indexer.load_inputs_s": (["setup_s"], ["weighted-ingest"]),
    "indexer.build_s": (["setup_s"], ALL),
    "indexer.extend_synonyms_s": (["setup_s"], ["weighted-ingest"]),
    "indexer.extend_context_s": (["setup_s"], ["weighted-ingest"]),
    "indexer.compute_weights_s": (["setup_s"], ["weighted-ingest"]),
    "hypergraph.freeze_s": (["setup_s"], ALL),
    "hypergraph.save_s": (["setup_s", "index_mb"], ALL),
    "hypergraph.load_replay_s": (["load_s"], ALL),
    "hypergraph.load_freeze_s": (["load_s"], ALL),
    "ranking.seed_map_ms": (["query_p50_ms"], ALL),
    "ranking.walk_s": (["query_p50_ms", "query_p90_ms", "queries_per_s"], ALL),
    "ranking.score_s": (["query_p50_ms", "queries_per_s"], ["weighted-ingest"]),
    "ranking.us_per_step.hub": (["query_p90_ms"], ALL),
    "ranking.us_per_step.mid": (["query_p50_ms"], ALL),
    "ranking.us_per_step.tail": (["query_p50_ms"], ALL),
    "ranking.us_per_step.entity": (["query_p50_ms"], ALL),
    "ranking.us_per_step.funnel": (["query_p50_ms"], ["zipf-fatigue"]),
}
NOTES = {
    "hypergraph.nodes": "graph size, the base for ratios",
    "hypergraph.edges": "graph size, the base for ratios",
    "hypergraph.edge_members": "sum of edge sizes, the base for ratios",
    "ranking.seeds_per_query": "count",
    "ranking.steps": "deterministic under the RNG contract; a speed-only change keeps it",
    "ranking.steps_per_budget": "useful work over attempted: steps / (seeds x repeats x length)",
    "ranking.walks_short": "walks that ended before walk_length",
    "ranking.walks_zero": "walks that took no step",
    "baseline.build_s": "reference engine, side measurement: guards shared code, moves nothing",
    "baseline.bm25_ms": "reference engine, side measurement: guards shared code, moves nothing",
    "baseline.postings_scanned": "reference engine work count",
    "trec.write_run_ms": "expected to move nothing",
    "evaluation.evaluate_ms": "`hgoe evaluate` in-process; expected to move nothing",
    "trace.overhead_pct": "traced query pass against the untraced passes around it",
    **{f"ranking.steps_per_budget.{cls}": f"share of the {cls} topics' step budget walked; "
       "see claim.py" for cls in gen.CLASSES},
}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not summary["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stdout}{done.stderr}")
    return {name: m["value"] for name, m in summary["metrics"].items()}


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seeds", default="", help="seeds for --trace 1 runs")
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="default: the workloads of BENCHMARK.json")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    stats: dict[str, dict] = {}
    steady = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = [run_once(workload, seed, seconds, 0) for seed in parse_seeds(args.seeds)]
        stats[workload] = {"end_to_end": {}, "per_layer": {}}
        print(f"== {workload}: {len(runs)} seeds")
        for name, bound in bounds.items():
            s = summarise([r[name] for r in runs])
            stats[workload]["end_to_end"][name] = s
            flag = "" if name == "setup_s" or s["spread"] < bound / 3 else "  <-- spread >= bound/3"
            steady &= not flag
            print(f"   {name:16s} median {s['median']:12.5f}  q1 {s['q1']:12.5f}  q3 {s['q3']:12.5f}"
                  f"  spread {s['spread']:7.4f}  bound {bound}{flag}")
            print("      " + " ".join(f"{v:.4g}" for v in s["values"]))
        traced = [run_once(workload, seed, seconds, 1) for seed in parse_seeds(args.traced_seeds)
                  ] if args.traced_seeds else []
        for m in spec["per_layer"] if traced else []:
            s = summarise([r[m["name"]] for r in traced])
            stats[workload]["per_layer"][m["name"]] = s
    if args.out:
        doc = {
            "machine": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "platform": platform.platform(),
            },
            "settings": {"run_seconds": seconds, "seeds": parse_seeds(args.seeds),
                         "traced_seeds": parse_seeds(args.traced_seeds) if args.traced_seeds else [],
                         "corpus": asdict(gen.FULL)},
            "workloads": {w["name"]: {**asdict(WORKLOADS[w["name"]]), "why": w["why"]}
                          for w in spec["workloads"]},
            "rounds": ROUNDS,
            "per_layer_moves": {
                m["name"]: ({"end_to_end": MOVES[m["name"]][0],
                             "workloads": list(MOVES[m["name"]][1])}
                            if m["name"] in MOVES else {"note": NOTES[m["name"]]})
                for m in spec["per_layer"]
            },
            "results": stats,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
