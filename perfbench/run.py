"""hgoe benchmark: seeded inputs, then `hgoe index` -> `search` -> `evaluate`, checked.

    python3 perfbench/run.py --workload zipf-fatigue --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload in turn
    python3 perfbench/run.py --workload zipf-walk --smoke     # small corpus, a few seconds

Run from the root of a checkout. The inputs are generated from --seed into
.perfbench/ (see gen.py), the workload runs in child processes of its own
(workload.py) in rounds that share --seconds, one thread and one client in
a closed loop, and its outputs are checked (checks.py). The report ends with one
JSON line {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones. Exit status 1 means an operation or an output check failed,
2 that the checkout holds no program to measure.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import gen
from common import BENCH_DIR, ROOT, ROUNDS, WORKLOADS, import_program

WORK_DIR = ROOT / ".perfbench"
RUN_TIMEOUT_S = 165    # all stages of one workload; a run must end within 180 s
PASS_STRIDE = 1000     # round r numbers its passes from r * PASS_STRIDE; a number draws an order
SMOKE_TOPICS = 25


def metric_specs() -> tuple[list[dict], list[dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


class StageFailed(Exception):
    pass


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Generate, run and check one workload; returns the result record."""
    workload = WORKLOADS[name]
    work = WORK_DIR / f"run-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    stages, failures = [], []

    def stage(*args: str) -> dict:
        out = work / f"stage-{len(stages)}.json"
        argv = [sys.executable, str(BENCH_DIR / "workload.py"), *args, "--inputs", str(work),
                "--workload", name, "--out", str(out)]
        try:
            child = subprocess.run(argv, capture_output=True, text=True,
                                   timeout=max(deadline - time.monotonic(), 1))
        except subprocess.TimeoutExpired:
            raise StageFailed(f"{args[0]} ran past the {RUN_TIMEOUT_S} s limit") from None
        if child.returncode != 0:
            tail = child.stderr.strip().splitlines()[-1:] or ["no stderr"]
            raise StageFailed(f"{args[0]} exited {child.returncode}: {tail[0]}")
        stages.append(json.loads(out.read_text()))
        return stages[-1]

    try:
        started = time.perf_counter()
        if smoke:
            inputs = gen.generate(seed, min(workload.topics, SMOKE_TOPICS), work, gen.SMOKE)
        else:
            inputs = gen.generate(seed, workload.topics, work)
        result = {"inputs_digest": inputs.digest(), "generate_s": time.perf_counter() - started}
        if trace:
            traces = WORK_DIR / f"trace-{name}-{seed}"
            index = stage("index", "--trace-out", f"{traces}-index.npz")
            search = stage("search", "--trace-out", f"{traces}-search.npz")
            result["metrics"] = {**index["metrics"], **search["metrics"]}
            result["accounting"] = {**index["accounting"], **search["accounting"]}
            result.update({k: search[k] for k in ("digest", "passes", "samples")})
        else:
            # The machine's speed drifts by tens of percent over seconds to
            # minutes, so every timing is stated at a fixed reference speed (see
            # workload.SpeedProbe) and the samples of each kind are spread over
            # ROUNDS rounds that share `seconds`. The probe's correction is
            # noisy for one sample, but its median over several is steady, so
            # each metric is a median: setup_s of the index builds, load_s of
            # the loads, a topic's latency of its samples and queries_per_s of
            # the whole passes.
            index, loads, samples, pass_ns, digests, fixed = [], [], [], [], [], []
            raw_loads, raw_samples, checked = [], [], None
            ends = time.monotonic() + seconds
            for r in range(ROUNDS):
                started = time.monotonic()
                index.append(stage("index"))
                load = stage("load")
                loads.append(load["seconds"])
                raw_loads.append(load["raw_seconds"])
                fixed.append(time.monotonic() - started)
                left = ROUNDS - r
                share = (ends - time.monotonic() - (left - 1) * statistics.mean(fixed)) / left
                search = stage("search", "--until", repr(time.time() + max(share, 0.0)),
                               "--first-pass", str(r * PASS_STRIDE),
                               *(["--check"] if r == 0 else []))
                checked = checked or search
                loads.append(search["load_seconds"])
                raw_loads.append(search["load_raw_seconds"])
                samples = [mine + theirs for mine, theirs
                           in itertools.zip_longest(samples, search["samples_ns"], fillvalue=[])]
                raw_samples = [mine + theirs for mine, theirs in itertools.zip_longest(
                    raw_samples, search["raw_samples_ns"], fillvalue=[])]
                pass_ns += search["pass_ns"]
                digests += search["digests"]
            typical = [statistics.median(topic) for topic in samples]
            across = {
                "index bytes differ between builds": len({r["index_digest"] for r in index}) == 1,
                "run file differs between passes": len(set(digests)) == 1,
            }
            failures += [what for what, ok in across.items() if not ok]
            result.update(loads=len(loads), passes=len(pass_ns), samples=len(typical),
                          per_topic=(min(map(len, samples)), max(map(len, samples))),
                          digest=digests[0], across_checks=len(across))
            raw_typical = [statistics.median(topic) for topic in raw_samples]
            result["raw"] = {
                "setup_s": statistics.median(r["raw_seconds"] for r in index),
                "load_s": statistics.median(raw_loads),
                "query_p50_ms": statistics.median(raw_typical) / 1e6,
                "query_p90_ms": statistics.quantiles(raw_typical, n=10)[8] / 1e6,
            }
            result["metrics"] = {
                "setup_s": statistics.median(r["seconds"] for r in index),
                "load_s": statistics.median(loads),
                "query_p50_ms": statistics.median(typical) / 1e6,
                "query_p90_ms": statistics.quantiles(typical, n=10)[8] / 1e6,
                "queries_per_s": len(typical) / (statistics.median(pass_ns) / 1e9),
                "map": checked["map"],
                "p_at_10": checked["p_at_10"],
                "index_mb": index[-1]["index_bytes"] / 1e6,
                "peak_rss_mb": max(r["peak_rss_kb"] for r in stages) / 1024,
            }
        failures += [f for r in stages for f in r["failures"]]
    except StageFailed as exc:
        result, failures = {"metrics": {}}, [str(exc)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["failures"] = failures
    # A stage that failed outright counts as one failed operation.
    result["attempted"] = (sum(r["attempted"] for r in stages) + (not result["metrics"])
                           + result.pop("across_checks", 0))
    return result


def report(name: str, seed: int, trace: bool, result: dict) -> dict:
    """Print the human-readable report and return the JSON summary."""
    end_to_end, per_layer = metric_specs()
    specs = per_layer if trace else end_to_end
    failures = list(result["failures"])
    metrics = {}
    print(f"== {name} seed={seed} trace={int(trace)}")
    if "digest" in result:
        print(f"   inputs sha256 {result['inputs_digest']} (generated in {result['generate_s']:.2f} s)")
        print(f"   run file sha256 {result['digest']}; {result['samples']} topics")
        if not trace:
            low, high = result["per_topic"]
            print(f"   setup_s is the median of {ROUNDS} `hgoe index` processes, load_s the "
                  f"median of {result['loads']} fresh-process loads; query latencies are each "
                  f"topic's median of {low}-{high} samples in shuffled passes, queries_per_s "
                  f"is over the median of {result['passes']} whole passes; every time is stated at the "
                  f"probe's reference speed (workload.SpeedProbe). As timed: " + ", ".join(
                      f"{name} {value:.4g}" for name, value in result["raw"].items()))
    for spec in specs:
        value = result["metrics"].get(spec["name"])
        if value is not None and math.isfinite(value):
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
            print(f"   {spec['name']:34s} {value:14.6f} {spec['unit']}")
    missing = [spec["name"] for spec in specs if spec["name"] not in metrics]
    if missing and result["metrics"]:
        failures.append(f"no value for {', '.join(missing)}")
    for section, parts in result.get("accounting", {}).items():
        print(f"   {section} {parts['total']:.3f} s by self time:")
        for part, seconds in sorted(parts.items(), key=lambda kv: -kv[1]):
            if part != "total":
                print(f"      {part:32s} {seconds:9.3f} s {100 * seconds / parts['total']:6.1f}%")
    attempted = max(result["attempted"], 1)
    print(f"   {'error_rate':34s} {len(failures) / attempted:14.6f} fraction "
          f"({len(failures)} failed of {attempted} attempted)")
    for failure in failures:
        print(f"   FAILED: {failure}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small corpus for self-tests")
    args = parser.parse_args()
    import_program()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        summaries[name] = report(name, args.seed, bool(args.trace), result)
    if len(names) == 1:
        summary = summaries[names[0]]
    else:
        summary = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{name}/{metric}": value for name, s in summaries.items()
                        for metric, value in s["metrics"].items()},
        }
    print(json.dumps(summary, allow_nan=False))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
