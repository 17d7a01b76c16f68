"""Fatigue-claim report: per topic class, fatigue off (zipf-walk) beside fatigue on (zipf-fatigue).

    python3 perfbench/claim.py --seed 1

Runs both workloads traced on one seed. For each topic class it prints the
microseconds per executed step, the share of the step budget
(seeds x repeats x walk length) the walks actually used, and their product,
the microseconds per budgeted step. Fatigue saves time on a class only where
that product falls: a walk that fatigue starves takes fewer steps, while
each step that does run filters its transitions against the fatigue table.
"""
from __future__ import annotations

import argparse
import sys

from common import import_program
from gen import CLASSES
from run import run_workload

OFF, ON = "zipf-walk", "zipf-fatigue"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    import_program()
    metrics = {}
    for name in (OFF, ON):
        result = run_workload(name, args.seed, 0, trace=True, smoke=args.smoke)
        if result["failures"]:
            print(f"{name} failed: {result['failures']}")
            return 1
        metrics[name] = result["metrics"]
    print(f"fatigue claim, seed {args.seed}: {OFF} (fatigue off) vs {ON} (node and edge fatigue 10)")
    print(f"{'class':8s} {'us/step off':>12s} {'us/step on':>12s} {'budget off':>11s} "
          f"{'budget on':>10s} {'us/budgeted off':>16s} {'us/budgeted on':>15s} {'on/off':>8s}")
    for cls in CLASSES:
        step = {n: metrics[n][f"ranking.us_per_step.{cls}"] for n in (OFF, ON)}
        used = {n: metrics[n][f"ranking.steps_per_budget.{cls}"] for n in (OFF, ON)}
        per_budget = {n: step[n] * used[n] for n in (OFF, ON)}
        ratio = per_budget[ON] / per_budget[OFF]
        verdict = "fatigue saves time" if ratio < 1 else "fatigue costs time"
        print(f"{cls:8s} {step[OFF]:12.2f} {step[ON]:12.2f} {used[OFF]:11.3f} {used[ON]:10.3f} "
              f"{per_budget[OFF]:16.2f} {per_budget[ON]:15.2f} {ratio:8.1f}x  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
