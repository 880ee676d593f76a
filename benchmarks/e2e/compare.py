#!/usr/bin/env python3
"""A/B verdicts for the end-to-end benchmark.

Usage::

    python3 benchmarks/e2e/compare.py A_DIR B_DIR

Each directory holds untraced ``run.py --out FILE`` results, one file per
run; runs pair up in file-name order (name them so that A and B
alternate in time).  For every workload and end-to-end metric it prints
each side's median and quartiles, the share of pairs B won, and a
verdict against the metric's bound in ``BENCHMARK.json``:

* ``improved``   B wins at least 9 in 10 pairs (ties count for neither)
  and the medians differ by more than A's interquartile range;
* ``regressed``  B's median is worse than A's by more than the bound;
* ``unresolved`` either side's spread (IQR / median) exceeds the bound
  and not every B run beats every A run;
* ``unchanged``  otherwise.

Per workload it also compares the share of operations that failed
(raised, got an unexpected status or answered wrongly): any increase is
a regression, whatever the metrics say.

Exits 1 when anything regressed, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import common


def load(directory: Path) -> Tuple[Dict[tuple, List[float]],
                                   Dict[str, List[int]]]:
    """``(workload, metric) -> values`` over the untraced runs, in
    file-name order, and ``workload -> [failed, attempted]`` summed over
    them."""
    values: Dict[tuple, List[float]] = {}
    failures: Dict[str, List[int]] = {}
    files = sorted(directory.glob("*.json"))
    if not files:
        raise SystemExit(f"error: no result files in {directory}")
    for path in files:
        run = json.loads(path.read_text())
        if run.get("traced"):
            continue
        for workload, result in run["workloads"].items():
            for name, metric in result["metrics"].items():
                values.setdefault((workload, name), []).append(
                    metric["value"])
            counts = failures.setdefault(workload, [0, 0])
            counts[0] += result["failed"]
            counts[1] += result["attempted"]
    return values, failures


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    qa = statistics.quantiles(a, n=4)
    qb = statistics.quantiles(b, n=4)
    med_a, med_b = statistics.median(a), statistics.median(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    worse = sign * (med_b - med_a) / med_a
    spread = max((qa[2] - qa[0]) / med_a, (qb[2] - qb[0]) / med_b)
    all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if (wins >= 0.9 * len(pairs) and worse < 0
            and abs(med_b - med_a) > qa[2] - qa[0]):
        label = "improved"
    elif worse > bound:
        label = "regressed"
    elif spread > bound and not all_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return {"a": (med_a, qa[0], qa[2]), "b": (med_b, qb[0], qb[2]),
            "change": -worse, "wins": wins / len(pairs), "spread": spread,
            "verdict": label}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a_dir", type=Path)
    parser.add_argument("b_dir", type=Path)
    args = parser.parse_args(argv)
    spec = common.load_spec()
    (a, a_failed), (b, b_failed) = load(args.a_dir), load(args.b_dir)
    print(f"{'workload':11s} {'metric':17s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'change':>7s} {'B wins':>6s} "
          f"{'spread':>6s} {'bound':>5s}  verdict")
    regressed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        if workload in a_failed and workload in b_failed:
            share_a, share_b = (failed / attempted for failed, attempted
                                in (a_failed[workload], b_failed[workload]))
            worse = share_b > share_a
            regressed += worse
            cells = [f"{failed}/{attempted}" for failed, attempted
                     in (a_failed[workload], b_failed[workload])]
            print(f"{workload:11s} {'failed':17s} {cells[0]:>30s} "
                  f"{cells[1]:>30s} {'':>7s} {'':>6s} {'':>6s} "
                  f"{'0':>5s}  {'regressed' if worse else 'unchanged'}")
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            if min(len(a[key]), len(b[key])) < 2:
                raise SystemExit("error: need at least two runs per side")
            v = verdict(a[key], b[key], metric["better"], metric["bound"])
            regressed += v["verdict"] == "regressed"
            cells = [f"{m:.5g} [{lo:.5g}, {hi:.5g}]"
                     for m, lo, hi in (v["a"], v["b"])]
            print(f"{workload:11s} {metric['name']:17s} {cells[0]:>30s} "
                  f"{cells[1]:>30s} {v['change']:+7.1%} {v['wins']:6.0%} "
                  f"{v['spread']:6.1%} {metric['bound']:5.0%}  "
                  f"{v['verdict']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
