"""Compare two sets of benchmark runs.

Usage, from the repository root::

    python3 perfbench/compare.py FIRST.jsonl SECOND.jsonl

Each file holds one JSON result per line, as ``run.py --json-out``
appends them (any mix of workloads and seeds).  For every workload
and end-to-end metric this prints each set's median, quartiles and
spread (interquartile distance over the median), and whether the two
sets agree: the second median is no worse than the first by more than
the metric's ``bound`` from ``BENCHMARK.json``, and each set's spread
is within the bound.  Exits 1 when any pairing disagrees.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.arith import spread  # noqa: E402


def load(path: str) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, plus the failed-op shares."""
    sets: Dict[str, Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(list))
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            result = json.loads(line)
            metrics = sets[result["workload"]]
            for name, value in result["end_to_end"].items():
                metrics[name].append(float(value))
            metrics["failed_share"].append(
                result["failed"] / result["attempted"])
    return sets


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in
              spec["end_to_end"]}
    first, second = load(argv[0]), load(argv[1])
    ok = True
    for workload in sorted(set(first) | set(second)):
        print(f"== {workload}: {len(first[workload].get('setup_s', []))} "
              f"vs {len(second[workload].get('setup_s', []))} runs")
        for name, (bound, better) in bounds.items():
            a, b = first[workload].get(name), second[workload].get(name)
            if not a or not b:
                print(f"  {name:<22} missing in one set")
                ok = False
                continue
            med_a, q1_a, q3_a, rel_a = spread(a)
            med_b, q1_b, q3_b, rel_b = spread(b)
            change = (med_b - med_a) / med_a
            worse = -change if better == "higher" else change
            agree = worse <= bound and rel_a <= bound and rel_b <= bound
            ok = ok and agree
            print(f"  {name:<22} {med_a:10.4f} [{q1_a:.4f}, {q3_a:.4f}] "
                  f"spread {rel_a:6.3f} | {med_b:10.4f} [{q1_b:.4f}, "
                  f"{q3_b:.4f}] spread {rel_b:6.3f} | change "
                  f"{change:+.3f} (bound {bound}) "
                  f"{'agree' if agree else 'DISAGREE'}")
        shares = (sorted(set(first[workload]["failed_share"])),
                  sorted(set(second[workload]["failed_share"])))
        same = len(shares[0]) == 1 and shares[0] == shares[1]
        ok = ok and same
        print(f"  failed-op share: {shares[0]} vs {shares[1]} "
              f"{'agree' if same else 'DISAGREE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
