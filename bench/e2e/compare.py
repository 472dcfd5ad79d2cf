#!/usr/bin/env python3
"""Compares two sets of bench/e2e results against BENCHMARK.json's bounds.

    python3 bench/e2e/compare.py BASE NEW

BASE and NEW are directories (or single files) of untraced result JSON
written by run.py.  For each workload and each end-to-end metric this
prints both sets' median and quartiles, the change of the medians, and
a verdict against the metric's bound:

  within      the medians differ by at most the bound
  worse       NEW is worse than BASE by more than the bound
  better      NEW is better than BASE by more than the bound
  unresolved  a set's quartile spread exceeds the bound, so the medians
              cannot be compared at that resolution -- unless every NEW
              run reads better (then "better") or worse (then "worse")
              than every BASE run

Exits 1 when any verdict is "worse" or "unresolved".
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(arg):
    """workload -> metric -> list of values, from untraced results."""
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = {}
    for f in files:
        result = json.loads(f.read_text())
        if "workload" not in result or result.get("trace") != 0:
            continue
        metrics = out.setdefault(result["workload"], {})
        for name, m in result["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return out


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric, base, new):
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bound = metric["bound"]
    b1, bm, b3 = summary(base)
    n1, nm, n3 = summary(new)
    change = sign * (nm - bm) / bm
    spread = max((b3 - b1) / bm, (n3 - n1) / nm)
    if spread > bound:
        if all(sign * n < sign * b for n in new for b in base):
            return "better"
        if all(sign * n > sign * b for n in new for b in base):
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(sys.argv[1]), load(sys.argv[2])
    header = (f"{'workload':<12} {'metric':<13} {'unit':<10} "
              f"{'base median [q1, q3]':<42} {'new median [q1, q3]':<42} "
              f"{'change':>8} {'bound':>6}  verdict")
    print(header)
    bad = 0
    for workload in sorted(set(base) | set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = base.get(workload, {}).get(name)
            n = new.get(workload, {}).get(name)
            if not b or not n:
                print(f"{workload:<12} {name:<13} missing in one set")
                bad += 1
                continue
            word = verdict(metric, b, n)
            change = statistics.median(n) / statistics.median(b) - 1.0
            bad += word in ("worse", "unresolved")
            cells = []
            for values in (b, n):
                q1, med, q3 = summary(values)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}")
            print(f"{workload:<12} {name:<13} {metric['unit']:<10} "
                  f"{cells[0]:<42} {cells[1]:<42} {change * 100:>+7.2f}% "
                  f"{metric['bound'] * 100:>5.0f}%  {word}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
