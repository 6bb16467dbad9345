#!/usr/bin/env python3
"""Compares two result sets of the benchmark, workload by workload and metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Run from the repository root. Each file holds collect.py output lines. For every workload
and end-to-end metric it prints both sides' medians and quartiles, the fraction of runs
paired by seed that NEW wins (ties count for neither side), and a verdict:

  better         NEW wins at least 9/10 of the pairs, and the medians differ by more than
                 BASE's own spread (Q3 - Q1);
  unresolved     either side's spread is wider than the metric's bound, and not every NEW
                 run beats every BASE run;
  worse          NEW's median is worse than BASE's by more than the bound;
  within bound   otherwise.

Exit code 1 when any verdict is `worse`.
"""
import json
import sys

from collect import load_spec, quartiles


def load(path):
    by_key = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("trace", 0) == 0:
                by_key.setdefault(rec["workload"], {})[rec["seed"]] = rec["result"]["metrics"]
    return by_key


def verdict(base, new, bound, higher_is_better):
    sign = 1 if higher_is_better else -1
    b_q1, b_med, b_q3 = quartiles(base)
    n_q1, n_med, n_q3 = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    win_fraction = wins / len(pairs)
    gain = sign * (n_med - b_med)
    if win_fraction >= 0.9 and gain > b_q3 - b_q1:
        return "better", win_fraction
    spread = max(b_q3 - b_q1, n_q3 - n_q1) / b_med if b_med else float("inf")
    every_new_better = min(sign * n for n in new) > max(sign * b for b in base)
    if spread > bound and not every_new_better:
        return "unresolved", win_fraction
    if -gain > bound * abs(b_med):
        return "worse", win_fraction
    return "within bound", win_fraction


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = load_spec()
    base, new = load(sys.argv[1]), load(sys.argv[2])
    any_worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds = sorted(set(base.get(workload, {})) & set(new.get(workload, {})))
        if len(seeds) < 2:
            print(f"{workload}: fewer than two seeds in both sets, skipped")
            continue
        print(f"{workload} ({len(seeds)} seed-paired runs)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [base[workload][s][name]["value"] for s in seeds]
            n = [new[workload][s][name]["value"] for s in seeds]
            result, win = verdict(b, n, metric["bound"], metric["better"] == "higher")
            any_worse |= result == "worse"
            b_q1, b_med, b_q3 = quartiles(b)
            n_q1, n_med, n_q3 = quartiles(n)
            print(f"  {name:16s} base {b_med:<11.6g} [{b_q1:.6g}, {b_q3:.6g}]  "
                  f"new {n_med:<11.6g} [{n_q1:.6g}, {n_q3:.6g}]  "
                  f"wins {win:.2f}  {result}")
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
