#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/collect.py --out results.jsonl [--workloads a,b] [--seeds 1-10]
                                 [--seconds S] [--trace 0|1]

Run from the repository root. Each run's JSON result is appended to --out as one line,
{"workload", "seed", "trace", "result"}, which compare.py reads. For every workload and metric
the summary prints the median, the quartiles (statistics.quantiles(values, n=4)), and the
spread (Q3 - Q1) / median, marked against the metric's bound from BENCHMARK.json. A run that
exits non-zero or reports correct=false stops the collection.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values):
    """(Q1, median, Q3) as the benchmark's acceptance rule computes them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def run_one(spec, workload, seed, seconds, trace):
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}, result {result}")
    return result


def summarize(records, spec):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    by_workload = {}
    for rec in records:
        by_workload.setdefault(rec["workload"], []).append(rec["result"])
    for workload, results in by_workload.items():
        print(f"{workload} ({len(results)} runs)")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) < 2:
                print(f"  {name:40s} {values[0]:.6g}")
                continue
            q1, med, q3 = quartiles(values)
            s = spread(values)
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                mark = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
                mark = f"bound {bound:g}: {mark}"
            print(f"  {name:40s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {s:.4f} {mark}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default=None, help="comma list (default: all)")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    records = []
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            result = run_one(spec, workload, seed, seconds, args.trace)
            rec = {"workload": workload, "seed": seed, "trace": args.trace, "result": result}
            records.append(rec)
            with open(args.out, "a") as f:
                f.write(json.dumps(rec) + "\n")
            print(f"{workload} seed {seed} done", file=sys.stderr)
    summarize(records, spec)


if __name__ == "__main__":
    if not os.path.isfile("BENCHMARK.json"):
        sys.exit("run from the repository root (BENCHMARK.json not found)")
    main()
