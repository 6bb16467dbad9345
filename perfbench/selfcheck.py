#!/usr/bin/env python3
"""Determinism and contract self-check of the benchmark.

    python3 perfbench/selfcheck.py [--workloads a,b] [--seed A] [--other-seed B] [--seconds S]

Run from the repository root. For every workload it runs seed A twice untraced and twice
traced, and seed B once each way. It fails unless

  - every run exits 0 with correct=true and failed=0 (error_rate 0);
  - each run reports exactly the metric names of BENCHMARK.json (end_to_end untraced,
    per_layer traced), with the units listed there;
  - the two seed-A runs agree exactly on the simulated metrics (sim_*) and on every
    per-layer count (span call counts, layer counts, bench.sim_*);
  - seed B runs clean, so a claim can be checked on a seed it was not tuned on.
"""
import argparse
import sys

from collect import load_spec, run_one

WALL_SUFFIXES = (".wall_s", ".p50_us", ".p99_us", "ops_per_wall_s")


def exact_metrics(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.startswith("sim_") or
            (not name.endswith(WALL_SUFFIXES) and name not in ("setup_s", "peak_rss_mb"))}


def check_names(result, listed, what):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in listed}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        sys.exit(f"{what}: metric names differ from BENCHMARK.json: missing {missing}, "
                 f"extra {extra}, unit mismatch {units}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--other-seed", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    for workload in workloads:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            what = f"{workload} trace {trace}"
            first = run_one(spec, workload, args.seed, args.seconds, trace)
            second = run_one(spec, workload, args.seed, args.seconds, trace)
            other = run_one(spec, workload, args.other_seed, args.seconds, trace)
            for result in (first, second, other):
                check_names(result, listed, what)
                if result["failed"] != 0:
                    sys.exit(f"{what}: {result['failed']} failed units")
            a, b = exact_metrics(first), exact_metrics(second)
            diff = sorted(name for name in a if a[name] != b.get(name))
            if diff:
                sys.exit(f"{what}: seed {args.seed} repeats differ on {diff}")
            print(f"{what}: {len(a)} exact metrics identical across repeats of seed "
                  f"{args.seed}; seed {args.other_seed} clean")
    print("selfcheck ok")


if __name__ == "__main__":
    main()
