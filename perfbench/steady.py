#!/usr/bin/env python3
"""Steadiness check for the benchmark defined in BENCHMARK.json.

Runs the benchmark command once per (workload, seed) with --trace 0, then
prints for every end-to-end metric the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the distance
between the first and third quartile as a share of the median, next to the
metric's bound. Run from the repository root:

    python3 perfbench/steady.py --seeds 1-10
    python3 perfbench/steady.py --workloads simd-mixed --seeds 1-5 --json out.json

With --trace the runs use --trace 1 and the script instead reports, per
workload, whether the per-layer exact counts repeat across runs of one seed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)} reported wrong outputs:\n{proc.stdout}")
    return result, elapsed


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", help="comma-separated workloads (default: all in BENCHMARK.json)")
    ap.add_argument("--seeds", default="1-10", help="seed list, e.g. 1-10 or 3,5,7 (default 1-10)")
    ap.add_argument("--seconds", type=int, help="run length (default: run_seconds from BENCHMARK.json)")
    ap.add_argument("--trace", action="store_true", help="check per-layer exact counts instead")
    ap.add_argument("--json", help="also write the collected values to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]

    collected = {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            result, elapsed = run_once(bench, workload, seed, seconds, 1 if args.trace else 0)
            runs.append({"seed": seed, "elapsed_s": elapsed,
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"  {workload} seed {seed}: {elapsed:.1f}s", file=sys.stderr)
        collected[workload] = runs

        length = "traced, fixed work" if args.trace else f"{seconds}s each"
        print(f"\n{workload}  ({len(runs)} runs, {length}, longest {max(r['elapsed_s'] for r in runs):.1f}s wall)")
        for m in metrics:
            values = [r["metrics"][m["name"]] for r in runs]
            if args.trace:
                if m["unit"] in ("count", "ratio") and m["name"] != "trace.coverage":
                    print(f"  {m['name']:36s} {'identical' if len(set(values)) == 1 else 'DIFFERS'}: {sorted(set(values))}")
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            s = spread(values)
            print(f"  {m['name']:14s} median {statistics.median(values):12.6g} {m['unit']:5s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {s:7.4f} bound {m['bound']:.2f} "
                  f"({s / m['bound']:.2f} of bound)")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"seconds": seconds, "seeds": seeds, "runs": collected}, f, indent=1)


if __name__ == "__main__":
    main()
