#!/usr/bin/env python3
"""Runs a workload on several seeds and prints each end-to-end metric's
median and spread (interquartile distance over the median, from
statistics.quantiles(values, n=4)).

Run from the repository root:

    python3 perfbench/spread.py water-serial 1 10    # seeds 1..10
"""
import json
import statistics
import subprocess
import sys


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    workload, first, last = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    bench = json.load(open("BENCHMARK.json"))
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(first, last + 1):
        out = subprocess.run(
            bench["command"] + ["--workload", workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: a correctness check failed")
        for name, v in result["metrics"].items():
            values[name].append(v["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    print(f"{'metric':<18} {'median':>10} {'spread':>7} {'bound':>6}")
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        print(f"{m['name']:<18} {med:>10.4g} {(q[2] - q[0]) / med:>7.3f} {m['bound']:>6}")


if __name__ == "__main__":
    main()
