#!/usr/bin/env python3
"""Runs one workload N times, each with another seed, and prints for every
metric the median, the quartiles, the quartile spread as a share of the
median (the figure the bounds in BENCHMARK.json are set against) and the
worst deviation from the median. Also prints each run's steal seconds.

    python3 perfbench/steady.py --workload disk-cold --runs 10
    python3 perfbench/steady.py --workload read-hot --runs 5 --trace 1

Run from the repository root. No run is discarded.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values, shares = {}, []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(f"seed {seed}: exit code {proc.returncode}")
        res = json.loads(lines[-1])
        steal = [float(s) for s in re.findall(r"([\d.]+)s steal", proc.stdout)]
        shares.append(res["failed"] / res["attempted"])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} steal_s={steal}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("    " + " ".join(f"{n}={m['value']:.4g}" for n, m in sorted(res["metrics"].items())), flush=True)

    print(f"\n{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'worst':>8} {'bound':>6}")
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else 0.0
        worst = max(abs(x - med) for x in v) / med if med else 0.0
        bound = bounds.get(name)
        flag = " !" if bound is not None and name != "setup_s" and spread > bound / 3 else ""
        print(f"{name:34} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {worst:8.3f} "
              f"{'' if bound is None else bound:>6}{flag}")
    print(f"\nfailed share per run: {sorted(set(shares))}")


if __name__ == "__main__":
    main()
