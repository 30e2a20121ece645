#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload mc-get-zipf --runs 10 --seconds 20

Runs the workload once per seed (1..runs, or --first-seed onwards) through
perfbench/run.py and prints, per end-to-end metric, the median, the
interquartile range as a share of the median (statistics.quantiles with
n=4), and the metric's bound from BENCHMARK.json. A metric is steady when
its spread is below a third of its bound; setup_s is exempt from the
spread check (only its median is compared between commits).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    bad = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        r = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else ""
        try:
            res = json.loads(last)
        except json.JSONDecodeError:
            print(f"seed {seed}: no result (exit {r.returncode})")
            bad += 1
            continue
        if r.returncode != 0 or not res["correct"]:
            bad += 1
        line = [f"seed {seed}:"]
        for n, m in res["metrics"].items():
            values[n].append(m["value"])
            line.append(f"{n}={m['value']:.4g}")
        print(" ".join(line), flush=True)
    unsteady = 0
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        if len(v) < 2:
            continue
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ok = m["name"] == "setup_s" or spread < m["bound"] / 3
        unsteady += not ok
        print(f"{m['name']:<16} median {med:12.4f} {m['unit']:<5} spread {spread:7.3f} "
              f"bound {m['bound']:.2f} {'ok' if ok else 'UNSTEADY'}")
    sys.exit(1 if bad or unsteady else 0)


if __name__ == "__main__":
    main()
