#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py [--seconds 2]

Runs every workload of BENCHMARK.json, and admit-corpus, briefly,
untraced and traced, through perfbench/run.py and checks that each run
exits 0, passes its correctness checks, attempts at least one operation
and emits every end-to-end (untraced) or per-layer (traced) metric as a
finite number;
also that perfbench/layers.json describes every per-layer metric.
Exits non-zero on the first problem.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"smoke: FAIL {msg}")
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    for m in spec["per_layer"]:
        if m["name"] not in layers["per_layer"]:
            fail(f"layers.json does not describe {m['name']}")
    for w in spec["workloads"] + [{"name": "admit-corpus"}]:
        for trace in (0, 1):
            names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            r = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
                 "--seed", "1", "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            tag = f"{w['name']} --trace {trace}"
            if r.returncode != 0:
                print(r.stdout)
                fail(f"{tag}: exit {r.returncode}")
            res = json.loads(r.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                fail(f"{tag}: correct={res['correct']} failed={res['failed']} "
                     f"attempted={res['attempted']}")
            if sorted(res["metrics"]) != sorted(names):
                fail(f"{tag}: metrics {sorted(set(names) ^ set(res['metrics']))} differ")
            for n, m in res["metrics"].items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    fail(f"{tag}: {n} = {m['value']}")
            print(f"smoke: ok {tag}: {res['attempted']} attempted, {len(names)} metrics")
    print("smoke: all workloads passed")


if __name__ == "__main__":
    main()
