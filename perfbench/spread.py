#!/usr/bin/env python3
"""Run the benchmark several times per workload, each with its own seed, and
print each metric's interquartile range as a share of its median.

    python3 perfbench/spread.py [--runs 10] [workload ...]

Run from the repository root.  The command, run length and workloads come
from BENCHMARK.json; with no workload names every workload is run.  Run i
uses seed i, from 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in workloads:
        values = {}
        for i in range(args.runs):
            seed = i + 1
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            start = time.time()
            out = subprocess.run(cmd, capture_output=True, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: INCORRECT\n{out.stderr}", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {time.time() - start:.1f}s "
                  + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()
                             if k in bounds), file=sys.stderr)
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            note = "" if bound is None else f" bound {bound} ({spread / bound:.2f} of bound)"
            print(f"{workload} {name}: median {med:.6g} spread {spread:.4f}{note}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
