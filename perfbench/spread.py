#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each end-to-end metric's
median and its spread: the distance between the first and third quartile
as a share of the median (statistics.quantiles, n=4).

    python3 perfbench/spread.py --workload cascade-steady --seeds 1-10 --seconds 20

Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    values = {}
    for s in seeds(args.seeds):
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(s),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {s}: exit {out.returncode}\n{out.stderr}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {s}: output check failed\n{out.stderr}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {s}: attempted {res['attempted']} " +
              " ".join(f"{k}={m['value']:.6g}" for k, m in sorted(res["metrics"].items())),
              flush=True)
    for name, v in sorted(values.items()):
        med = statistics.median(v)
        if len(v) >= 2:
            q1, _, q3 = statistics.quantiles(v, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:20s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}  n {len(v)}")


if __name__ == "__main__":
    main()
