#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread on one commit.

Runs every named workload once per seed, untraced, from the checkout
root, and prints for each end-to-end metric its median, quartiles and
spread (the distance between the first and third quartile as a share
of the median, as statistics.quantiles(values, n=4) gives them), with
the hypervisor steal each run saw.

    python3 perfbench/noise.py --runs 10 --first-seed 100 figures serve_hot serve_cold

--json FILE also writes every run's stamp and metrics there.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True, timeout=900).stdout
    lines = out.strip().splitlines()
    stamp = next(json.loads(l[len("# stamp "):]) for l in lines if l.startswith("# stamp "))
    return stamp, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--seconds", type=int,
                    default=json.load(open("BENCHMARK.json"))["run_seconds"])
    ap.add_argument("--json")
    args = ap.parse_args()

    record = {}
    for w in args.workloads:
        runs = []
        for i in range(args.runs):
            stamp, res = run_once(w, args.first_seed + i, args.seconds)
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {args.first_seed + i}: {res['failed']} failed ops")
            runs.append({"seed": args.first_seed + i, "stamp": stamp, "metrics": res["metrics"]})
            print(f"{w} seed={args.first_seed + i} steal={stamp['host.steal_pct']:.1f}% "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
                  flush=True)
        summary = {}
        for m in sorted(runs[0]["metrics"]):
            vals = [r["metrics"][m]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            summary[m] = {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}
        steal = [r["stamp"]["host.steal_pct"] for r in runs]
        record[w] = {"runs": runs, "summary": summary,
                     "steal_pct": {"min": min(steal), "median": statistics.median(steal), "max": max(steal)}}
        for m, s in summary.items():
            print(f"  {w:10s} {m:14s} median={s['median']:.4g} q1={s['q1']:.4g} q3={s['q3']:.4g} spread={100 * s['spread']:.1f}%")
        print(f"  {w:10s} steal min/median/max = {min(steal):.1f}/{statistics.median(steal):.1f}/{max(steal):.1f}%", flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
