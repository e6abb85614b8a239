#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and record a baseline.

Runs every workload untraced once per seed, in two sets with disjoint
seeds, going round the workloads seed by seed so that a drift in the
host's speed lands in every workload's spread; then once traced per
workload. Writes the raw results, each run's wall time, the per-metric
quartiles and the host facts to a JSON file:

    python3 bench/spread.py --runs 10 --out bench/baseline/baseline.json

For each end-to-end metric, and each dropped candidate the untraced run
prints on standard error, it prints the spread of each set (the distance
between the first and third quartile as a share of the median, quartiles
as statistics.quantiles(values, n=4) gives them) and how far the second
set's median moved from the first's, next to the bound BENCHMARK.json
declares. Run it from the repository root.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

CANDIDATE = re.compile(r"^candidate (\S+) (\S+) (\S+)$", re.M)


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "bench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    rec = json.loads(lines[-1])
    for name, value, unit in CANDIDATE.findall(proc.stderr):
        rec["metrics"][name] = {"value": float(value), "unit": unit, "candidate": True}
    rec.update(seed=seed, wall_s=wall)
    return rec


def host_facts():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "gomaxprocs": os.cpu_count(), "cpu_model": model,
            "go_version": go, "os": platform.platform(),
            "date": time.strftime("%Y-%m-%d", time.gmtime())}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--seconds", type=int, default=None, help="run length (default: BENCHMARK.json)")
    ap.add_argument("--workloads", default="", help="comma-separated subset (default: all)")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    doc = {"host": host_facts(), "run_seconds": seconds, "runs_per_set": args.runs,
           "workloads": {name: {"sets": [[], []]} for name in names}}
    for s in range(2):
        for seed in range(1 + s * args.runs, 1 + (s + 1) * args.runs):
            for name in names:
                doc["workloads"][name]["sets"][s].append(run_once(name, seed, seconds, 0))
    for name in names:
        w = doc["workloads"][name]
        w["traced"] = run_once(name, 1, seconds, 1)
        w["summary"] = {}
        print(f"{name}:")
        for metric in sorted(w["sets"][0][0]["metrics"]):
            a = spread([r["metrics"][metric]["value"] for r in w["sets"][0]])
            b = spread([r["metrics"][metric]["value"] for r in w["sets"][1]])
            shift = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
            bnd = bounds.get(metric)
            w["summary"][metric] = {"set1": a, "set2": b, "median_shift": shift, "bound": bnd}
            label = f"bound {bnd:5.2f}" if bnd is not None else "candidate "
            print(f"  {metric:14s} {label}  spread {a['spread']:7.4f} {b['spread']:7.4f}"
                  f"  median {a['median']:12.6g} -> {b['median']:12.6g} ({shift:+.4f})")
        walls = [r["wall_s"] for st in w["sets"] for r in st]
        print(f"  wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
