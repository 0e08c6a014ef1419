#!/usr/bin/env python3
"""Append one trajectory point built from the benchmark's run records.

Run from the repository root after running the benchmark on one commit,
ten seeds per workload with --trace 0 and one seed with --trace 1:

    python3 perfbench/trajectory.py --note "what changed"

Per workload it takes the median and the quartile spread (Q3 - Q1 over
the median, as statistics.quantiles gives them) of every end-to-end
metric over the seeds recorded in .bench_out/, and the per-layer
self-time shares (self_ms / trace.wall_ms) of the traced runs, and
appends the point to perfbench/trajectory.json.
"""

import argparse
import glob
import json
import os
import re
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["bnp-tight", "place-wide", "daemon-mix"]


def records(workload, trace):
    out = []
    for path in glob.glob(os.path.join(".bench_out", f"{workload}-seed*-trace{trace}.json")):
        seed = int(re.search(r"-seed(\d+)-", path).group(1))
        with open(path) as f:
            out.append((seed, json.load(f)))
    return sorted(out, key=lambda r: r[0])


def summary(values):
    med = statistics.median(values)
    spread = None
    if len(values) >= 2 and med:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = round((q3 - q1) / med, 4)
    return {"median": med, "spread": spread}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--note", default="", help="what this point measures")
    ap.add_argument("--commit", help="commit measured (default: from the run records)")
    args = ap.parse_args()

    point = {"note": args.note, "workloads": {}}
    for w in WORKLOADS:
        timed, traced = records(w, 0), records(w, 1)
        if not timed:
            continue
        run = timed[0][1]["run"]
        point.setdefault("commit", args.commit or run["commit"])
        point.setdefault("nproc", run["nproc"])
        point.setdefault("rustc", run["rustc"])
        names = list(timed[0][1]["metrics"])
        entry = {
            "seeds": [s for s, _ in timed],
            "seconds": run["seconds"],
            "end_to_end": {
                n: summary([r["metrics"][n]["value"] for _, r in timed]) for n in names
            },
        }
        if traced:
            seed, rec = traced[0]
            m = {k: v["value"] for k, v in rec["metrics"].items()}
            wall = m["trace.wall_ms"]
            shares = {
                k[: -len(".self_ms")]: round(v / wall, 4)
                for k, v in m.items()
                if k.endswith(".self_ms") and wall
            }
            shares["declass"] = round(m["declass.share"], 4)
            entry["traced"] = {
                "seed": seed,
                "wall_ms": wall,
                "attributed_share": m["trace.attributed_share"],
                "overhead_ms": m["trace.overhead_ms"],
                "layer_shares": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
                "counters": rec["counters"],
            }
        point["workloads"][w] = entry

    path = os.path.join(HERE, "trajectory.json")
    trajectory = []
    if os.path.exists(path):
        with open(path) as f:
            trajectory = json.load(f)
    trajectory.append(point)
    with open(path, "w") as f:
        json.dump(trajectory, f, indent=1)
        f.write("\n")
    print(f"trajectory: {len(trajectory)} points, appended {point.get('commit')}")


if __name__ == "__main__":
    main()
