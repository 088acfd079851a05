#!/usr/bin/env python3
"""Write one trajectory point: every workload over several seeds.

    python3 benchmarks/trajectory.py --out benchmarks/BENCH_<name>.json --seeds 1-10

For each workload of BENCHMARK.json this runs `run.py --trace 0` once per
seed and `run.py --trace 1` once (first seed), one process after another,
each for BENCHMARK.json's `run_seconds`. It records, per end-to-end
metric, the median, the quartiles and the spread (quartile distance over
median) of the runs; the same for the unscaled times and the reference
time of each run's `raw` line; and the traced per-layer metrics and the
run context. Compare points only when they were measured on the same host.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """The run's result line, its context and, untraced, its raw line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    tagged = {
        tag: json.loads(ln[len(tag) + 1:])
        for ln in lines for tag in ("context", "raw") if ln.startswith(tag + " ")
    }
    return json.loads(lines[-1]), tagged["context"], tagged.get("raw")


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"), help="e.g. 1-10")
    args = p.parse_args()
    seconds = spec["run_seconds"]

    point = {"seeds": args.seeds, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs, raws = [], []
        for seed in args.seeds:
            result, context, raw = run_once(workload, seed, seconds, 0)
            runs.append(result)
            raws.append(raw)
            print(workload, seed, json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                  flush=True)
        traced, _, _ = run_once(workload, args.seeds[0], seconds, 1)
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "bound": metric["bound"], **summary(values)
            }
        point["context"] = {k: v for k, v in context.items() if k not in ("workload", "seed", "trace")}
        point["workloads"][workload] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "end_to_end": end_to_end,
            "unscaled": {name: summary([r[name] for r in raws]) for name in raws[0]},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name, m in end_to_end.items():
            print(f"  {workload} {name}: median {m['median']:.6g} {m['unit']}, "
                  f"spread {m['spread']:.3f} (bound {m['bound']})", flush=True)
    with open(args.out, "w") as fh:
        json.dump(point, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
