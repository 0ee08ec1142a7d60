"""Run every workload over several seeds and write one benchmark entry.

    python3 perfbench/entry.py --runs 10 --out perfbench/entries/NAME.json

Run from the root of a checkout.  For each workload: `--runs` untraced
runs of run.py with seeds first-seed, first-seed + 1, ... and one traced
run with the first seed.  The entry keeps every run's result line and,
per end-to-end metric, the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread
(q3 - q1) / median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    result["exit"] = proc.returncode
    result["seed"] = seed
    result["printout"] = lines[:-1]
    return result


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0].get("metrics", {}):
        values = [r["metrics"][name]["value"] for r in runs if name in r.get("metrics", {})]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None,
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    entry = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(bench(workload, seed, args.seconds, 0))
            metrics = {k: round(v["value"], 4) for k, v in runs[-1].get("metrics", {}).items()}
            print(workload, seed, "exit", runs[-1]["exit"], metrics, flush=True)
        summary = summarize(runs)
        traced = bench(workload, args.first_seed, args.seconds, 1)
        entry["workloads"][workload] = {"summary": summary, "untraced": runs, "traced": traced}
        for name, s in summary.items():
            print(f"  {workload:<14} {name:<12} median {s['median']:.4g} {s['unit']}  "
                  f"q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  spread {s['spread']:.3f}", flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(entry, fh, indent=1)
        fh.write("\n")
    failed = [r for w in entry["workloads"].values() for r in w["untraced"] + [w["traced"]] if r["exit"] != 0]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
