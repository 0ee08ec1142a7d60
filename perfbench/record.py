"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record.py [workload ...]

Run from the root of a checkout of the commit whose outputs are the
reference.  Runs each workload's operations once in a fresh interpreter
(simulate once per simulator seed) and writes
perfbench/references/<workload>.json.  Refuses to record an operation
that fails.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import run
import workloads


def record(workload: str, root: str) -> dict:
    seeds = range(len(workloads.SIM_SEEDS)) if workload == "simulate" else range(1)
    ops = {}
    for seed in seeds:
        bench = run.Bench(workload, seed, root, references={})
        try:
            result = bench.spawn("pass")
            for op in result["ops"]:
                if op["raised"] or op["exit"] != 0:
                    raise SystemExit(f"{op['key']}: exit {op['exit']} {op['raised'] or ''}")
                with open(op["out"], encoding="utf-8") as fh:
                    ops[op["key"]] = checks.summary(op["command"], json.load(fh))
                print(f"{workload}: {op['key']} {op['wall_s']:.2f} s", file=sys.stderr)
        finally:
            shutil.rmtree(bench.workdir, ignore_errors=True)
    return {"ops": dict(sorted(ops.items()))}


def main(argv: list[str]) -> int:
    root = os.getcwd()
    names = argv or sorted(workloads.WORKLOADS)
    os.makedirs(os.path.join(run.HERE, "references"), exist_ok=True)
    for workload in names:
        refs = record(workload, root)
        with open(os.path.join(run.HERE, "references", workload + ".json"), "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
