"""One fresh interpreter: set up a workload, then (unless mode is "setup")
run its operations once through `sliceforge.cli.run`.

Invoked by run.py as `python3 perfbench/worker.py '<json config>'` with
keys workload, seed, dir, mode ("setup" | "pass"), trace (whether to wrap
the layers in spans, see tracer.py) and cpu (the one CPU to run on).
Set-up is the imports, writing the model documents and loading each
once; its end is reported as a CLOCK_MONOTONIC reading, which the parent
subtracts from its own reading taken just before the spawn, together
with the speed gauge's reading right after it (calibrate.py).  During
the operations the gauge ticks every 0.1 s; each operation's wall time
is reported without its ticks, with the mean speed factor of its ticks.
The last line of stdout is one JSON object with the results.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    config = json.loads(sys.argv[1])
    os.sched_setaffinity(0, {config["cpu"]})
    import sliceforge
    import sliceforge.cli as cli

    import workloads
    from calibrate import Gauge, calibrate

    ops = workloads.operations(config["workload"], config["seed"])
    paths = workloads.write_documents(ops, config["dir"])
    for path in paths.values():
        with open(path, encoding="utf-8") as fh:
            sliceforge.load_model(fh.read())
    result = {"ready": time.monotonic(), "package": os.path.abspath(sliceforge.__file__)}
    result["setup_speed"] = calibrate()
    if config["mode"] == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if config["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    records = []
    with Gauge() as gauge:
        for index, op in enumerate(ops):
            out = os.path.join(config["dir"], f"op{index}.json")
            before = dict(tracer.counts) if tracer else {}
            code, raised = None, None
            start = time.perf_counter()
            try:
                code = cli.run(workloads.argv(op, paths, out))
            except Exception:  # an operation that raises is a failed operation
                raised = traceback.format_exc(limit=3)
            end = time.perf_counter()
            ticks, speed = gauge.between(start, end)
            record = {"key": op["key"], "command": op["command"], "doc": paths[op["doc"]], "out": out,
                      "gross_s": end - start, "wall_s": end - start - ticks, "speed": speed,
                      "exit": code, "raised": raised}
            if tracer:
                record["counts"] = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
            records.append(record)
    # Operations too short to catch a tick take the pass's mean speed.
    factors = [r["speed"] for r in records if r["speed"] is not None]
    mean_speed = sum(factors) / len(factors) if factors else result["setup_speed"]
    for r in records:
        if r["speed"] is None:
            r["speed"] = mean_speed
    result["ops"] = records
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        result["trace"] = tracer.snapshot()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
