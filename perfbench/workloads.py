"""The four workloads: which documents each writes and which CLI operations it runs.

A workload is a fixed list of operations over a fixed pool of model
documents.  The generated documents are drawn from `models.generate` with
the draw seeds below; the workload seed orders the operations and, for
`simulate`, picks the simulator seed of the generated model.  The pool is
fixed because one draw of a ladder rung costs up to twice another (the
number of projected-gradient iterations varies with the draw), which
would bury a 20 % regression under input noise.
"""

from __future__ import annotations

import json
import os
import random
import shutil

from models import generate

HERE = os.path.dirname(os.path.abspath(__file__))

ERLANG = ("erlang_b",)
CLOSED = ("exp_overflow", "linear_clip")

# name -> (m, loss kinds, overload, draw seed)
GENERATED = {
    "erlang_m8": (8, ERLANG, 3.0, 801),
    "erlang_m20": (20, ERLANG, 3.0, 2001),
    "erlang_m50": (50, ERLANG, 3.0, 5001),
    "closed_m50_x3": (50, CLOSED, 3.0, 5001),
    "closed_m50_x10": (50, CLOSED, 10.0, 5001),
    "closed_m200_x3": (200, CLOSED, 3.0, 20002),
    "closed_m200_x10": (200, CLOSED, 10.0, 20002),
}
DEMOS = ("reference_2x3", "symmetric_pair", "three_potentials")

# Simulator seeds of the generated simulate operation: workload seed mod 8.
SIM_SEEDS = tuple(range(1000, 1008))

_EVALUATE = ("--alloc", "proportional", "--phi")

WORKLOADS = {
    "demo-solve": [
        ("solve", "reference_2x3", ()),
        ("solve", "symmetric_pair", ()),
        ("solve", "three_potentials", ()),
        ("solve-reconfig", "three_potentials", ("--budget", "2")),
    ],
    "erlang-ladder": [("evaluate", name, _EVALUATE) for name in ("erlang_m8", "erlang_m20", "erlang_m50")],
    "closed-ladder": [
        ("evaluate", name, _EVALUATE)
        for name in ("closed_m50_x3", "closed_m50_x10", "closed_m200_x3", "closed_m200_x10")
    ],
    "simulate": [
        ("simulate", "reference_2x3", ("--alloc", "proportional", "--seed", "7", "--horizon", "1e5", "--warmup", "5e3")),
        ("simulate", "erlang_m20", ("--alloc", "proportional", "--seed", None, "--horizon", "8e3", "--warmup", "4e2")),
    ],
}


def operations(workload: str, seed: int) -> list[dict]:
    """The workload's operations for this seed, in the order they run.

    Each operation has a `key` naming it in the reference file, the
    `command`, the `doc` it reads and the remaining CLI `args`.
    """
    ops = []
    for command, doc, args in WORKLOADS[workload]:
        args = [str(SIM_SEEDS[seed % len(SIM_SEEDS)]) if a is None else a for a in args]
        key = " ".join([command, doc, *args])
        ops.append({"key": key, "command": command, "doc": doc, "args": args})
    random.Random(seed).shuffle(ops)
    return ops


def document(name: str) -> dict:
    if name in DEMOS:
        with open(os.path.join(HERE, "inputs", name + ".json"), encoding="utf-8") as fh:
            return json.load(fh)
    m, kinds, overload, draw = GENERATED[name]
    return generate(m, kinds, overload, draw)


def write_documents(ops: list[dict], directory: str) -> dict[str, str]:
    """Write every document the operations read; returns name -> path."""
    paths = {}
    for op in ops:
        name = op["doc"]
        if name in paths:
            continue
        path = os.path.join(directory, name + ".json")
        if name in DEMOS:
            shutil.copyfile(os.path.join(HERE, "inputs", name + ".json"), path)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(document(name), fh, indent=1)
        paths[name] = path
    return paths


def argv(op: dict, paths: dict[str, str], out: str) -> list[str]:
    return [op["command"], paths[op["doc"]], *op["args"], "--out", out]
