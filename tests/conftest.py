"""Shared oracles and instance builders for the test suite."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from sliceforge import (
    CapacityAllocation,
    Flow,
    LogicalEntity,
    LossSpec,
    NetworkModel,
    PhysicalEntity,
    load_model,
)

# Property tests draw the same examples on every run (no database, fixed
# seed) and carry no deadline: vCPU speed on shared machines drifts by up
# to 1.8x, which would turn a deadline into a flaky failure.
settings.register_profile("sliceforge", derandomize=True, database=None, deadline=None, max_examples=60)
settings.load_profile("sliceforge")


def fresh_python(cwd, *args):
    """A fresh interpreter with only this checkout's src/ added to the path."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120, env=env, cwd=cwd)


def erlang_recursion(nu: float, servers: int) -> float:
    """Classic integer Erlang-B recursion; the independent oracle."""
    b = 1.0
    for k in range(1, servers + 1):
        b = nu * b / (k + nu * b)
    return b


def single_entity(nu, kind="erlang_b", demand=1, phys_cap=100.0):
    """One physical, one logical, one flow with the given demand."""
    return NetworkModel(
        physicals=(PhysicalEntity("p", "unit", float(phys_cap)),),
        logicals=(LogicalEntity("l", ("p",), LossSpec(kind)),),
        flows=(Flow("f", float(nu), {"l": int(demand)}),),
    )


def symmetric_pair(nu=8.0, phys_cap=10.0, kind="erlang_b"):
    """Two identical logicals sharing one physical; one flow each."""
    return NetworkModel(
        physicals=(PhysicalEntity("p", "bandwidth", float(phys_cap)),),
        logicals=(
            LogicalEntity("a", ("p",), LossSpec(kind)),
            LogicalEntity("b", ("p",), LossSpec(kind)),
        ),
        flows=(
            Flow("fa", float(nu), {"a": 1}),
            Flow("fb", float(nu), {"b": 1}),
        ),
    )


def flat_pair(nu=0.75):
    """One flow across two linear_clip logicals on one unit physical.  U is
    flat in y for linear_clip, so the inner Hessian on {a, b} has rank one:
    phi is linear along y_a - y_b, and phi(C) = c (1 + log(nu / c)) with
    c = min(C_a, C_b), for 0 < c < nu."""
    return NetworkModel(
        physicals=(PhysicalEntity("p", "unit", 1.0),),
        logicals=(
            LogicalEntity("a", ("p",), LossSpec("linear_clip")),
            LogicalEntity("b", ("p",), LossSpec("linear_clip")),
        ),
        flows=(Flow("f", float(nu), {"a": 1, "b": 1}),),
    )


def three_potentials(loads=(3.0, 1.0, 1.0)):
    """Three disjoint unit potentials, one single-entity flow each."""
    return NetworkModel(
        physicals=tuple(PhysicalEntity(f"p{i}", "unit", 1.0) for i in range(3)),
        logicals=tuple(
            LogicalEntity(f"l{i}", (f"p{i}",), LossSpec("erlang_b")) for i in range(3)
        ),
        flows=tuple(Flow(f"f{i}", float(nu), {f"l{i}": 1}) for i, nu in enumerate(loads)),
    )


_KINDS = ("erlang_b", "linear_clip", "exp_overflow")


def random_small_instance(seed: int):
    """Random instance with m <= 5 logicals, R <= 6 flows, loads sized to
    capacities so the fixed point lands in the moderate-blocking regime.

    Returns (model, alloc).
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 6))
    r_count = int(rng.integers(1, 7))

    physicals = tuple(
        PhysicalEntity(f"p{k}", "unit", float(rng.uniform(4.0, 20.0))) for k in range(n)
    )
    logicals = []
    for i in range(m):
        size = int(rng.integers(1, n + 1))
        members = tuple(f"p{k}" for k in sorted(rng.choice(n, size=size, replace=False)))
        kind = _KINDS[int(rng.integers(0, len(_KINDS)))]
        logicals.append(LogicalEntity(f"l{i}", members, LossSpec(kind)))

    flows = []
    for r in range(r_count):
        demands = {}
        for i in range(m):
            if rng.random() < 0.45:
                demands[f"l{i}"] = int(rng.integers(1, 3))
        if not demands:
            demands[f"l{int(rng.integers(0, m))}"] = 1
        flows.append(Flow(f"f{r}", float(rng.uniform(0.3, 1.0)), demands))

    model = NetworkModel(physicals=physicals, logicals=tuple(logicals), flows=tuple(flows))

    # feasible allocation: random shares scaled inside the polytope
    from sliceforge import incidence

    s_mat = incidence(model)
    caps_phys = model.physical_capacities()
    raw = rng.uniform(0.4, 1.0, size=m)
    usage = s_mat.T @ raw
    scale = float(np.min(caps_phys / np.maximum(usage, 1e-12))) * float(rng.uniform(0.7, 0.95))
    alloc = CapacityAllocation(raw * scale)

    # loads sized so the busiest entity sees 60-90% of its capacity
    from sliceforge import demand_matrix, offered_vector

    a_mat = demand_matrix(model)
    nu = offered_vector(model)
    rho0 = a_mat @ nu
    busy = rho0 > 0
    target = float(rng.uniform(0.6, 0.9))
    factor = target / float(np.max(rho0[busy] / np.maximum(alloc.values[busy], 1e-9)))
    flows = tuple(
        Flow(fl.id, fl.offered * factor, dict(fl.demands)) for fl in model.flows
    )
    return NetworkModel(physicals=physicals, logicals=tuple(logicals), flows=flows), alloc


@pytest.fixture(scope="session")
def small_instances():
    """The 200 frozen random instances used by the bound checks."""
    return [random_small_instance(seed) for seed in range(200)]


@pytest.fixture
def ladder_model(monkeypatch):
    """Loads a generated ladder document of the benchmark by name
    (`erlang_m8`, `erlang_m50`, ...; see perfbench/workloads.py)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import document

    return lambda name: load_model(json.dumps(document(name)))
