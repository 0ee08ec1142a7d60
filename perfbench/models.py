"""Seeded model documents for the generated workloads.

Every model is a plain sliceforge JSON document; the program under test
sees nothing else.  One recipe serves every size m:

* n = max(1, round(m / 2)) physicals of one capacity type, capacity
  drawn from [50, 150];
* m logicals, each over 1-3 distinct physicals;
* R = round(1.5 m) flows, each over 1-3 distinct logicals with demands
  of 1-2 units; flow r < m always crosses logical r, so none is idle;
* offered loads scaled so that the no-blocking loads are `overload`
  times the CLI's proportional allocation.
"""

from __future__ import annotations

import random


def generate(m: int, kinds: tuple[str, ...], overload: float, seed: int) -> dict:
    rng = random.Random(seed)
    n = max(1, round(m / 2))
    physical = [
        {"id": f"p{k}", "ctype": "unit", "capacity": round(rng.uniform(50.0, 150.0), 3)} for k in range(n)
    ]
    members = [rng.sample(range(n), rng.randint(1, min(3, n))) for _ in range(m)]
    logical = [
        {"id": f"l{i}", "members": [f"p{k}" for k in members[i]], "loss": {"kind": kinds[i % len(kinds)]}}
        for i in range(m)
    ]
    routes = []
    for r in range(round(1.5 * m)):
        hops = rng.sample(range(m), rng.randint(1, min(3, m)))
        if r < m and r not in hops:
            hops[0] = r
        routes.append({i: rng.randint(1, 2) for i in hops})
    weights = [rng.uniform(0.5, 1.5) for _ in routes]

    # The CLI's proportional allocation scales the no-blocking loads until
    # some physical is tight; pick the load scale that makes that factor
    # 1 / overload.
    base = [0.0] * m
    for route, w in zip(routes, weights):
        for i, units in route.items():
            base[i] += units * w
    usage = [0.0] * n
    for i in range(m):
        for k in members[i]:
            usage[k] += base[i]
    tight = min(physical[k]["capacity"] / usage[k] for k in range(n) if usage[k] > 0.0)
    scale = overload * tight
    flows = [
        {"id": f"f{r}", "offered": round(w * scale, 6), "demands": {f"l{i}": u for i, u in route.items()}}
        for r, (route, w) in enumerate(zip(routes, weights))
    ]
    return {"physical": physical, "logical": logical, "flows": flows}
