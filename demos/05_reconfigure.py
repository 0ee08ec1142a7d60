"""Choosing which physical resources to switch on under an activation budget.

Three disjoint unit pools carry loads 3, 1 and 1.  With a budget of k
active pools the solve relaxes the on/off choice to [0,1].  The surrogate
does not read the activations, and a pool's least activation is its
usage, so the relaxation optimizes the allocation C alone: every pool's
usage at most 1, total usage at most k.  It then rounds to the k pools
of largest relaxed usage and re-optimizes the allocation on the rounded
substrate.
"""

from pathlib import Path

import numpy as np

from sliceforge import ReconfigProblem, load_model, solve_reconfig

model = load_model((Path(__file__).parent / "models" / "three_potentials.json").read_text())
print("loads per pool:", [f.offered for f in model.flows])

for budget in (1.0, 2.0, 3.0):
    res = solve_reconfig(ReconfigProblem(model=model, budget=budget))
    active = [int(a) for a in res.active]
    print(f"\nbudget {budget:.0f}:")
    print(f"  active pools      {active}")
    print(f"  allocation        {np.round(res.alloc.values, 6).tolist()}")
    print(f"  phi (fractional)  {res.value_fractional:.6f}")
    print(f"  phi (rounded)     {res.value_rounded:.6f}")
    print(f"  rounding loss     {res.rounding_loss:.6f}")

print("\nThe heaviest pool wins the single slot; extra budget buys the lighter")
print("pools, and at full budget the rounding is free (relaxation is integral).")
