"""Maximizing phi over the capacity-sharing polytope with conditional gradients.

Each iteration solves a small LP (bundled dense simplex) for the vertex
that best aligns with the current supergradient, then steps toward it as
far as phi keeps rising: an exact line search on the slope of phi along
the segment, which usually costs one or two surrogate solves ("probes").
The LP value also yields a duality gap: an upper bound on how far the
current allocation is from optimal, reported as a certificate.
"""

from pathlib import Path

import numpy as np

from sliceforge import (
    capacity_polytope,
    check_feasible,
    load_model,
    maximize_surrogate,
    supergradient,
)

model = load_model((Path(__file__).parent / "models" / "symmetric_pair.json").read_text())

poly = capacity_polytope(model)
print("polytope rows (S C <= C_phys):")
print("  A =", poly.A_ub.tolist(), " b =", poly.b_ub.tolist())

alloc, trace = maximize_surrogate(model)
print(f"\nstatus {trace.status} after {trace.iterations} iterations")
print("optimal allocation C* =", np.round(alloc.values, 6))
print(f"phi(C*) = {trace.final_value:.6f}")
print(f"gap certificate = {trace.certificate:.2e}  (bound on phi_opt - phi(C*))")
feas = check_feasible(model, alloc)
print(f"feasible at tol {feas.tol:.1e}:", feas.ok)

print("\nconvergence trace (first 8 iterations):")
print(f"{'iter':>4} {'phi':>12} {'gap':>12} {'step':>8} {'probes':>6}")
for k in range(min(8, trace.iterations)):
    print(f"{k:4d} {trace.values[k]:12.6f} {trace.gaps[k]:12.6f} {trace.steps[k]:8.4f} {trace.probes[k]:6d}")

# The supergradient at the optimum prices the entities: equal loads on a
# shared pool should price equally, which is why C* splits it evenly.
g = supergradient(model, alloc)
print("\nsupergradient (marginal phi per unit capacity) at C*:", np.round(g, 6))
