"""Damped Jacobi reference for the reduced-load fixed point.

This is the fixed-point solver as it was before Anderson acceleration,
and later Newton steps, replaced it: a synchronous substitution
rho <- (1 - d) rho + d G(rho) from the no-blocking start, with the
per-flow survival taken as a dense product over the whole demand
matrix.  It converges linearly and slowly under heavy overload, so it
lives here as the oracle that `sliceforge.solve_fixed_point` is checked
against, not in the library.
"""

import math

import numpy as np

from sliceforge import LoadState, loss
from sliceforge.fixedpoint import DAMPING, SURVIVAL_UNDERFLOW, TOL
from sliceforge.model import demand_matrix, loss_groups, offered_vector


def dense_flow_survival(survival, demands):
    """prod_j (1 - B_j)^A_jr per flow over the dense m x R demand matrix."""
    return np.prod(survival[:, None] ** demands, axis=0)


def _blocking_vector(groups, rho, caps):
    out = np.empty(rho.size)
    for spec, idx in groups:
        out[idx] = loss(spec, rho[idx], caps[idx])
    return out


def oracle_fixed_point(model, alloc):
    """Damped substitution to residual max_i |rho_i - G_i| / (1 + rho_i) <= TOL."""
    caps = np.asarray(alloc.values, dtype=float)
    demands = demand_matrix(model)
    nu = offered_vector(model)
    rho0 = demands @ nu if model.num_flows else np.zeros(model.m)
    rho = rho0.copy()
    groups = loss_groups(model)

    converged = False
    iterations = 0
    residual = math.inf
    for _ in range(10000):  # solve_fixed_point's default budget
        blocking = _blocking_vector(groups, rho, caps)
        survival = 1.0 - blocking
        raw = demands @ (nu * dense_flow_survival(survival, demands))
        pinned = survival < SURVIVAL_UNDERFLOW
        target = np.empty(model.m)
        target[~pinned] = raw[~pinned] / survival[~pinned]
        target[pinned] = rho0[pinned]
        residual = float(np.max(np.abs(rho - target) / (1.0 + rho)))
        iterations += 1
        if residual <= TOL:
            converged = True
            break
        rho = (1.0 - DAMPING) * rho + DAMPING * target

    blocking = _blocking_vector(groups, rho, caps)
    carried = nu * dense_flow_survival(1.0 - blocking, demands)
    return LoadState(
        offered=rho,
        blocking=blocking,
        carried_per_flow=carried,
        converged=converged,
        iterations=iterations,
        residual=residual,
    )
