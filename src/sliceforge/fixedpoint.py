"""Reduced-load fixed point for a network of loss entities.

Each logical entity i sees the load of the flows that traverse it, thinned
by blocking everywhere (including its own, which the leading factor
divides back out):

    rho_i = (1 - F_i(rho_i, C_i))^(-1) * sum_r A_ir nu_r prod_j (1 - F_j(rho_j, C_j))^A_jr

The solver runs a damped synchronous (Jacobi) substitution from the
no-blocking start rho0_i = sum_r A_ir nu_r.  Feasibility of the allocation
is not required; the system is defined for any C >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .loss import loss, utilization_measure
from .model import CapacityAllocation, NetworkModel, demand_matrix, loss_groups, offered_vector

__all__ = [
    "FixedPointOptions",
    "LoadState",
    "Diagnostics",
    "solve_fixed_point",
    "carried_total",
    "diagnostics",
]

SURVIVAL_UNDERFLOW = 1e-300


@dataclass(frozen=True)
class FixedPointOptions:
    tol: float = 1e-9
    max_iters: int = 10000
    damping: float = 0.5


@dataclass(frozen=True)
class LoadState:
    """Converged (or best-effort) operating point of the network."""

    offered: np.ndarray = field(repr=False)  # per-logical reduced load rho_i
    blocking: np.ndarray = field(repr=False)  # B_i = F_i(rho_i, C_i)
    carried_per_flow: np.ndarray = field(repr=False)
    converged: bool
    iterations: int
    residual: float


@dataclass(frozen=True)
class Diagnostics:
    """Carried-load totals and the correction-term bound check inputs.

    modified_objective = carried_total + correction, where correction is
    the summed utilization measure of the entities; correction_bound is
    the summed per-entity blocked load, which the correction never
    exceeds.
    """

    carried_total: float
    weighted_carried: float
    modified_objective: float
    max_route_length: float
    correction: float
    correction_bound: float


def _blocking_vector(groups, rho: np.ndarray, caps: np.ndarray) -> np.ndarray:
    # one loss() call per family; elementwise the same values as per entity
    out = np.empty(rho.size)
    for spec, idx in groups:
        out[idx] = loss(spec, rho[idx], caps[idx])
    return out


def _flow_survival(survival: np.ndarray, demands: np.ndarray) -> np.ndarray:
    # prod_j (1 - B_j)^A_jr per flow; 0^positive = 0 handles blocked entities
    return np.prod(survival[:, None] ** demands, axis=0)


def solve_fixed_point(
    model: NetworkModel, alloc: CapacityAllocation, options: FixedPointOptions | None = None
) -> LoadState:
    """Damped substitution to residual max_i |rho_i - G_i| / (1 + rho_i) <= tol.

    Entities whose survival probability 1 - F underflows (capacity 0 under
    full load) are pinned to their no-blocking load with B = 1; every flow
    through them carries nothing, so the rest of the system is unaffected.
    """
    opts = options or FixedPointOptions()
    caps = np.asarray(alloc.values, dtype=float)
    if caps.size != model.m:
        raise ValueError(f"allocation length {caps.size} != m={model.m}")
    demands = demand_matrix(model)
    nu = offered_vector(model)
    rho0 = demands @ nu if model.num_flows else np.zeros(model.m)
    rho = rho0.copy()
    groups = loss_groups(model)

    converged = False
    iterations = 0
    residual = math.inf
    for _ in range(opts.max_iters):
        blocking = _blocking_vector(groups, rho, caps)
        survival = 1.0 - blocking
        per_flow = nu * _flow_survival(survival, demands)
        raw = demands @ per_flow
        pinned = survival < SURVIVAL_UNDERFLOW
        target = np.empty(model.m)
        target[~pinned] = raw[~pinned] / survival[~pinned]
        target[pinned] = rho0[pinned]
        residual = float(np.max(np.abs(rho - target) / (1.0 + rho))) if model.m else 0.0
        iterations += 1
        if residual <= opts.tol:
            converged = True
            break
        rho = (1.0 - opts.damping) * rho + opts.damping * target

    blocking = _blocking_vector(groups, rho, caps)
    carried = nu * _flow_survival(1.0 - blocking, demands)
    return LoadState(
        offered=rho,
        blocking=blocking,
        carried_per_flow=carried,
        converged=converged,
        iterations=iterations,
        residual=residual,
    )


def carried_total(model: NetworkModel, state: LoadState) -> float:
    """T = sum_r nu_r prod_j (1 - B_j)^A_jr."""
    nu = offered_vector(model)
    if nu.size == 0:
        return 0.0
    return float(np.sum(nu * _flow_survival(1.0 - state.blocking, demand_matrix(model))))


def diagnostics(model: NetworkModel, alloc: CapacityAllocation, state: LoadState) -> Diagnostics:
    """Totals, the modified objective, and the correction bound at a state."""
    if not state.converged:
        raise ValueError("diagnostics requires a converged state")
    caps = np.asarray(alloc.values, dtype=float)
    demands = demand_matrix(model)
    lengths = demands.sum(axis=0) if model.num_flows else np.zeros(0)
    total = carried_total(model, state)
    weighted = float(np.sum(lengths * state.carried_per_flow)) if model.num_flows else 0.0
    correction = 0.0
    for spec, idx in loss_groups(model):
        idx = idx[caps[idx] != 0.0]  # zero capacity supplies nothing even when fully blocked
        correction += float(np.sum(utilization_measure(spec, state.blocking[idx], caps[idx])))
    bound = float(np.sum(state.offered * state.blocking))
    return Diagnostics(
        carried_total=total,
        weighted_carried=weighted,
        modified_objective=total + correction,
        max_route_length=float(lengths.max()) if lengths.size else 0.0,
        correction=correction,
        correction_bound=bound,
    )
