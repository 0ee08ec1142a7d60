"""Reduced-load fixed point for a network of loss entities.

Each logical entity i sees the load of the flows that traverse it, thinned
by blocking everywhere (including its own, which the leading factor
divides back out):

    rho_i = (1 - F_i(rho_i, C_i))^(-1) * sum_r A_ir nu_r prod_j (1 - F_j(rho_j, C_j))^A_jr

Writing G(rho) for the right-hand side, the solver accelerates the damped
synchronous substitution rho <- rho + d (G(rho) - rho) by safeguarded
Anderson extrapolation (Walker & Ni, SIAM J. Numer. Anal. 2011), from the
no-blocking start rho0_i = sum_r A_ir nu_r.  The per-flow products run
over the demand matrix's non-zeros only, built once per solve.
Feasibility of the allocation is not required; the system is defined for
any C >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .loss import loss, utilization_measure
from .model import CapacityAllocation, NetworkModel, demand_matrix, loss_groups, offered_vector

__all__ = [
    "LoadState",
    "Diagnostics",
    "solve_fixed_point",
    "carried_total",
    "diagnostics",
]

SURVIVAL_UNDERFLOW = 1e-300
TOL = 1e-9  # residual max_i |rho_i - G_i| / (1 + rho_i) at which the solve stops
DAMPING = 0.5  # d in the damped map rho + d (G(rho) - rho)
ANDERSON_DEPTH = 5  # secant pairs the extrapolation keeps
ANDERSON_MIN_PAIRS = 3  # secant pairs it waits for after a start or a reset
ANDERSON_DROP = 1e-10  # relative remainder below which a secant pair is dependent


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


def _flow_entries(demands: np.ndarray):
    """The demand matrix's non-zeros ordered by flow, then by entity: their
    entity indices, their demands and the index of each flow's first one.
    Every flow demands at least one entity, so no flow's run is empty."""
    flows, rows = np.nonzero(demands.T)
    starts = np.flatnonzero(np.diff(flows, prepend=-1))
    return rows, demands[rows, flows], starts


def _flow_survival(survival: np.ndarray, entries) -> np.ndarray:
    # prod_j (1 - B_j)^A_jr per flow over the non-zeros only, multiplied in
    # entity order like a dense product down the columns; 0^positive = 0
    # handles blocked entities
    rows, vals, starts = entries
    if not starts.size:
        return np.ones(0)
    return np.multiply.reduceat(survival[rows] ** vals, starts)


def _anderson(points: list, images: list) -> np.ndarray:
    """Type-II Anderson extrapolation from the iterates x_k and their damped
    images g(x_k): the affine combination of the images whose residuals
    f_k = g(x_k) - x_k combine to the least-squares smallest one.

    The least squares over the differences of successive f_k runs through
    a modified Gram-Schmidt QR, as in Walker & Ni; a difference that is
    dependent on the earlier ones to ANDERSON_DROP is left out."""
    residuals = [g - x for x, g in zip(points, images)]
    basis, columns, kept = [], [], []  # Q, the columns of R, their pair index
    for k in range(len(residuals) - 1):
        v = residuals[k + 1] - residuals[k]
        size = math.sqrt(v @ v)
        column = []
        for q in basis:
            column.append(q @ v)
            v = v - column[-1] * q
        norm = math.sqrt(v @ v)
        if norm <= ANDERSON_DROP * size:
            continue
        basis.append(v / norm)
        columns.append(column + [norm])
        kept.append(k)
    # back substitution for R gamma = Q^T f
    gamma = [q @ residuals[-1] for q in basis]
    for i in reversed(range(len(basis))):
        gamma[i] = (gamma[i] - sum(columns[t][i] * gamma[t] for t in range(i + 1, len(basis)))) / columns[i][i]
    trial = images[-1].copy()
    for k, weight in zip(kept, gamma):
        trial -= weight * (images[k + 1] - images[k])
    return trial


def solve_fixed_point(model: NetworkModel, alloc: CapacityAllocation, max_iters: int = 10000) -> LoadState:
    """Solve rho = G(rho) to residual max_i |rho_i - G_i| / (1 + rho_i) <= TOL.

    Safeguarded Anderson acceleration (Walker & Ni 2011) of the damped map
    g(rho) = rho + DAMPING (G(rho) - rho), from the no-blocking start.  Once
    ANDERSON_MIN_PAIRS damped steps have been taken since the start or the
    last reset, each step extrapolates from the last ANDERSON_DEPTH + 1
    accepted iterates, clipped at rho >= 0, and keeps the result only if
    its residual is below the current one; otherwise the history is cleared
    and the plain damped step is taken from the current point.  (A lone
    secant pair taken right after a reset tends to overshoot the same kink
    of G again.)  `iterations` counts evaluations of G, rejected ones
    included, so `max_iters` bounds the work.

    Entities whose survival probability 1 - F underflows (capacity 0 under
    full load) are pinned to their no-blocking load with B = 1; every flow
    through them carries nothing, so the rest of the system is unaffected.
    """
    if max_iters < 1:
        raise ValueError(f"fixedpoint: max_iters must be at least 1, got {max_iters!r}")
    caps = np.asarray(alloc.values, dtype=float)
    if caps.size != model.m:
        raise ValueError(f"fixedpoint: allocation length {caps.size} != m={model.m}")
    demands = demand_matrix(model)
    nu = offered_vector(model)
    rho0 = demands @ nu if model.num_flows else np.zeros(model.m)
    groups = loss_groups(model)
    entries = _flow_entries(demands)

    def evaluate(rho):
        # G(rho) and the residual at rho
        survival = 1.0 - _blocking_vector(groups, rho, caps)
        raw = demands @ (nu * _flow_survival(survival, entries))
        pinned = survival < SURVIVAL_UNDERFLOW
        target = rho0.copy()
        target[~pinned] = raw[~pinned] / survival[~pinned]
        return target, float(np.max(np.abs(rho - target) / (1.0 + rho)))

    rho = rho0.copy()
    target, residual = evaluate(rho)
    iterations = 1
    points: list[np.ndarray] = []
    images: list[np.ndarray] = []
    while residual > TOL and iterations < max_iters:
        step = (1.0 - DAMPING) * rho + DAMPING * target
        points = points[-ANDERSON_DEPTH:] + [rho]
        images = images[-ANDERSON_DEPTH:] + [step]
        if len(points) > ANDERSON_MIN_PAIRS:
            trial = np.maximum(_anderson(points, images), 0.0)
            trial_target, trial_residual = evaluate(trial)
            iterations += 1
            if trial_residual < residual:  # False for a NaN residual
                rho, target, residual = trial, trial_target, trial_residual
                continue
            points, images = [rho], [step]
            if iterations >= max_iters:
                break
        rho = step
        target, residual = evaluate(rho)
        iterations += 1

    blocking = _blocking_vector(groups, rho, caps)
    carried = nu * _flow_survival(1.0 - blocking, entries)
    return LoadState(
        offered=rho,
        blocking=blocking,
        carried_per_flow=carried,
        converged=residual <= TOL,
        iterations=iterations,
        residual=residual,
    )


def carried_total(model: NetworkModel, state: LoadState) -> float:
    """T = sum_r nu_r prod_j (1 - B_j)^A_jr."""
    return float(np.sum(state.carried_per_flow))


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
