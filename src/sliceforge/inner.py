"""Inner minimization defining the capacity surrogate.

For a fixed allocation C the surrogate value is

    phi(C) = min_{y >= 0}  sum_r nu_r exp(-(A^T y)_r) + sum_j H_j(y_j, C_j)

where y_j is the per-entity log-loss variable and H_j the running
integral of the utilization curve.  The objective is smooth and convex
in y, and its gradient U_j(y_j, C_j) - sum_r A_jr nu_r e^(-(A^T y)_r)
vanishes at y = -log(1 - B) of the reduced-load fixed point rho = G(rho),
where U_j = rho_j (1 - B_j) is the load entity j carries.  So `surrogate`
solves that fixed point (`fixedpoint`) and reads phi off it, with H_j
taken from the fixed point's load, not from an inversion; the objective
and gradient at any y stay public for checks.

Where every family's H_j(y, C) is linear in C at fixed y (`linear_clip`,
`exp_overflow`), phi is a minimum of affine functions of C and so concave
by structure, which the outer loop's certificate rests on.  With
`erlang_b` it is not guaranteed concave: on `random_small_instance(19)` it
turns convex along a segment (the strict xfail in tests/test_outer.py).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .fixedpoint import LoadState, _box_upper, _EntityPoint, _load_map, _solve, _utilization_measures
from .loss import log_loss_ceiling  # noqa: F401  (perfbench/tracer.py wraps it under this module)
from .loss import utilization, utilization_integral
from .model import CapacityAllocation, NetworkModel, demand_matrix, loss_groups, no_blocking_loads, offered_vector

__all__ = [
    "InnerSolution",
    "inner_objective",
    "inner_gradient",
    "surrogate",
]

# Load, relative to 1 + |phi|, that a zero-capacity entity held below its
# box end may still pass: see `_surrogate_at`.
TOL = 1e-8


@dataclass(frozen=True)
class InnerSolution:
    log_loss: np.ndarray = field(repr=False)  # optimal y
    value: float  # phi(C)
    # Projected-gradient norm at `log_loss`: what the fixed point's residual
    # leaves of U_j - (A w)_j with U_j = rho*_j e^(-y_j), plus the load that
    # zero-capacity entities held below their box end still pass (`_least_levels`).
    grad_norm: float
    iterations: int
    converged: bool
    # rho_j(y_j, C_j), the offered load at which entity j's log-loss is y_j,
    # from the fixed point's per-entity point: its rho*_j where y_j is its
    # level, else inverted at the box end, 0 at zero capacity.
    # `outer.supergradient` reads dH_j/dC off it.
    load: np.ndarray = field(repr=False)


def _check_y(model: NetworkModel, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (model.m,):
        raise ValueError(f"inner: log-loss vector must have shape ({model.m},)")
    bad = np.flatnonzero(~(np.isfinite(y) & (y >= 0.0)))
    if bad.size:
        j = int(bad[0])
        raise ValueError(f"inner: log-loss at entity '{model.logicals[j].id}' is {y[j]}, not finite and non-negative")
    return y


def inner_objective(model: NetworkModel, alloc: CapacityAllocation, y: np.ndarray) -> float:
    """sum_r nu_r exp(-(A^T y)_r) + sum_j H_j(y_j, C_j)."""
    y = _check_y(model, y)
    caps, h = np.asarray(alloc.values, dtype=float), np.empty(y.size)
    for spec, idx in loss_groups(model):
        h[idx] = utilization_integral(spec, y[idx], caps[idx])
    return float(offered_vector(model) @ np.exp(-(demand_matrix(model).T @ y))) + float(h.sum())


def inner_gradient(model: NetworkModel, alloc: CapacityAllocation, y: np.ndarray) -> np.ndarray:
    """d/dy_j = -sum_r A_jr nu_r exp(-(A^T y)_r) + U_j(y_j, C_j)."""
    y = _check_y(model, y)
    caps, u = np.asarray(alloc.values, dtype=float), np.empty(y.size)
    for spec, idx in loss_groups(model):
        u[idx] = utilization(spec, y[idx], caps[idx])
    demands = demand_matrix(model)
    return u - demands @ (offered_vector(model) * np.exp(-(demands.T @ y)))


def _projected_gradient(grad: np.ndarray, y: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.where(y <= 0.0, np.minimum(grad, 0.0), np.where(y >= hi, np.maximum(grad, 0.0), grad))


def _least_levels(demands: np.ndarray, nu: np.ndarray, y: np.ndarray, entities: np.ndarray, tol: float) -> np.ndarray:
    """For each of `entities`, a level t >= 0 at which the load it would
    still pass with y_j = t, sum_r A_jr nu_r e^(-(A^T y)_r), is at most
    `tol`: each of its n_j flows passes at most tol / n_j.  0 elsewhere.
    At such a level a zero-capacity entity's y_j leaves phi within `tol`
    of its value at the box end (`_surrogate_at`)."""
    rows, flows = np.nonzero(demands)
    keep = entities[rows]
    rows, flows = rows[keep], flows[keep]
    a = demands[rows, flows]
    passing = (demands > 0.0).sum(axis=1)[rows]
    others = (demands.T @ y)[flows] - a * y[rows]
    levels = np.zeros(y.size)
    with np.errstate(divide="ignore"):  # a flow of no load needs no level
        np.maximum.at(levels, rows, (np.log(passing * a * nu[flows] / tol) - others) / a)
    return levels


def surrogate(
    model: NetworkModel,
    alloc: CapacityAllocation,
    warm_start: np.ndarray | None = None,
    max_iters: int = 5000,
) -> InnerSolution:
    """Evaluate phi(C) at the reduced-load fixed point.

    At y = -log(1 - B) of the fixed point rho = G(rho), U_j = rho_j S_j
    equals the flow term sum_r A_jr nu_r e^(-(A^T y)_r), so the inner
    gradient vanishes there: y is the inner minimizer, at which
    `_surrogate_at` evaluates phi.

    A warm start y (the optimum at a nearby allocation) starts the fixed
    point at G's load for the survivals S = e^(-y), S = 0 at zero-capacity
    entities at the box end (`fixedpoint._load_map`).  Where a zero
    capacity makes y* not unique, this keeps the fixed point that y
    belongs to.

    `converged` is the fixed point's, `iterations` counts its evaluations
    of G and `max_iters` bounds them.  An unconverged fixed point gives
    phi's objective at its y, which lies above the minimum.
    """
    if max_iters < 1:
        raise ValueError(f"inner: max_iters must be at least 1, got {max_iters!r}")
    caps = np.asarray(alloc.values, dtype=float)
    if caps.size != model.m:
        raise ValueError(f"inner: allocation length {caps.size} != m={model.m}")
    start, y0 = None, np.zeros(model.m)
    if warm_start is not None:
        hi = _box_upper(model, caps)
        y0 = np.clip(np.asarray(warm_start, dtype=float), 0.0, hi)
        survival = np.exp(-y0)
        survival[(caps == 0.0) & (y0 >= hi)] = 0.0
        start = _load_map(model, survival, no_blocking_loads(model))[0]
    state = _solve(model, caps, max_iters, start)
    sol = _surrogate_at(model, alloc, state, _utilization_measures(model, caps, state), y0)
    return dataclasses.replace(sol, iterations=state.iterations)


def _surrogate_at(
    model: NetworkModel, alloc: CapacityAllocation, state: LoadState, point: _EntityPoint, y0=None
) -> InnerSolution:
    """phi(C) at a fixed point `state` of C and its per-entity point
    (`fixedpoint._utilization_measures`), with no G: 0 iterations, and
    `converged` as the state is.

    The point gives y, clipped to the search box (B = 1, zero capacity
    under load, lands at the box end), the load rho_j(y_j, C_j) and H_j.
    U_j = rho_j e^(-y_j), and `load` is rho_j.  phi and the projected
    gradient are evaluated once.

    A zero-capacity entity under load has B = 1 and y* at the box end,
    but phi moves by less than TOL * (1 + |phi|) once the load it would
    still pass is below that, and the supergradient reads H_j at y_j.
    Where its flows carried nothing at `surrogate`'s start `y0` (0 when
    cold), y_j keeps its value there, raised to a level where that load is
    below TOL * (1 + |phi|) (`_least_levels`): Frank-Wolfe leaves
    zero-capacity kinks by these finite slopes.  Without `y0` it stays at
    the box end, as y0 = y gives.
    """
    caps = np.asarray(alloc.values, dtype=float)
    demands, nu = demand_matrix(model), offered_vector(model)
    y, hi = point.log_loss.copy(), point.box
    u = point.load * np.exp(-y)
    # H_j and U_j vanish at zero capacity, so lowering such a y_j below
    # the box end moves only the flow term.
    if y0 is not None:
        loose = (caps == 0.0) & (y >= hi) & (demands @ (nu * np.exp(-(demands.T @ y0))) <= TOL)
        if loose.any():
            tol = TOL * (1.0 + float(nu @ np.exp(-(demands.T @ y))) + float(point.measures.sum()))
            levels = _least_levels(demands, nu, np.where(loose, y0, y), loose, tol)
            y[loose] = np.minimum(np.maximum(y0, levels), hi)[loose]
    flow = np.exp(-(demands.T @ y))
    value = float(nu @ flow) + float(point.measures.sum())
    grad_norm = float(np.linalg.norm(_projected_gradient(u - demands @ (nu * flow), y, hi)))
    return InnerSolution(
        log_loss=y, value=value, grad_norm=grad_norm, iterations=0, converged=state.converged, load=point.load
    )
