"""Inner minimization defining the concave capacity surrogate.

For a fixed allocation C the surrogate value is

    phi(C) = min_{y >= 0}  sum_r nu_r exp(-(A^T y)_r) + sum_j H_j(y_j, C_j)

where y_j is the per-entity log-loss variable and H_j the running
integral of the utilization curve.  The objective is smooth and convex
in y, and its gradient U_j(y_j, C_j) - sum_r A_jr nu_r e^(-(A^T y)_r)
vanishes at y = -log(1 - B) of the reduced-load fixed point rho = G(rho),
where U_j = rho_j (1 - B_j) is the load entity j carries.  So `surrogate`
solves that fixed point (`fixedpoint`) and reads phi off it, with H_j
taken from the fixed point's load, not from an inversion; the objective
and gradient at any y stay public for checks.  phi itself is concave in
C, which the outer loop exploits.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .fixedpoint import LoadState, _flow_survival, _model_flows, _solve, _utilization_measures
from .loss import LossFamily, get_family, log_loss_ceiling, utilization, utilization_integral, utilization_terms
from .model import CapacityAllocation, NetworkModel, demand_matrix, loss_groups, offered_vector

__all__ = [
    "InnerSolution",
    "inner_objective",
    "inner_gradient",
    "surrogate",
]

# Hard cap on any log-loss coordinate: exp(-50) ~ 2e-22 leaves the flow
# term numerically dead, so nothing is lost by stopping there.
Y_CAP = 50.0
# Load, relative to 1 + |phi|, that a zero-capacity entity held below its
# box end may still pass: see `_surrogate_at`.
TOL = 1e-8


@dataclass(frozen=True)
class InnerSolution:
    log_loss: np.ndarray = field(repr=False)  # optimal y
    value: float  # phi(C)
    # Projected-gradient norm at `log_loss`: what the fixed point's
    # residual leaves of U_j - (A w)_j, plus the load that zero-capacity
    # entities held below their box end still pass (`_least_levels`).
    grad_norm: float
    iterations: int
    converged: bool
    # rho_j(y_j, C_j), the offered load at which entity j's log-loss is
    # y_j: the fixed point's rho*_j where y_j is its level, else U_j e^(y_j)
    # from the inversion that gives H_j there (0 at zero capacity).
    # `outer.supergradient` reads dH_j/dC off it without inverting.
    load: np.ndarray = field(repr=False)


def _check_y(model: NetworkModel, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (model.m,):
        raise ValueError(f"inner: log-loss vector must have shape ({model.m},)")
    if not np.all(np.isfinite(y)) or np.any(y < 0.0):
        raise ValueError("inner: log-loss vector must be finite and non-negative")
    return y


class _Batch:
    """One allocation's flow arrays and per-family entity groups, so each
    evaluation runs one batched kernel call per loss family."""

    def __init__(self, model: NetworkModel, alloc: CapacityAllocation):
        self.caps = np.asarray(alloc.values, dtype=float)
        self.nu = offered_vector(model)
        self.demands = demand_matrix(model)
        self.groups = loss_groups(model)

    def objective(self, y: np.ndarray) -> float:
        h = np.empty(y.size)
        for spec, idx in self.groups:
            h[idx] = utilization_integral(spec, y[idx], self.caps[idx])
        return float(self.nu @ np.exp(-(self.demands.T @ y))) + float(h.sum())

    def gradient(self, y: np.ndarray) -> np.ndarray:
        u = np.empty(y.size)
        for spec, idx in self.groups:
            u[idx] = utilization(spec, y[idx], self.caps[idx])
        return u - self.demands @ (self.nu * np.exp(-(self.demands.T @ y)))


def inner_objective(
    model: NetworkModel, alloc: CapacityAllocation, y: np.ndarray, batch: _Batch | None = None
) -> float:
    """sum_r nu_r exp(-(A^T y)_r) + sum_j H_j(y_j, C_j).

    `batch` carries the arrays a surrogate call builds once; without it
    they are built here.
    """
    y = _check_y(model, y)
    return (batch if batch is not None else _Batch(model, alloc)).objective(y)


def inner_gradient(
    model: NetworkModel, alloc: CapacityAllocation, y: np.ndarray, batch: _Batch | None = None
) -> np.ndarray:
    """d/dy_j = -sum_r A_jr nu_r exp(-(A^T y)_r) + U_j(y_j, C_j)."""
    y = _check_y(model, y)
    return (batch if batch is not None else _Batch(model, alloc)).gradient(y)


def _box_upper(model: NetworkModel, caps: np.ndarray) -> np.ndarray:
    hi = np.empty(caps.size)
    for spec, idx in loss_groups(model):
        hi[idx] = log_loss_ceiling(spec, caps[idx])
    return np.minimum(hi, Y_CAP)


def _projected_gradient(grad: np.ndarray, y: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.where(y <= 0.0, np.minimum(grad, 0.0), np.where(y >= hi, np.maximum(grad, 0.0), grad))


def _start_load(model: NetworkModel, survival: np.ndarray) -> np.ndarray:
    """The load rho = raw / S whose blocking is 1 - S at a fixed point,
    with raw = A (nu prod_j S_j^A_jr) the carried load through each entity;
    the no-blocking load where S = 0."""
    demands, nu = demand_matrix(model), offered_vector(model)
    raw = demands @ (nu * _flow_survival(survival, _model_flows(model)[0]))
    rho = demands @ nu
    live = survival > 0.0
    rho[live] = raw[live] / survival[live]
    return rho


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
    point at the load rho = raw / S with S = e^(-y), S = 0 at
    zero-capacity entities at the box end, and raw = A (nu prod_j
    S_j^A_jr).  Where a zero capacity makes y* not unique, this keeps the
    fixed point that y belongs to.

    `converged` is the fixed point's, `iterations` counts its evaluations
    of G and `max_iters` bounds them.  An unconverged fixed point gives
    phi's objective at its y, which lies above the minimum.
    """
    if max_iters < 1:
        raise ValueError(f"inner: max_iters must be at least 1, got {max_iters!r}")
    caps = np.asarray(alloc.values, dtype=float)
    if caps.size != model.m:
        raise ValueError(f"inner: allocation length {caps.size} != m={model.m}")
    hi = _box_upper(model, caps)
    start, y0 = None, np.zeros(model.m)
    if warm_start is not None:
        y0 = np.clip(np.asarray(warm_start, dtype=float), 0.0, hi)
        survival = np.exp(-y0)
        survival[(caps == 0.0) & (y0 >= hi)] = 0.0
        start = _start_load(model, survival)
    state = _solve(model, caps, max_iters, start)
    sol = _surrogate_at(model, alloc, state, _utilization_measures(model, caps, state), y0, hi)
    return dataclasses.replace(sol, iterations=state.iterations)


def _surrogate_at(
    model: NetworkModel, alloc: CapacityAllocation, state: LoadState, measures: np.ndarray, y0=None, hi=None
) -> InnerSolution:
    """phi(C) at a fixed point `state` of C and its H_j at y_j =
    -log(1 - B_j) (`fixedpoint._utilization_measures`), with no G: 0
    iterations, and `converged` as the state is.

    y is clipped to the search box `hi`, [0, min(Y_CAP, per-entity
    ceiling)], whose ceiling keeps Erlang inversions off their
    non-saturating regime; B = 1 (zero capacity under load) lands at the
    box end, where H and U invert.  Closed forms give H and U at y (U is C
    on linear_clip's plateau, not rho e^(-y)); phi and the projected
    gradient are then evaluated once.

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
    hi = _box_upper(model, caps) if hi is None else hi
    demands, nu = demand_matrix(model), offered_vector(model)
    with np.errstate(divide="ignore"):
        level = -np.log1p(-state.blocking)
    y = np.minimum(level, hi)
    h, u = measures.copy(), state.offered * np.exp(-y)
    for spec, idx in loss_groups(model):
        if type(get_family(spec.kind)).utilization_terms is LossFamily.utilization_terms:
            idx = idx[y[idx] < level[idx]]
        if idx.size:
            h[idx], u[idx] = utilization_terms(spec, y[idx], caps[idx])
    load = np.where(y == level, state.offered, u * np.exp(y))
    # H_j and U_j vanish at zero capacity, so lowering such a y_j below
    # the box end moves only the flow term.
    if y0 is not None:
        loose = (caps == 0.0) & (level > hi) & (demands @ (nu * np.exp(-(demands.T @ y0))) <= TOL)
        if loose.any():
            tol = TOL * (1.0 + float(nu @ np.exp(-(demands.T @ y))) + float(h.sum()))
            levels = _least_levels(demands, nu, np.where(loose, y0, y), loose, tol)
            y[loose] = np.minimum(np.maximum(y0, levels), hi)[loose]
    flow = np.exp(-(demands.T @ y))
    value = float(nu @ flow) + float(h.sum())
    grad_norm = float(np.linalg.norm(_projected_gradient(u - demands @ (nu * flow), y, hi)))
    return InnerSolution(
        log_loss=y, value=value, grad_norm=grad_norm, iterations=0, converged=state.converged, load=load
    )
