"""Inner minimization defining the concave capacity surrogate.

For a fixed allocation C the surrogate value is

    phi(C) = min_{y >= 0}  sum_r nu_r exp(-(A^T y)_r) + sum_j H_j(y_j, C_j)

where y_j is the per-entity log-loss variable and H_j the running
integral of the utilization curve.  The objective is smooth and convex
in y; a projected gradient method with Armijo backtracking solves it.
phi itself is concave in C, which the outer loop exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .loss import (
    InversionError,
    log_loss_ceiling,
    utilization,
    utilization_integral,  # noqa: F401  (perfbench/tracer.py wraps it under this module)
    utilization_terms,
)
from .model import CapacityAllocation, NetworkModel, demand_matrix, loss_groups, offered_vector

__all__ = [
    "InnerOptions",
    "InnerSolution",
    "inner_objective",
    "inner_gradient",
    "surrogate",
]

# Hard cap on any log-loss coordinate: exp(-50) ~ 2e-22 leaves the flow
# term numerically dead, so nothing is lost by stopping there.
Y_CAP = 50.0

_GRAD_INVERSION_TOL = 1e-13


@dataclass(frozen=True)
class InnerOptions:
    tol: float = 1e-8
    max_iters: int = 5000
    step_init: float = 1.0
    step_shrink: float = 0.5
    armijo_slope: float = 1e-4
    y_cap: float = Y_CAP


@dataclass(frozen=True)
class InnerSolution:
    log_loss: np.ndarray = field(repr=False)  # optimal y
    value: float  # phi(C)
    grad_norm: float  # projected-gradient norm at exit
    iterations: int
    converged: bool


def _check_y(model: NetworkModel, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (model.m,):
        raise ValueError(f"log-loss vector must have shape ({model.m},)")
    if not np.all(np.isfinite(y)) or np.any(y < 0.0):
        raise ValueError("log-loss vector must be finite and non-negative")
    return y


class _Batch:
    """One allocation's flow arrays and per-family entity groups, built once
    per surrogate call so each evaluation runs one batched kernel call per
    loss family.  Objective evaluations remember U at every point they
    visit until the next gradient, which then reuses the U of its point
    instead of inverting again."""

    def __init__(self, model: NetworkModel, alloc: CapacityAllocation):
        self.caps = np.asarray(alloc.values, dtype=float)
        self.nu = offered_vector(model)
        self.demands = demand_matrix(model)
        self.groups = loss_groups(model)
        self._visited: dict[bytes, np.ndarray] = {}

    def objective(self, y: np.ndarray) -> float:
        flow_term = 0.0
        if self.nu.size:
            flow_term = float(self.nu @ np.exp(-(self.demands.T @ y)))
        h = np.empty(y.size)
        u = np.empty(y.size)
        for spec, idx in self.groups:
            h[idx], u[idx] = utilization_terms(spec, y[idx], self.caps[idx])
        self._visited[y.tobytes()] = u
        return flow_term + float(h.sum())

    def gradient(self, y: np.ndarray) -> np.ndarray:
        u = self._visited.pop(y.tobytes(), None)
        self._visited.clear()
        if u is None:
            u = np.empty(y.size)
            for spec, idx in self.groups:
                u[idx] = utilization(spec, y[idx], self.caps[idx], tol=_GRAD_INVERSION_TOL)
        if self.nu.size:
            return u - self.demands @ (self.nu * np.exp(-(self.demands.T @ y)))
        return u


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


def _box_upper(model: NetworkModel, caps: np.ndarray, y_cap: float) -> np.ndarray:
    hi = np.empty(model.m)
    for j, lg in enumerate(model.logicals):
        hi[j] = min(y_cap, log_loss_ceiling(lg.loss, float(caps[j])))
    return hi


def _projected_gradient(grad: np.ndarray, y: np.ndarray, hi: np.ndarray) -> np.ndarray:
    pg = grad.copy()
    at_lo = y <= 0.0
    at_hi = y >= hi
    pg[at_lo] = np.minimum(pg[at_lo], 0.0)
    pg[at_hi] = np.maximum(pg[at_hi], 0.0)
    return pg


def surrogate(
    model: NetworkModel,
    alloc: CapacityAllocation,
    options: InnerOptions | None = None,
    warm_start: np.ndarray | None = None,
) -> InnerSolution:
    """Evaluate phi(C) by projected gradient descent on the inner problem.

    The search box is [0, min(y_cap, per-entity ceiling)]; the ceiling
    keeps Erlang inversions away from their non-saturating regime.  A
    warm start (e.g. the optimum at a nearby allocation) is clipped into
    the box.
    """
    opts = options or InnerOptions()
    caps = np.asarray(alloc.values, dtype=float)
    if caps.size != model.m:
        raise ValueError(f"allocation length {caps.size} != m={model.m}")
    hi = _box_upper(model, caps, opts.y_cap)
    if warm_start is not None:
        y = np.clip(np.asarray(warm_start, dtype=float), 0.0, hi)
    else:
        y = np.zeros(model.m)
    batch = _Batch(model, alloc)
    value = inner_objective(model, alloc, y, batch)

    iterations = 0
    converged = False
    grad_norm = math.inf
    prev_y: np.ndarray | None = None
    prev_grad: np.ndarray | None = None
    last_step = opts.step_init
    flat_streak = 0
    for _ in range(opts.max_iters):
        grad = inner_gradient(model, alloc, y, batch)
        grad_norm = float(np.linalg.norm(_projected_gradient(grad, y, hi)))
        if grad_norm <= opts.tol * (1.0 + abs(value)):
            converged = True
            break
        # Spectral (Barzilai-Borwein) scaling, per coordinate: curvature
        # in y_j scales like cap_j^2 near y = 0 and collapses to ~cap_j on
        # the saturated tail, so coordinates can sit many decades apart in
        # conditioning.  dy_j/dg_j estimates each coordinate's inverse
        # curvature; the scalar BB ratio fills in where that secant is
        # uninformative (flat or non-convex locally).
        if prev_y is None:
            diag = np.full(y.size, opts.step_init)
        else:
            dy = y - prev_y
            dg = grad - prev_grad
            sts = float(dy @ dg)
            gtg = float(dg @ dg)
            fallback = sts / gtg if (sts > 0.0 and gtg > 0.0) else 2.0 * last_step
            fallback = min(max(fallback, 1e-12), 1e8)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = dy / dg
            diag = np.where(np.isfinite(ratio) & (ratio > 0.0), ratio, fallback)
            diag = np.clip(diag, 1e-12, 1e8)
        prev_y, prev_grad = y, grad

        def armijo(step):
            y_trial = np.clip(y - step * diag * grad, 0.0, hi)
            delta = y_trial - y
            if not np.any(delta):
                return None
            try:
                trial = inner_objective(model, alloc, y_trial, batch)
            except InversionError:
                return None  # step left the evaluable region
            if trial <= value + opts.armijo_slope * float(grad @ delta):
                return y_trial, trial
            return None

        step = 1.0
        accepted = None
        while step >= 1e-14:
            accepted = armijo(step)
            if accepted is not None:
                break
            step *= opts.step_shrink
        if accepted is None:
            break  # line search stalled at machine precision
        if step == 1.0:
            # Forward expansion: on flat exponential tails (tiny
            # capacities) the gradient is ~0, so even the BB scaling can
            # undershoot by orders of magnitude; doubling while Armijo
            # still holds and the value strictly improves crosses the
            # tail.  Ties must stop the expansion: near a sharp valley
            # floor the objective is flat to rounding, and doubling on
            # ties walks past the minimizer into a two-point limit cycle.
            for _ in range(60):
                wider = armijo(2.0 * step)
                if wider is None or wider[1] >= accepted[1]:
                    break
                step *= 2.0
                accepted = wider
        last_step = step * float(np.max(diag))
        # At allocations where one coordinate sits on a near-vertical
        # stretch of the utilization curve, the gradient's inversion
        # noise can exceed the convergence threshold; the value is then
        # converged to rounding while the gradient never settles.  A run
        # of rounding-level "improvements" means no further progress is
        # resolvable, so stop instead of grinding out max_iters.
        if abs(accepted[1] - value) <= 1e-14 * (1.0 + abs(value)):
            flat_streak += 1
        else:
            flat_streak = 0
        y, value = accepted
        iterations += 1
        if flat_streak >= 12:
            break

    return InnerSolution(
        log_loss=y,
        value=value,
        grad_norm=grad_norm,
        iterations=iterations,
        converged=converged,
    )
