"""Inner minimization defining the concave capacity surrogate.

For a fixed allocation C the surrogate value is

    phi(C) = min_{y >= 0}  sum_r nu_r exp(-(A^T y)_r) + sum_j H_j(y_j, C_j)

where y_j is the per-entity log-loss variable and H_j the running
integral of the utilization curve.  The objective is smooth and convex
in y, with Hessian diag(dU_j/dy_j) + A diag(nu e^(-A^T y)) A^T; a
two-metric projected Newton method solves it, taking the Newton step by
preconditioned conjugate gradients on Hessian-vector products, so no
matrix is formed.  phi itself is concave in C, which the outer loop
exploits.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .fixedpoint import LoadState, _flow_survival, _model_flows, _solve, _utilization_measures
from .loss import (
    InversionError,
    LossFamily,
    get_family,
    log_loss_ceiling,
    utilization,
    utilization_integral,  # noqa: F401  (perfbench/tracer.py wraps it under this module)
    utilization_slope,
    utilization_terms,
)
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
# Convergence tolerance of projected Newton, relative to 1 + |phi|: see
# `_projected_newton`.
TOL = 1e-8
# Evaluations of G the fixed point may spend before `surrogate` hands the
# allocation to projected Newton: about three times the most that any
# warm-started Frank-Wolfe probe took on the random, demo and ladder
# models (17).
FIXED_POINT_EVALS = 50

_TINY = np.finfo(float).tiny
# A predicted decrease below this much of 1 + |phi| is rounding noise in phi.
_ROUNDING = 64.0 * np.finfo(float).eps
# U rises like y^(1/cap), with infinite slope at y = 0 for cap > 1: there
# the Hessian takes U's slope at _Y_CUSP, so a coordinate leaves 0 slowly.
# Below _Y_CUSP, where the gradient pushes y up, it takes at most that
# slope, so a coordinate is not pinned just above 0 by a slope without bound.
_Y_CUSP = 1e-12


@dataclass(frozen=True)
class InnerSolution:
    log_loss: np.ndarray = field(repr=False)  # optimal y
    value: float  # phi(C)
    # Projected-gradient norm at exit.  A solve that converged on the
    # predicted-decrease test can leave it above TOL * (1 + |value|): a
    # coordinate on U's cusp near y = 0 keeps a gradient that its
    # near-infinite curvature makes not worth following (2.0e-7 * (1 + |phi|)
    # on tests/conftest.py's random_small_instance(125)).
    grad_norm: float
    iterations: int
    converged: bool


def _check_y(model: NetworkModel, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (model.m,):
        raise ValueError(f"inner: log-loss vector must have shape ({model.m},)")
    if not np.all(np.isfinite(y)) or np.any(y < 0.0):
        raise ValueError("inner: log-loss vector must be finite and non-negative")
    return y


class _Batch:
    """One allocation's flow arrays and per-family entity groups, built once
    per surrogate call so each evaluation runs one batched kernel call per
    loss family.  Objective evaluations remember U at every point they
    visit until the next gradient, which then reuses the U of its point
    instead of inverting again; the gradient keeps U, the flow weights
    nu e^(-A^T y) and itself at its point for the Hessian there."""

    def __init__(self, model: NetworkModel, alloc: CapacityAllocation):
        self.caps = np.asarray(alloc.values, dtype=float)
        self.nu = offered_vector(model)
        self.demands = demand_matrix(model)
        self.demands_squared = self.demands**2
        self.groups = loss_groups(model)
        self._visited: dict[bytes, np.ndarray] = {}

    def objective(self, y: np.ndarray) -> float:
        h = np.empty(y.size)
        u = np.empty(y.size)
        for spec, idx in self.groups:
            h[idx], u[idx] = utilization_terms(spec, y[idx], self.caps[idx])
        self._visited[y.tobytes()] = u
        return float(self.nu @ np.exp(-(self.demands.T @ y))) + float(h.sum())

    def gradient(self, y: np.ndarray) -> np.ndarray:
        u = self._visited.pop(y.tobytes(), None)
        self._visited.clear()
        if u is None:
            u = np.empty(y.size)
            for spec, idx in self.groups:
                u[idx] = utilization(spec, y[idx], self.caps[idx])
        self.u, self.weights = u, self.nu * np.exp(-(self.demands.T @ y))
        self.grad = u - self.demands @ self.weights
        return self.grad

    def hessian_diagonal(self, y: np.ndarray) -> np.ndarray:
        """diag(dU_j/dy_j) + diag(A diag(w) A^T) at the last gradient's point;
        keeps both parts for the step."""
        self.flow_diagonal = self.demands_squared @ self.weights
        self.slope = np.empty(y.size)
        for spec, idx in self.groups:
            at_zero = y[idx] <= 0.0
            yc, u = np.where(at_zero, _Y_CUSP, y[idx]), self.u[idx]  # a copy: idx is an index array
            if at_zero.any():
                u[at_zero] = utilization(spec, _Y_CUSP, self.caps[idx][at_zero])
            slope = utilization_slope(spec, yc, self.caps[idx], u)
            rising = (yc < _Y_CUSP) & (self.grad[idx] < 0.0)
            if rising.any():
                slope[rising] = np.minimum(slope[rising], utilization_slope(spec, _Y_CUSP, self.caps[idx][rising]))
            self.slope[idx] = slope
        return self.slope + self.flow_diagonal

    def hessian_times(self, v: np.ndarray, diag: np.ndarray) -> np.ndarray:
        """H v, with H's diagonal replaced by `diag`, from two mat-vecs."""
        return (diag - self.flow_diagonal) * v + self.demands @ (self.weights * (self.demands.T @ v))


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
    return np.array([min(Y_CAP, log_loss_ceiling(lg.loss, float(c))) for lg, c in zip(model.logicals, caps)])


def _projected_gradient(grad: np.ndarray, y: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.where(y <= 0.0, np.minimum(grad, 0.0), np.where(y >= hi, np.maximum(grad, 0.0), grad))


def _conjugate_gradients(
    batch: _Batch, grad: np.ndarray, diag: np.ndarray, free: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Newton step on the free set: Jacobi-preconditioned conjugate
    gradients on H_FF p = -g_F, with H applied matrix-free.

    No coordinate need move farther than its box width hi_j, so CG stops
    where its path leaves {|p_j| <= hi_j} (Steihaug's trust-region rule).
    H is singular where U is flat (linear_clip): along a direction whose
    curvature is rounding noise next to r D^-1 r (D the preconditioner),
    the model falls linearly, and the step goes to that boundary too.
    """
    r = np.where(free, -grad, 0.0)
    p, d, target = np.zeros(grad.size), r / diag, 1e-10 * np.linalg.norm(r)
    rz = float(r @ d)
    for _ in range(int(free.sum())):
        if np.linalg.norm(r) <= target:
            break
        hd = np.where(free, batch.hessian_times(d, diag), 0.0)
        curvature = float(d @ hd)
        flat = curvature <= _ROUNDING * rz
        a = math.inf if flat else rz / curvature
        q = p if flat else p + a * d
        if flat or np.any(np.abs(q) > hi):
            moving = d != 0.0
            return p + float(np.min((np.sign(d) * hi - p)[moving] / d[moving])) * d
        p = q
        r = r - a * hd
        z = r / diag
        rz, rz_prev = float(r @ z), rz
        d = z + (rz / rz_prev) * d
    return p


def _projected_newton(
    model: NetworkModel,
    alloc: CapacityAllocation,
    warm_start: np.ndarray | None = None,
    max_iters: int = 5000,
) -> InnerSolution:
    """Minimize the inner problem by two-metric projected Newton (Bertsekas
    1982; Gafni & Bertsekas 1984): `surrogate`'s fallback where the fixed
    point does not converge within its budget.

    The search box is [0, min(Y_CAP, per-entity ceiling)]; the ceiling
    keeps Erlang inversions away from their non-saturating regime.  A
    warm start (e.g. the optimum at a nearby allocation) is clipped into
    the box; zero-capacity entities that flows still get through start
    at the box end.  Coordinates at a bound whose gradient points out of
    the box take a diagonal step; the rest take the Newton step on the
    free set, cut where it leaves the box width (`_conjugate_gradients`),
    and Armijo backtracks along the projection arc (bent, near
    U's cusp at y = 0, to follow U's local power law).  The solve
    converges when the projected gradient is at most TOL * (1 + |phi|),
    or when the step's predicted decrease is at most
    TOL^2 * (1 + |phi|), in phi units.  Every counted step strictly lowers
    phi.  A step that Armijo accepts without lowering phi ends the solve:
    as converged when it predicted a decrease within 64 eps * (1 + |phi|),
    which rounding in phi hides, and unconverged otherwise.  The solve
    also stops unconverged after `max_iters` Newton steps or when Armijo
    stalls.
    """
    caps = np.asarray(alloc.values, dtype=float)
    hi = _box_upper(model, caps)
    y = np.zeros(model.m) if warm_start is None else np.clip(np.asarray(warm_start, dtype=float), 0.0, hi)
    batch = _Batch(model, alloc)
    # Zero capacity leaves only the flow term, which falls in y_j while
    # flows get through: hi is then the minimizer.
    starved = (caps == 0.0) & (batch.demands @ (batch.nu * np.exp(-(batch.demands.T @ y))) > TOL)
    y[starved] = hi[starved]
    value = inner_objective(model, alloc, y, batch)

    iterations, converged, grad_norm = 0, False, math.inf
    for _ in range(max_iters):
        grad = inner_gradient(model, alloc, y, batch)
        grad_norm = float(np.linalg.norm(_projected_gradient(grad, y, hi)))
        if grad_norm <= TOL * (1.0 + abs(value)):
            converged = True
            break
        # Bound coordinates within eps of a face, pushed out of the box,
        # take the diagonal step; the diagonal is floored at |g_j| / hi_j
        # so that a step on a flat stretch reaches at most the box end.
        eps = min(1e-3, grad_norm)
        bound = ((y <= eps) & (grad > 0.0)) | ((y >= hi - eps) & (grad < 0.0))
        diag = np.maximum(batch.hessian_diagonal(y), np.maximum(np.abs(grad) / hi, _TINY))
        step = np.where(bound, -grad / diag, _conjugate_gradients(batch, grad, diag, ~bound, hi))
        # Where U's curvature dominates, near its cusp at y = 0, U follows a
        # local power law y^kappa, kappa = y U'/U.  A step down that law's
        # way, to where it meets the Newton model's U_j, stays above 0 and
        # lands near the root; a step up keeps Newton's line, which
        # undershoots on the concave cusp.
        down = (batch.slope > batch.flow_diagonal) & (step < 0.0) & (y > 0.0) & (batch.u > 0.0)
        kappa = np.where(down, y * batch.slope / np.where(down, batch.u, 1.0), 1.0)

        def arc(alpha):
            power = y * np.maximum(1.0 + alpha * kappa * step / np.where(down, y, 1.0), 0.0) ** (1.0 / kappa)
            point = np.where(down, power, y + alpha * step)
            return np.where(point < _TINY, 0.0, np.minimum(point, hi))  # U's slope overflows at subnormal y

        # Predicted decrease in phi units: ends solves whose gradient stays
        # large on a coordinate of near-infinite curvature.
        if -float(grad @ (arc(1.0) - y)) <= TOL**2 * (1.0 + abs(value)):
            converged = True
            break
        accepted, alpha = None, 1.0
        while alpha >= 1e-14 and accepted is None:
            y_trial = arc(alpha)
            try:
                trial = inner_objective(model, alloc, y_trial, batch)
            except InversionError:
                trial = math.inf  # step left the evaluable region
            if trial <= value + 1e-4 * float(grad @ (y_trial - y)):
                accepted = y_trial, trial
            alpha *= 0.5
        if accepted is None:
            break  # line search stalled at machine precision
        if not accepted[1] < value:  # phi has reached its floor, or y is stuck
            converged = -float(grad @ (accepted[0] - y)) <= _ROUNDING * (1.0 + abs(value))
            break
        y, value = accepted
        iterations += 1

    return InnerSolution(log_loss=y, value=value, grad_norm=grad_norm, iterations=iterations, converged=converged)


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
    `tol`: each of its n_j flows passes at most tol / n_j.  0 elsewhere."""
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

    `converged` is the fixed point's and `iterations` counts its
    evaluations of G.  Where it has not converged after FIXED_POINT_EVALS
    of them (a kink of linear_clip that Newton steps cross), projected
    Newton (`_projected_newton`) takes over from its y, and `iterations`
    adds its Newton steps; `max_iters` bounds the sum.
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
    state = _solve(model, caps, min(max_iters, FIXED_POINT_EVALS), start)
    if state.converged:
        sol = _surrogate_at(model, alloc, state, _utilization_measures(model, caps, state), y0, hi)
        return dataclasses.replace(sol, iterations=state.iterations)
    with np.errstate(divide="ignore"):
        y = np.minimum(-np.log1p(-state.blocking), hi)
    sol = _projected_newton(model, alloc, warm_start=y, max_iters=max_iters - state.iterations)
    return dataclasses.replace(sol, iterations=state.iterations + sol.iterations)


def _surrogate_at(
    model: NetworkModel, alloc: CapacityAllocation, state: LoadState, measures: np.ndarray, y0=None, hi=None
) -> InnerSolution:
    """phi(C) at a converged fixed point `state` of C and its H_j at y_j =
    -log(1 - B_j) (`fixedpoint._utilization_measures`), with no G: 0 iterations.

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
    below TOL * (1 + |phi|) (`_least_levels`), as projected Newton from
    that start leaves it: Frank-Wolfe leaves zero-capacity kinks by these
    finite slopes.  Without `y0` it stays at the box end, as y0 = y gives.
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
    return InnerSolution(log_loss=y, value=value, grad_norm=grad_norm, iterations=0, converged=True)
