"""Two-metric projected Newton reference for the inner minimization.

This is the inner solver as it was before `sliceforge.surrogate` read phi
off the reduced-load fixed point: projected Newton on

    min_{y >= 0}  sum_r nu_r exp(-(A^T y)_r) + sum_j H_j(y_j, C_j)

with the Newton step taken by preconditioned conjugate gradients on
Hessian-vector products.  The fixed point is where this problem is
stationary, so the solver lives here as the oracle that `surrogate` is
checked against, not in the library.  It evaluates the objective and the
gradient through `NewtonBatch.objective` and `NewtonBatch.gradient`,
looked up on the class at call time, so tests can patch them to count
those calls.
"""

import math

import numpy as np

from sliceforge.fixedpoint import _box_upper
from sliceforge.inner import TOL, InnerSolution, _projected_gradient
from sliceforge.erlang import _erlang_headroom, _erlang_series, _saturated
from sliceforge.loss import (
    InversionError,
    _finish,
    _levels,
    _log1mexp,
    get_family,
    utilization,
    utilization_terms,
)
from sliceforge.model import demand_matrix, loss_groups, offered_vector

_TINY = np.finfo(float).tiny
# A predicted decrease below this much of 1 + |phi| is rounding noise in phi.
_ROUNDING = 64.0 * np.finfo(float).eps
# U rises like y^(1/cap), with infinite slope at y = 0 for cap > 1: there
# the Hessian takes U's slope at _Y_CUSP, so a coordinate leaves 0 slowly.
# Below _Y_CUSP, where the gradient pushes y up, it takes at most that
# slope, so a coordinate is not pinned just above 0 by a slope without bound.
_Y_CUSP = 1e-12


def utilization_slope(spec, y, cap, u=None):
    """dU/dy at (y, cap), floored at 0; `u`, U there, saves an inversion.
    The shipped families' closed forms, a forward difference for others
    (linear_clip's U = cap is flat, so it gives 0 there exactly)."""
    ys, cs, shape = _levels(y, cap, spec.kind)
    family = get_family(spec.kind)
    us = family.utilization(ys, cs) if u is None else np.broadcast_to(u, shape).reshape(-1)
    slope = _SLOPES.get(spec.kind, _default_slope)
    return _finish(slope(family, ys, cs, np.asarray(us, dtype=float)), shape)


def _default_slope(family, y, cap, u):
    # a forward difference, floored at 0 since U is nondecreasing
    step = 1e-6 * (1.0 + y)
    return np.maximum((family.utilization(y + step, cap) - u) / step, 0.0)


def _erlang_slope(family, y, cap, u):
    # e^-y (drho/dy - rho) with drho/dy = rho rest / (cap - rho S) from
    # Jagerman's dB/drho, where rest = 1/expm1(y) and rho S = U.  U = 0
    # gives 0.  In saturation cap - U and the final difference keep only
    # the digits of rho(y), so there the slope is U (S - B H) / (B H)
    # with H = cap - rho S from _erlang_headroom and the carried-load
    # slope S - B H = (B sum_k k^2 (cap)_k / rho^k - H^2) / rho.
    with np.errstate(all="ignore"):  # rho overflows past any ceiling
        slope = u / (np.expm1(y) * (cap - u)) - u
        rho = u * np.exp(y)
        live = (u > 0.0) & (cap > u)
        series = _saturated(rho, cap)  # so U > 0 there
        if series.any():
            rs, cs, b = rho[series], cap[series], -np.expm1(-y[series])
            h = _erlang_headroom(rs, cs, b)
            slope[series] = u[series] * (b * _erlang_series(rs, cs, 2) - h * h) / (rs * b * h)
            live[series] = h > 0.0
    return np.where(live, np.maximum(slope, 0.0), 0.0)


def _exp_overflow_slope(family, y, cap, u):
    # rho = -cap / log(1 - e^-y) gives dU/dy = U (rho / (cap expm1(y)) - 1)
    with np.errstate(all="ignore"):
        slope = u * (-1.0 / (_log1mexp(y) * np.expm1(y)) - 1.0)
    return np.where(u > 0.0, np.maximum(slope, 0.0), 0.0)


_SLOPES = {
    "erlang_b": _erlang_slope,
    "exp_overflow": _exp_overflow_slope,
}


class NewtonBatch:
    """One allocation's arrays and what a Newton step reads.  Objective
    evaluations remember U at every point they visit until the next
    gradient, which then reuses the U of its point instead of inverting
    again; the gradient keeps U, the flow weights nu e^(-A^T y) and itself
    at its point for the Hessian there."""

    def __init__(self, model, alloc):
        self.caps = np.asarray(alloc.values, dtype=float)
        self.nu = offered_vector(model)
        self.demands = demand_matrix(model)
        self.groups = loss_groups(model)
        self.demands_squared = self.demands**2
        self._visited = {}

    def objective(self, y):
        h = np.empty(y.size)
        u = np.empty(y.size)
        for spec, idx in self.groups:
            h[idx], u[idx] = utilization_terms(spec, y[idx], self.caps[idx])
        self._visited[y.tobytes()] = u
        return float(self.nu @ np.exp(-(self.demands.T @ y))) + float(h.sum())

    def gradient(self, y):
        u = self._visited.pop(y.tobytes(), None)
        self._visited.clear()
        if u is None:
            u = np.empty(y.size)
            for spec, idx in self.groups:
                u[idx] = utilization(spec, y[idx], self.caps[idx])
        self.u, self.weights = u, self.nu * np.exp(-(self.demands.T @ y))
        self.grad = u - self.demands @ self.weights
        return self.grad

    def hessian_diagonal(self, y):
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

    def hessian_times(self, v, diag):
        """H v, with H's diagonal replaced by `diag`, from two mat-vecs."""
        return (diag - self.flow_diagonal) * v + self.demands @ (self.weights * (self.demands.T @ v))


def conjugate_gradients(batch, grad, diag, free, hi):
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


def projected_newton(model, alloc, warm_start=None, max_iters=5000):
    """Minimize the inner problem by two-metric projected Newton (Bertsekas
    1982; Gafni & Bertsekas 1984).

    The search box is [0, min(Y_CAP, per-entity ceiling)]; the ceiling
    keeps Erlang loads 100x inside the inversion's bracket.  A
    warm start (e.g. the optimum at a nearby allocation) is clipped into
    the box; zero-capacity entities that flows still get through start
    at the box end.  Coordinates at a bound whose gradient points out of
    the box take a diagonal step; the rest take the Newton step on the
    free set, cut where it leaves the box width (`conjugate_gradients`),
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

    `grad_norm` is the projected-gradient norm at exit.  A solve that
    converged on the predicted-decrease test can leave it above
    TOL * (1 + |value|): a coordinate on U's cusp near y = 0 keeps a
    gradient that its near-infinite curvature makes not worth following
    (2.0e-7 * (1 + |phi|) on random_small_instance(125)).
    """
    caps = np.asarray(alloc.values, dtype=float)
    hi = _box_upper(model, caps)
    y = np.zeros(model.m) if warm_start is None else np.clip(np.asarray(warm_start, dtype=float), 0.0, hi)
    batch = NewtonBatch(model, alloc)
    # Zero capacity leaves only the flow term, which falls in y_j while
    # flows get through: hi is then the minimizer.
    starved = (caps == 0.0) & (batch.demands @ (batch.nu * np.exp(-(batch.demands.T @ y))) > TOL)
    y[starved] = hi[starved]
    value = batch.objective(y)

    iterations, converged, grad_norm = 0, False, math.inf
    for _ in range(max_iters):
        grad = batch.gradient(y)
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
        step = np.where(bound, -grad / diag, conjugate_gradients(batch, grad, diag, ~bound, hi))
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
                trial = batch.objective(y_trial)
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

    # No fixed point, so no load to carry: not an input for `supergradient`.
    return InnerSolution(
        log_loss=y,
        value=value,
        grad_norm=grad_norm,
        iterations=iterations,
        converged=converged,
        load=np.full(model.m, np.nan),
    )
