"""Outer capacity optimization: Frank-Wolfe over a capacity polytope.

The surrogate phi(C) is concave, so each iteration solves the linear
program max_s <g, s> over the polytope at a supergradient g, giving both
a step direction and the duality gap <g, s - C>, which upper-bounds the
suboptimality of the current iterate.  The LP solver is a dense tableau
simplex with Bland's rule, deliberately deterministic.

The reconfigurable variant optimizes jointly over (C, P) where P are
fractional physical activations subject to a budget, then rounds P
greedily and re-solves for C on the rounded substrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .inner import InnerOptions, InnerSolution, surrogate
from .loss import log_loss_ceiling, utilization_integral
from .model import CapacityAllocation, NetworkModel, incidence, loss_groups

__all__ = [
    "Polytope",
    "capacity_polytope",
    "SimplexError",
    "lp_solve",
    "OuterOptions",
    "SolveTrace",
    "supergradient",
    "maximize_surrogate",
    "ReconfigProblem",
    "ReconfigResult",
    "solve_reconfig",
]


class SimplexError(RuntimeError):
    pass


@dataclass(frozen=True)
class Polytope:
    """{x >= 0 : A_ub x <= b_ub} with b_ub >= 0 (origin feasible).

    Boundedness is enforced structurally: every variable must appear
    with a positive coefficient in at least one row.
    """

    A_ub: np.ndarray = field(repr=False)
    b_ub: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.A_ub, dtype=float)
        b = np.asarray(self.b_ub, dtype=float)
        if a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.size:
            raise ValueError("A_ub must be 2-D with one b_ub entry per row")
        if not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
            raise ValueError("polytope data must be finite")
        if np.any(b < 0.0):
            raise ValueError("b_ub must be non-negative (origin must be feasible)")
        if a.shape[1] == 0 or not np.all((a > 0.0).any(axis=0)):
            raise ValueError("every variable needs a positive coefficient in some row")
        object.__setattr__(self, "A_ub", a)
        object.__setattr__(self, "b_ub", b)

    @property
    def dimension(self) -> int:
        return self.A_ub.shape[1]

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= -tol) and np.all(self.A_ub @ x <= self.b_ub + tol))


def capacity_polytope(model: NetworkModel) -> Polytope:
    """Feasible logical allocations: usage per physical within capacity."""
    return Polytope(incidence(model).T, model.physical_capacities())


_PIVOT_EPS = 1e-12
_COST_EPS = 1e-9


def lp_solve(objective: np.ndarray, polytope: Polytope) -> tuple[np.ndarray, float]:
    """max <objective, x> over the polytope; returns (vertex, value).

    Tableau simplex with Bland's rule: entering variable is the lowest
    index with negative reduced cost, ties in the ratio test go to the
    lowest-index basic variable.  Deterministic and cycle-free.
    """
    c = np.asarray(objective, dtype=float)
    if c.shape != (polytope.dimension,):
        raise ValueError(f"objective must have shape ({polytope.dimension},)")
    if not np.all(np.isfinite(c)):
        raise ValueError("objective must be finite")
    rows, dim = polytope.A_ub.shape
    tableau = np.zeros((rows + 1, dim + rows + 1))
    tableau[:rows, :dim] = polytope.A_ub
    tableau[:rows, dim : dim + rows] = np.eye(rows)
    tableau[:rows, -1] = polytope.b_ub
    tableau[rows, :dim] = -c
    basis = list(range(dim, dim + rows))

    for _ in range(50000):
        reduced = tableau[rows, :-1]
        entering = -1
        for j in range(dim + rows):
            if reduced[j] < -_COST_EPS:
                entering = j
                break
        if entering < 0:
            break
        column = tableau[:rows, entering]
        leave = -1
        best = math.inf
        for i in range(rows):
            if column[i] > _PIVOT_EPS:
                ratio = tableau[i, -1] / column[i]
                if ratio < best - _PIVOT_EPS or (
                    abs(ratio - best) <= _PIVOT_EPS and (leave < 0 or basis[i] < basis[leave])
                ):
                    leave, best = i, ratio
        if leave < 0:
            raise SimplexError("unbounded direction; polytope invariant violated")
        pivot = tableau[leave, entering]
        tableau[leave] /= pivot
        for i in range(rows + 1):
            if i != leave and tableau[i, entering] != 0.0:
                tableau[i] -= tableau[i, entering] * tableau[leave]
        basis[leave] = entering
    else:
        raise SimplexError("simplex iteration cap exceeded")

    x = np.zeros(dim + rows)
    for i, var in enumerate(basis):
        x[var] = tableau[i, -1]
    vertex = x[:dim]
    vertex[np.abs(vertex) < 1e-12] = np.maximum(vertex[np.abs(vertex) < 1e-12], 0.0)
    return vertex, float(c @ vertex)


@dataclass(frozen=True)
class OuterOptions:
    max_iters: int = 500
    gap_tol: float = 1e-5
    line_search: bool = True  # False -> open-loop steps 2/(k+2)
    line_search_evals: int = 40
    line_search_tol: float = 1e-6
    fd_step_floor: float = 1e-4
    fd_step_rel: float = 1e-6


@dataclass(frozen=True)
class SolveTrace:
    values: tuple[float, ...]  # phi at the start of each iteration
    gaps: tuple[float, ...]  # duality gap per iteration
    steps: tuple[float, ...]  # step size taken (0 on the converged check)
    final_alloc: np.ndarray = field(repr=False)
    final_value: float
    status: str  # "converged" | "max_iters" | "stalled"
    certificate: float  # last gap: bound on phi* - phi(final)

    @property
    def iterations(self) -> int:
        return len(self.values)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def supergradient(
    model: NetworkModel,
    alloc: CapacityAllocation,
    inner: InnerSolution | None = None,
    inner_options: InnerOptions | None = None,
    options: OuterOptions | None = None,
) -> np.ndarray:
    """Supergradient of phi at an allocation via the inner optimum.

    With y* fixed, phi depends on C only through the utilization
    integrals, so each coordinate is a central finite difference of
    H_j(y*_j, .) with the loss variable clipped to the ceiling of the
    upper capacity (the ceiling shrinks as capacity grows).
    """
    opts = options or OuterOptions()
    if inner is None:
        inner = surrogate(model, alloc, inner_options)
    caps = np.asarray(alloc.values, dtype=float)
    h = np.maximum(opts.fd_step_floor, opts.fd_step_rel * caps)
    lo = np.maximum(0.0, caps - h)
    hi = caps + h
    grad = np.zeros(model.m)
    for spec, idx in loss_groups(model):
        ceiling = np.array([log_loss_ceiling(spec, float(c)) for c in hi[idx]])
        y = np.minimum(inner.log_loss[idx], ceiling)
        both = utilization_integral(spec, np.concatenate([y, y]), np.concatenate([hi[idx], lo[idx]]))
        grad[idx] = (both[: idx.size] - both[idx.size :]) / (hi[idx] - lo[idx])
    return grad


def _golden_section(evaluate, base_value, budget, tol):
    """Maximize gamma -> evaluate(gamma).value on [0, 1].

    Returns (gamma, solution) for the best point seen, never worse than
    the current iterate (gamma=0, base_value).
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    best_gamma, best_sol = 0.0, None
    best_value = base_value
    evals = 0

    def probe(gamma):
        nonlocal best_gamma, best_sol, best_value, evals
        sol = evaluate(gamma)
        evals += 1
        if sol.value > best_value:
            best_gamma, best_sol, best_value = gamma, sol, sol.value
        return sol.value

    probe(1.0)
    a, b = 0.0, 1.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1 = probe(x1)
    f2 = probe(x2)
    while (b - a) > tol and evals < budget:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = probe(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = probe(x1)
    return best_gamma, best_sol


def _frank_wolfe(model, polytope, objective_dim, opts, inner_opts, lift, grad_lift):
    """Shared Frank-Wolfe core over variables z in the polytope.

    `lift(z)` maps a polytope point to the allocation whose surrogate is
    the objective; `grad_lift(z, sol)` returns the full-dimensional
    objective gradient (zeros for coordinates phi ignores).
    """
    z = np.zeros(objective_dim)
    sol = surrogate(model, lift(z), inner_opts)
    values, gaps, steps = [], [], []
    status = "max_iters"
    for k in range(opts.max_iters):
        grad = grad_lift(z, sol)
        vertex, _ = lp_solve(grad, polytope)
        gap = float(grad @ (vertex - z))
        values.append(sol.value)
        gaps.append(gap)
        if gap <= opts.gap_tol * (1.0 + abs(sol.value)):
            steps.append(0.0)
            status = "converged"
            break
        direction = vertex - z

        def evaluate(gamma, _z=z, _d=direction, _warm=sol.log_loss):
            return surrogate(model, lift(_z + gamma * _d), inner_opts, warm_start=_warm)

        if opts.line_search:
            gamma, trial = _golden_section(evaluate, sol.value, opts.line_search_evals, opts.line_search_tol)
            if trial is None:
                steps.append(0.0)
                status = "stalled"  # no improvement along the LP direction
                break
        else:
            gamma = 2.0 / (k + 2.0)
            trial = evaluate(gamma)
        steps.append(gamma)
        z = z + gamma * direction
        sol = trial
    return z, sol, SolveTrace(
        values=tuple(values),
        gaps=tuple(gaps),
        steps=tuple(steps),
        final_alloc=z.copy(),
        final_value=sol.value,
        status=status,
        certificate=gaps[-1] if gaps else 0.0,
    )


def maximize_surrogate(
    model: NetworkModel,
    options: OuterOptions | None = None,
    inner_options: InnerOptions | None = None,
    polytope: Polytope | None = None,
) -> tuple[CapacityAllocation, SolveTrace]:
    """max phi(C) over the capacity polytope (or a caller-supplied one)."""
    opts = options or OuterOptions()
    poly = polytope if polytope is not None else capacity_polytope(model)
    if poly.dimension != model.m:
        raise ValueError(f"polytope dimension {poly.dimension} != m={model.m}")

    def lift(z):
        return CapacityAllocation(z)

    def grad_lift(z, sol):
        return supergradient(model, CapacityAllocation(z), inner=sol, options=opts)

    z, _, trace = _frank_wolfe(model, poly, model.m, opts, inner_options, lift, grad_lift)
    return CapacityAllocation(z), trace


@dataclass(frozen=True)
class ReconfigProblem:
    """Choose which unit-capacity physicals to activate, within a budget.

    All physical capacities must be 1 (relative units); budget is the
    number of physicals that may be active, 0 < budget <= n.
    """

    model: NetworkModel
    budget: float

    def __post_init__(self) -> None:
        caps = self.model.physical_capacities()
        if not np.all(np.abs(caps - 1.0) <= 1e-12):
            raise ValueError("reconfigurable substrate requires unit physical capacities")
        if not (0.0 < self.budget <= self.model.n):
            raise ValueError(f"budget must lie in (0, {self.model.n}]")


@dataclass(frozen=True)
class ReconfigResult:
    alloc: CapacityAllocation
    active: np.ndarray = field(repr=False)  # 0/1 per physical
    value_fractional: float  # phi at the joint (relaxed) optimum
    value_rounded: float  # phi after rounding and re-solving
    trace_joint: SolveTrace
    trace_final: SolveTrace

    @property
    def rounding_loss(self) -> float:
        return self.value_fractional - self.value_rounded


def solve_reconfig(
    problem: ReconfigProblem,
    options: OuterOptions | None = None,
    inner_options: InnerOptions | None = None,
) -> ReconfigResult:
    """Joint relaxed optimization, greedy rounding, restricted re-solve.

    Variables z = (C, P): usage rows S^T C - P <= 0 couple the logical
    allocation to fractional activations, P <= 1 boxes them, and
    1^T P <= budget caps the active count.  phi ignores P, so its
    gradient coordinates are zero.  Rounding keeps the floor(budget)
    physicals with the largest fractional usage S^T C* (ties to the
    lowest index), then re-solves for C on that 0/1 substrate.
    """
    opts = options or OuterOptions()
    model = problem.model
    m, n = model.m, model.n
    usage_map = incidence(model).T  # (n, m)
    a_ub = np.block(
        [
            [usage_map, -np.eye(n)],
            [np.zeros((n, m)), np.eye(n)],
            [np.zeros((1, m)), np.ones((1, n))],
        ]
    )
    b_ub = np.concatenate([np.zeros(n), np.ones(n), [problem.budget]])
    joint = Polytope(a_ub, b_ub)

    def lift(z):
        return CapacityAllocation(z[:m])

    def grad_lift(z, sol):
        g = supergradient(model, CapacityAllocation(z[:m]), inner=sol, options=opts)
        return np.concatenate([g, np.zeros(n)])

    z, _, trace_joint = _frank_wolfe(model, joint, m + n, opts, inner_options, lift, grad_lift)

    usage = usage_map @ z[:m]
    order = np.argsort(-usage, kind="stable")  # stable: ties keep lowest index first
    active = np.zeros(n)
    active[order[: int(math.floor(problem.budget))]] = 1.0
    restricted = Polytope(usage_map, active)
    alloc, trace_final = maximize_surrogate(
        model, options=opts, inner_options=inner_options, polytope=restricted
    )
    return ReconfigResult(
        alloc=alloc,
        active=active,
        value_fractional=trace_joint.final_value,
        value_rounded=trace_final.final_value,
        trace_joint=trace_joint,
        trace_final=trace_final,
    )
