"""Outer capacity optimization: Frank-Wolfe over a capacity polytope.

Each iteration solves the linear program max_s <g, s> over the polytope
at a supergradient g of the surrogate phi(C), giving both a step
direction and the duality gap <g, s - C>.  Where phi is concave and g a
true supergradient (every C_j > 0; see `supergradient`), the gap
upper-bounds the suboptimality of the current iterate.  g is read off
the inner solution's fixed-point load, with no inversion.  The step
zeroes the slope of phi along s - C (the gap at C).  The LP solver is a
dense tableau simplex with Bland's rule, deliberately deterministic.

The reconfigurable variant relaxes the budgeted 0/1 physical activations
P to [0, 1].  phi ignores P, and P = S^T C is the least activation an
allocation needs, so the relaxation runs the same Frank-Wolfe over C
alone, on the projection {C >= 0 : S^T C <= 1, 1^T S^T C <= budget}.
It then rounds the relaxed usage S^T C greedily and re-solves for C on
the rounded substrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .inner import InnerSolution, surrogate
from .loss import get_family
from .loss import log_loss_ceiling, utilization_integral  # noqa: F401  (perfbench/tracer.py wraps them under this module)
from .model import CapacityAllocation, NetworkModel, incidence, loss_groups

__all__ = [
    "Polytope",
    "capacity_polytope",
    "SimplexError",
    "lp_solve",
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
            raise ValueError("outer: A_ub must be 2-D with one b_ub entry per row")
        if not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
            raise ValueError("outer: polytope data must be finite")
        if np.any(b < 0.0):
            raise ValueError("outer: b_ub must be non-negative (origin must be feasible)")
        if a.shape[1] == 0 or not np.all((a > 0.0).any(axis=0)):
            raise ValueError("outer: every variable needs a positive coefficient in some row")
        object.__setattr__(self, "A_ub", a)
        object.__setattr__(self, "b_ub", b)

    @property
    def dimension(self) -> int:
        return self.A_ub.shape[1]

    def contains(self, x: np.ndarray) -> bool:
        """x lies in the polytope to within 1e-9 on every constraint."""
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= -1e-9) and np.all(self.A_ub @ x <= self.b_ub + 1e-9))


def capacity_polytope(model: NetworkModel) -> Polytope:
    """Feasible logical allocations: usage per physical within capacity."""
    return Polytope(incidence(model).T, model.physical_capacities())


_PIVOT_EPS = 1e-12
_COST_EPS = 1e-9
_USAGE_TIE = 1e-6  # relative gap below which solve_reconfig ties two usages

MAX_ITERS = 500  # Frank-Wolfe iterations per solve unless maximize_surrogate is given fewer
GAP_TOL = 1e-5  # converged once the duality gap is within GAP_TOL * (1 + |phi|)
LINE_SEARCH_EVALS = 40  # surrogate solves a step may spend
LINE_SEARCH_TOL = 1e-6  # relative stop of the step's slope search (see _slope_search)


def lp_solve(objective: np.ndarray, polytope: Polytope) -> tuple[np.ndarray, float]:
    """max <objective, x> over the polytope; returns (vertex, value).

    Tableau simplex with Bland's rule: entering variable is the lowest
    index with negative reduced cost, ties in the ratio test go to the
    lowest-index basic variable.  Deterministic and cycle-free.
    """
    c = np.asarray(objective, dtype=float)
    if c.shape != (polytope.dimension,):
        raise ValueError(f"outer: objective must have shape ({polytope.dimension},)")
    if not np.all(np.isfinite(c)):
        raise ValueError("outer: objective must be finite")
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
            raise SimplexError("outer: unbounded direction; polytope invariant violated")
        pivot = tableau[leave, entering]
        tableau[leave] /= pivot
        for i in range(rows + 1):
            if i != leave and tableau[i, entering] != 0.0:
                tableau[i] -= tableau[i, entering] * tableau[leave]
        basis[leave] = entering
    else:
        raise SimplexError("outer: simplex iteration cap exceeded")

    x = np.zeros(dim + rows)
    for i, var in enumerate(basis):
        x[var] = tableau[i, -1]
    vertex = x[:dim]
    vertex[np.abs(vertex) < 1e-12] = np.maximum(vertex[np.abs(vertex) < 1e-12], 0.0)
    return vertex, float(c @ vertex)


@dataclass(frozen=True)
class SolveTrace:
    values: tuple[float, ...]  # phi at the start of each iteration
    gaps: tuple[float, ...]  # duality gap per iteration
    steps: tuple[float, ...]  # step size taken (0 on the converged check)
    probes: tuple[int, ...]  # line-search surrogate solves per iteration
    final_alloc: np.ndarray = field(repr=False)
    final_value: float
    status: str  # "converged" | "max_iters" | "stalled" | "inner_unconverged"
    certificate: float  # last gap: bound on phi* - phi(final)
    unconverged_inner: int = 0  # surrogate solves that returned converged=False

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
) -> np.ndarray:
    """Supergradient of phi at an allocation via the inner optimum.

    With y* fixed, phi depends on C only through the utilization
    integrals, so by the envelope theorem g_j = dH_j/dC at fixed y*_j.
    B is fixed with y, so the rho B terms of H cancel and this is
    -d/dC Int_0^rho B(s, C_j) ds at fixed rho = rho_j(y*_j, C_j), the load
    the inner solution carries (`InnerSolution.load`).  That is the fixed
    point's rho*_j except at entities clipped below their level at
    positive capacity (B rounding to 1, or past the log-loss ceiling),
    where it is the load `surrogate` inverted for their U_j.
    Nothing is inverted here.  Each family group takes one
    `LossFamily.capacity_slope` call: E1(C / rho) for exp_overflow, else a
    central difference of the family's `integral_at_load` at fixed rho with
    step max(1e-4, 1e-6 C_j) (y to a few ulps for linear_clip's H = C y).

    At C_j = 0 phi's slope can be +inf wherever load is offered (y*_j
    grows without bound as C_j -> 0), and the LP needs finite prices.
    There g_j = y*_j for every family but exp_overflow, whose E1(C / rho)
    is exact and finite since its H is linear in C: y*_j is the slope of
    the bound H_j(y, C) <= C y, which holds wherever carried load is at
    most capacity.  It is a rule, not a supergradient, for erlang_b and
    custom families, so with those the Frank-Wolfe gap bounds phi* - phi
    only at iterates with every C_j > 0, and only where phi is concave
    there (it need not be where an erlang_b capacity on a shared flow is
    below 1; see README).  Where every entity uses linear_clip or
    exp_overflow, H_j is linear in C at fixed y, so the inner objective is
    affine in C at the reported y and g is an exact supergradient at every
    iterate, zero capacities included: the gap bounds phi* minus the
    reported value.
    """
    caps = np.asarray(alloc.values, dtype=float)
    if caps.size != model.m:
        raise ValueError(f"outer: allocation length {caps.size} != m={model.m}")
    if inner is None:
        inner = surrogate(model, alloc)
    grad = np.zeros(model.m)
    for spec, idx in loss_groups(model):
        grad[idx] = get_family(spec.kind).capacity_slope(inner.log_loss[idx], caps[idx], inner.load[idx])
        bad = idx[~np.isfinite(grad[idx])]
        if bad.size:
            j = int(bad[0])
            raise ValueError(
                f"outer: {spec.kind} capacity slope at entity '{model.logicals[j].id}' is {grad[j]}, not finite"
            )
    return grad


def _slope_search(probe, base_value, slope0):
    """Maximize a concave phi(gamma) on [0, 1] by the root of its slope.

    `probe(gamma)` returns (phi, phi', payload); slope0 = phi'(0) > 0.
    gamma = 1 goes first and is kept when phi'(1) >= 0; otherwise regula
    falsi (Anderson-Bjorck, else Illinois) narrows the bracket to
    LINE_SEARCH_TOL, to |phi'| <= LINE_SEARCH_TOL * min(slope0, 1 + |phi|),
    or to LINE_SEARCH_EVALS probes.  A probe below base_value is a right
    end whatever its slope (concavity).  At a kink of phi, where regula
    falsi moves one end slowly, it also stops once |phi'| times the bracket
    width (by concavity a bound on the gain left) is within
    LINE_SEARCH_TOL * min(slope0, 1 + |phi|).
    Returns (gamma, payload, probes) of the best probe, or gamma = 0 and
    the last probe's payload when none beats base_value.
    """
    best_gamma, best_payload, best_value = 0.0, None, base_value
    ends = [[0.0, slope0], [1.0, 0.0]]  # [gamma, phi'] with phi' > 0, then phi' <= 0
    gamma, moved, probes = 1.0, -1, 0
    while True:
        value, raw_slope, payload = probe(gamma)
        probes += 1
        if value > best_value:
            best_gamma, best_payload, best_value = gamma, payload, value
        slope, enough = raw_slope, LINE_SEARCH_TOL * min(slope0, 1.0 + abs(value))
        if value < base_value:
            slope = min(slope, 0.0)
        elif (gamma == 1.0 and slope >= 0.0) or abs(slope) <= enough:
            break
        k = 0 if slope > 0.0 else 1  # the end this probe replaces
        if k == moved:  # the other end is kept twice: shrink its slope
            shrink = 1.0 - slope / ends[k][1] if ends[k][1] else 0.0
            ends[1 - k][1] *= shrink if shrink > 0.0 else 0.5
        ends[k], moved = [gamma, slope], k
        (lo, s_lo), (hi, s_hi) = ends
        if hi - lo <= LINE_SEARCH_TOL or probes >= LINE_SEARCH_EVALS or abs(raw_slope) * (hi - lo) <= enough:
            break
        gamma = lo + (hi - lo) * s_lo / (s_lo - s_hi)
        if not lo < gamma < hi:
            gamma = 0.5 * (lo + hi)
    return best_gamma, payload if best_payload is None else best_payload, probes


def _frank_wolfe(model, polytope, max_iters):
    """Shared Frank-Wolfe core over allocations C in the polytope.

    The step solves phi'(gamma) = <g(C + gamma d), d> = 0 along d = s - C
    (`_slope_search`); the accepted probe's supergradient gives the next
    gap.  When no probe improves, g may sit on a kink of phi (a
    zero-capacity entity, where y* is not unique): C is re-solved from the
    last probe's y* and the step retried once before reporting "stalled".
    A small gap at an unconverged surrogate solve ends as
    "inner_unconverged".
    """
    unconverged = 0

    def solve(caps, warm=None):
        nonlocal unconverged
        alloc = CapacityAllocation(caps)
        sol = surrogate(model, alloc, warm_start=warm)
        unconverged += not sol.converged
        return sol, supergradient(model, alloc, inner=sol)

    caps = np.zeros(model.m)
    sol, grad = solve(caps)
    values, gaps, steps, probes = [], [], [], []
    status, retried = "max_iters", False
    for _ in range(max_iters):
        vertex, _ = lp_solve(grad, polytope)
        direction = vertex - caps
        gap = float(grad @ direction)
        values.append(sol.value)
        gaps.append(gap)
        if gap <= GAP_TOL * (1.0 + abs(sol.value)):
            steps.append(0.0)
            probes.append(0)
            status = "converged" if sol.converged else "inner_unconverged"
            break

        def probe(gamma, _c=caps, _d=direction, _warm=sol.log_loss):
            trial, g = solve(_c + gamma * _d, _warm)
            return trial.value, float(g @ _d), (trial, g)

        gamma, accepted, count = _slope_search(probe, sol.value, gap)
        probes.append(count)
        steps.append(gamma)
        if gamma > 0.0:
            caps, (sol, grad), retried = caps + gamma * direction, accepted, False
        elif retried:
            status = "stalled"  # no improvement along the LP direction, even after a re-solve
            break
        else:
            (sol, grad), retried = solve(caps, accepted[0].log_loss), True
    return SolveTrace(
        values=tuple(values),
        gaps=tuple(gaps),
        steps=tuple(steps),
        probes=tuple(probes),
        final_alloc=caps,
        final_value=sol.value,
        status=status,
        certificate=gaps[-1],
        unconverged_inner=unconverged,
    )


def maximize_surrogate(
    model: NetworkModel,
    polytope: Polytope | None = None,
    max_iters: int = MAX_ITERS,
) -> tuple[CapacityAllocation, SolveTrace]:
    """max phi(C) over the capacity polytope (or a caller-supplied one),
    in at most `max_iters` Frank-Wolfe iterations."""
    if max_iters < 1:
        raise ValueError(f"outer: max_iters must be at least 1, got {max_iters!r}")
    poly = polytope if polytope is not None else capacity_polytope(model)
    if poly.dimension != model.m:
        raise ValueError(f"outer: polytope dimension {poly.dimension} != m={model.m}")
    trace = _frank_wolfe(model, poly, max_iters)
    return CapacityAllocation(trace.final_alloc), trace


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
            raise ValueError("outer: reconfigurable substrate requires unit physical capacities")
        if not (0.0 < self.budget <= self.model.n):
            raise ValueError(f"outer: budget must lie in (0, {self.model.n}]")


@dataclass(frozen=True)
class ReconfigResult:
    alloc: CapacityAllocation
    active: np.ndarray = field(repr=False)  # 0/1 per physical
    value_fractional: float  # phi at the relaxed optimum
    value_rounded: float  # phi after rounding and re-solving
    trace_joint: SolveTrace  # the relaxed solve over C
    trace_final: SolveTrace  # the re-solve on the rounded substrate

    @property
    def rounding_loss(self) -> float:
        return self.value_fractional - self.value_rounded


def solve_reconfig(problem: ReconfigProblem) -> ReconfigResult:
    """Relaxed optimization over C, greedy rounding, restricted re-solve.

    Relaxing the 0/1 activations to P in [0, 1] with S^T C <= P and
    1^T P <= budget changes nothing that phi sees: phi ignores P, and
    P = S^T C is the least activation any C needs.  So the relaxation is
    Frank-Wolfe over the projection {C >= 0 : S^T C <= 1,
    1^T S^T C <= budget}.  Rounding keeps the floor(budget) physicals
    with the largest relaxed usage S^T C* (usages within
    _USAGE_TIE * max(1, max usage) of the floor(budget)-th largest tie
    with it, and ties go to the lowest index), then re-solves for C on
    that 0/1 substrate.
    """
    model = problem.model
    usage_map = incidence(model).T  # (n, m)
    relaxed = Polytope(np.vstack([usage_map, usage_map.sum(axis=0)]), np.append(np.ones(model.n), problem.budget))
    trace_joint = _frank_wolfe(model, relaxed, MAX_ITERS)

    usage = usage_map @ trace_joint.final_alloc
    count = int(math.floor(problem.budget))
    kth = np.sort(usage)[::-1][max(count - 1, 0)]  # the count-th largest usage
    near = np.abs(usage - kth) <= _USAGE_TIE * max(1.0, float(usage.max()))
    order = np.argsort(-np.where(near, kth, usage), kind="stable")  # stable: ties keep lowest index first
    active = np.zeros(model.n)
    active[order[:count]] = 1.0
    restricted = Polytope(usage_map, active)
    alloc, trace_final = maximize_surrogate(model, polytope=restricted)
    return ReconfigResult(
        alloc=alloc,
        active=active,
        value_fractional=trace_joint.final_value,
        value_rounded=trace_final.final_value,
        trace_joint=trace_joint,
        trace_final=trace_final,
    )
