"""Reduced-load fixed point for a network of loss entities.

Each logical entity i sees the load of the flows that traverse it, thinned
by blocking everywhere (including its own, which the leading factor
divides back out):

    rho_i = (1 - F_i(rho_i, C_i))^(-1) * sum_r A_ir nu_r prod_j (1 - F_j(rho_j, C_j))^A_jr

Writing G(rho) for the right-hand side, the solver runs safeguarded Newton
on F(rho) = rho - G(rho) with G's exact Jacobian, from the no-blocking
start rho0_i = sum_r A_ir nu_r, and falls back to the damped synchronous
substitution rho <- rho + d (G(rho) - rho) where a Newton step fails its
line search.  G is smooth wherever the loss families are, and has a
unique root for Erlang blocking (Kelly, Adv. Appl. Prob. 1986).  Where a
family's blocking has a kink (linear_clip at rho = cap,
``LossFamily.kink_load``), a Newton step that crosses it was computed
from the near side's Jacobian; a failed step may then land on the first
kink it crosses instead, so that the next Jacobian is the far side's.
The per-flow products, and the flow-pair sums that assemble the
Jacobian, run over the demand matrix's non-zeros only, compiled once per
model.  Feasibility of the allocation is not required; the system is
defined for any C >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .loss import loss, utilization_measure  # noqa: F401  (perfbench/tracer.py wraps them under this module)
from .model import CapacityAllocation, NetworkModel, _by_family, _capacities, _compiled, demand_matrix
from .model import no_blocking_loads, offered_vector

__all__ = [
    "LoadState",
    "Diagnostics",
    "solve_fixed_point",
    "carried_total",
    "diagnostics",
]

SURVIVAL_UNDERFLOW = 1e-300
TOL = 1e-9  # residual max_i |rho_i - G_i| / (1 + rho_i) at which the solve stops
DAMPING = 0.5  # d in the damped map rho + d (G(rho) - rho), the fallback step
# Hard cap on the surrogate's log-loss coordinates: exp(-50) ~ 2e-22 leaves
# the flow term numerically dead, so nothing is lost by stopping there.
Y_CAP = 50.0


@dataclass(frozen=True)
class LoadState:
    """Converged (or best-effort) operating point of the network."""

    offered: np.ndarray = field(repr=False)  # per-logical reduced load rho_i
    blocking: np.ndarray = field(repr=False)  # B_i = F_i(rho_i, C_i)
    carried_per_flow: np.ndarray = field(repr=False)
    converged: bool
    iterations: int
    residual: float


class _Point(NamedTuple):
    """An iterate, G there and what a Newton step from it reads."""

    rho: np.ndarray
    target: np.ndarray  # G(rho)
    residual: float  # max_i |rho_i - G_i| / (1 + rho_i)
    merit: float  # sum_i ((rho_i - G_i) / (1 + rho_i))^2
    blocking: np.ndarray
    weights: np.ndarray  # w_r = nu_r prod_j S_j^A_jr, the carried load per flow
    pinned: np.ndarray


class _EntityPoint(NamedTuple):
    """phi's per-entity point at a fixed point (`_utilization_measures`)."""

    log_loss: np.ndarray  # y_j = -log(1 - B_j), clipped to the box end
    box: np.ndarray  # the box end (`_box_upper`)
    load: np.ndarray  # rho_j(y_j, C_j), the offered load at which the log-loss is y_j
    measures: np.ndarray  # H_j(y_j, C_j)


@dataclass(frozen=True)
class Diagnostics:
    """Carried-load totals and the correction-term bound check inputs.

    modified_objective = carried_total + correction, where correction sums
    `measures`, the H_j at y_j = -log(1 - B_j) clipped to the box end, read
    off the per-entity `point` that phi reuses (`_utilization_measures`);
    correction_bound sums the blocked load per entity, which the correction
    never exceeds.
    """

    carried_total: float
    weighted_carried: float
    modified_objective: float
    max_route_length: float
    correction: float
    correction_bound: float
    point: _EntityPoint = field(repr=False)

    @property
    def measures(self) -> np.ndarray:
        """H_j per entity."""
        return self.point.measures


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


def _flow_pairs(entries):
    """Every ordered pair (j, k) of non-zeros within one flow r: j, k, the
    product A_jr A_kr of their demands and r.  Weighted by w_r, one
    bincount over them gives A diag(w) A^T without touching the demand
    matrix's zeros."""
    rows, vals, starts = entries
    lengths = np.diff(starts, append=rows.size)
    partners = np.repeat(lengths, lengths)  # per non-zero: its flow's length
    first = np.repeat(np.arange(rows.size), partners)
    offset = np.arange(first.size) - np.repeat(np.cumsum(partners) - partners, partners)
    flow = np.repeat(np.arange(starts.size), lengths)[first]
    second = starts[flow] + offset
    return rows[first], rows[second], vals[first] * vals[second], flow


@_compiled
def _model_flows(model: NetworkModel):
    """`_flow_entries` of the model's demand matrix and their `_flow_pairs`."""
    entries = _flow_entries(demand_matrix(model))
    return entries, _flow_pairs(entries)


def _load_map(model: NetworkModel, survival: np.ndarray, rho0: np.ndarray):
    """G from the survivals S = 1 - B: the load rho = (A w) / S whose blocking
    is 1 - S, w_r = nu_r prod_j S_j^A_jr being the carried load per flow, and
    `rho0` where S underflows (pinned).  Returns rho, w and the pinned mask."""
    weights = offered_vector(model) * _flow_survival(survival, _model_flows(model)[0])
    raw = demand_matrix(model) @ weights
    pinned = survival < SURVIVAL_UNDERFLOW
    rho = rho0.copy()
    rho[~pinned] = raw[~pinned] / survival[~pinned]
    return rho, weights, pinned


def _box_upper(model: NetworkModel, caps: np.ndarray) -> np.ndarray:
    """The surrogate's log-loss box ends min(Y_CAP, ``log_loss_ceiling``):
    the ceiling keeps Erlang loads 100x inside the inversion's bracket."""
    return np.minimum(_by_family(model, "log_loss_ceiling", caps), Y_CAP)


def solve_fixed_point(model: NetworkModel, alloc: CapacityAllocation, max_iters: int = 10000) -> LoadState:
    """Solve rho = G(rho) to residual max_i |rho_i - G_i| / (1 + rho_i) <= TOL.

    Safeguarded Newton on F(rho) = rho - G(rho) from the no-blocking
    start.  G's Jacobian is exact:

        dG_i/drho_k = M_ik S'_k / (S_i S_k) - [i = k] raw_i S'_i / S_i^2

    with S = 1 - B, S' = -dB/drho from each family's ``blocking_slope``,
    w_r = nu_r prod_j S_j^A_jr, raw = A w and M = A diag(w) A^T.  Each
    step solves (I - J_G) delta = G(rho) - rho and tries
    rho+ = max(rho + t delta, 0) for t = 1, 1/2, 1/4, 1/8, taking the first
    whose ||(rho - G) / (1 + rho)||_2^2 shows an Armijo decrease; if none
    does, or the system is singular, the damped substitution
    rho + DAMPING (G(rho) - rho) is taken instead.

    The kink step: G's Jacobian jumps where a family's blocking has a kink
    (``LossFamily.kink_load``; linear_clip's at rho_j = C_j), so a step
    computed on one side can fail its line search on the other, and the
    damped fallback creeps.  Where the line search fails, the point
    rho + t_k delta at which the first entity that delta carries across
    its kink lands exactly on it is taken instead of the damped step,
    whatever its merit, when t_k is below every trial's t (each trial
    crossed the kink, so none tried the Newton model on its own side), or
    when the last damped step crept: it left more than (1 - DAMPING)^2 of
    the merit, the factor it gives where G is flat.  The landing entity's
    next Jacobian is the far side's.  Far from the root a damped step
    still makes headway where a landing can raise the merit for several
    steps, so other failed steps keep the damped fallback.

    `iterations` counts evaluations of G, rejected trials included, so
    `max_iters` bounds the work.

    Entities whose survival probability 1 - F underflows (capacity 0 under
    full load) are pinned to their no-blocking load with B = 1; every flow
    through them carries nothing, so the rest of the system is unaffected.
    They get identity rows and columns in the Newton system.
    """
    if max_iters < 1:
        raise ValueError(f"fixedpoint: max_iters must be at least 1, got {max_iters!r}")
    return _solve(model, _capacities(model, alloc, "fixedpoint"), max_iters)


def _solve(model: NetworkModel, caps: np.ndarray, max_iters: int, start: np.ndarray | None = None) -> LoadState:
    """`solve_fixed_point` without its argument checks, from `start`, a
    load vector, where given: `surrogate`'s warm start."""
    m = caps.size
    pair_row, pair_col, pair_demand, pair_flow = _model_flows(model)[1]
    rho0 = no_blocking_loads(model)
    if start is None:
        start = rho0

    def evaluate(rho):
        # G(rho) at rho, its residual and merit, and what the Jacobian needs;
        # the family kernels take the solver's own loads (finite, >= 0) unchecked
        blocking = _by_family(model, "blocking", rho, caps)
        target, weights, pinned = _load_map(model, 1.0 - blocking, rho0)
        scaled = (rho - target) / (1.0 + rho)
        return _Point(rho, target, float(np.max(np.abs(scaled))), float(scaled @ scaled), blocking, weights, pinned)

    def newton_direction(point):
        # delta solving (I - J_G) delta = G - rho, or None if that fails.
        # I - J_G = I - diag(G slope / S) + diag(1 / S) M diag(slope / S)
        # with slope = dB/drho = -S'; zeroing 1 / S on pinned entities
        # leaves their rows and columns those of the identity.
        free = ~point.pinned
        slope = _by_family(model, "blocking_slope", point.rho, caps, point.blocking)
        inverse = np.zeros(m)
        # a survival near the pinning floor can overflow these; the
        # finiteness check below then rejects the step
        with np.errstate(over="ignore", invalid="ignore"):
            inverse[free] = 1.0 / (1.0 - point.blocking[free])
            scaled = slope * inverse
            pair_weights = pair_demand * point.weights[pair_flow] * inverse[pair_row] * scaled[pair_col]
            system = np.bincount(pair_row * m + pair_col, weights=pair_weights, minlength=m * m).reshape(m, m)
            system.flat[:: m + 1] += 1.0 - point.target * scaled
            try:
                delta = np.linalg.solve(system, point.target - point.rho)
            except np.linalg.LinAlgError:
                return None
        return delta if np.isfinite(delta).all() else None

    kinks = _by_family(model, "kink_load", caps)

    def kink_landing(point, delta):
        # the least t > 0 at which delta carries an entity across its kink,
        # and rho + t delta with that entity exactly on it
        gap = kinks - point.rho
        crossing = np.flatnonzero(gap * (gap - delta) < 0.0)
        if not crossing.size:
            return None, None
        ts = gap[crossing] / delta[crossing]
        first = int(np.argmin(ts))
        rho = np.maximum(point.rho + ts[first] * delta, 0.0)
        rho[crossing[first]] = kinks[crossing[first]]
        return ts[first], rho

    point = evaluate(start.copy())
    iterations, crept = 1, False
    while point.residual > TOL and iterations < max_iters:
        accepted = None
        delta = newton_direction(point)
        if delta is not None:
            for t in (1.0, 0.5, 0.25, 0.125):
                trial = evaluate(np.maximum(point.rho + t * delta, 0.0))
                iterations += 1
                # Armijo on the merit, whose Newton slope is -2 merit; False
                # for a NaN merit
                if trial.merit <= (1.0 - 2e-4 * t) * point.merit:
                    accepted = trial
                    break
                if iterations >= max_iters:
                    break
            if accepted is None and iterations < max_iters:
                t_kink, landing = kink_landing(point, delta)
                if landing is not None and (t_kink < t or crept):
                    accepted, crept = evaluate(landing), False
                    iterations += 1
        if accepted is None:
            if iterations >= max_iters:
                break
            accepted = evaluate((1.0 - DAMPING) * point.rho + DAMPING * point.target)
            iterations += 1
            # where G is flat the damped map cuts the residual by 1 - DAMPING
            crept = accepted.merit > (1.0 - DAMPING) ** 2 * point.merit
        point = accepted

    return LoadState(
        offered=point.rho,
        blocking=point.blocking,
        carried_per_flow=point.weights,
        converged=point.residual <= TOL,
        iterations=iterations,
        residual=point.residual,
    )


def carried_total(model: NetworkModel, state: LoadState) -> float:
    """T = sum_r nu_r prod_j (1 - B_j)^A_jr."""
    return float(np.sum(state.carried_per_flow))


def _utilization_measures(model: NetworkModel, caps: np.ndarray, state: LoadState) -> _EntityPoint:
    """phi's per-entity point at a fixed point `state` of C, where phi and
    the correction take it (`inner._surrogate_at`, `diagnostics`): y_j =
    -log(1 - B_j) clipped to the box end (`_box_upper`), the load rho_j at
    which the log-loss is y_j, and H_j there.  Where y_j is its level,
    rho_j is the state's load; past the box end (B_j may round to 1) one
    ``offered_at`` per family inverts for it, and it is 0 at zero capacity.
    Each family's ``integral_at_load`` reads H_j off rho_j (0 at zero
    capacity and where rho_j or y_j is 0)."""
    with np.errstate(divide="ignore"):
        level = -np.log1p(-state.blocking)
    box = _box_upper(model, caps)
    y = np.minimum(level, box)
    clipped = level > box
    load = np.where(clipped, _by_family(model, "offered_at", y, caps, where=clipped & (caps > 0.0)), state.offered)
    h = _by_family(model, "integral_at_load", y, caps, load, where=(caps > 0.0) & (load > 0.0) & (y > 0.0))
    return _EntityPoint(y, box, load, h)


def diagnostics(model: NetworkModel, alloc: CapacityAllocation, state: LoadState) -> Diagnostics:
    """Totals, the modified objective, and the correction bound at a state."""
    if not state.converged:
        raise ValueError("fixedpoint: diagnostics requires a converged state")
    caps = _capacities(model, alloc, "fixedpoint")
    lengths = demand_matrix(model).sum(axis=0)
    total = carried_total(model, state)
    weighted = float(np.sum(lengths * state.carried_per_flow))
    point = _utilization_measures(model, caps, state)
    correction = float(point.measures.sum())
    bound = float(np.sum(state.offered * state.blocking))
    return Diagnostics(
        carried_total=total,
        weighted_carried=weighted,
        modified_objective=total + correction,
        max_route_length=float(lengths.max()) if lengths.size else 0.0,
        correction=correction,
        correction_bound=bound,
        point=point,
    )
