"""sliceforge: capacity allocation for logical slices of a shared substrate.

The pieces, bottom to top:

* ``model``: validated network descriptions (physical entities, logical
  entities over them, flows) and the JSON interchange format.
* ``loss``: blocking-probability families (erlang_b, linear_clip,
  exp_overflow, plus a registry for custom ones) and the utilization
  quantities built on their log-loss inverses.
* ``fixedpoint``: reduced-load fixed point giving per-entity blocking
  and per-flow carried load at a fixed allocation, with diagnostics.
* ``inner``: the concave surrogate phi(C), a smooth convex minimization
  over per-entity log-loss levels, evaluated at the reduced-load fixed
  point that solves it.
* ``outer``: Frank-Wolfe maximization of phi over the shared-capacity
  polytope, and the reconfigurable-substrate variant with budgeted 0-1
  activation and greedy rounding.
* ``sim``: discrete-event admission simulator used to validate the
  analytic blocking numbers.
* ``cli``/``report``: the ``sliceforge`` command and its deterministic
  JSON/CSV reports.
"""

from .fixedpoint import (
    Diagnostics,
    LoadState,
    carried_total,
    diagnostics,
    solve_fixed_point,
)
from .inner import InnerSolution, inner_gradient, inner_objective, surrogate
from .loss import (
    InversionError,
    LossDomainError,
    LossFamily,
    LossSpec,
    log_loss_ceiling,
    loss,
    loss_kinds,
    register_family,
    utilization,
    utilization_integral,
    utilization_measure,
    utilization_terms,
)
from .model import (
    CapacityAllocation,
    FeasibilityReport,
    Flow,
    LogicalEntity,
    ModelError,
    NetworkModel,
    PhysicalEntity,
    check_feasible,
    demand_matrix,
    incidence,
    load_model,
    loss_groups,
    no_blocking_loads,
    offered_vector,
    serialize_model,
)
from .outer import (
    Polytope,
    ReconfigProblem,
    ReconfigResult,
    SimplexError,
    SolveTrace,
    capacity_polytope,
    lp_solve,
    maximize_surrogate,
    solve_reconfig,
    supergradient,
)
from .sim import SimConfig, SimResult, simulate

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "ModelError",
    "PhysicalEntity",
    "LogicalEntity",
    "Flow",
    "NetworkModel",
    "CapacityAllocation",
    "FeasibilityReport",
    "load_model",
    "serialize_model",
    "incidence",
    "demand_matrix",
    "offered_vector",
    "loss_groups",
    "no_blocking_loads",
    "check_feasible",
    # loss
    "LossSpec",
    "LossFamily",
    "LossDomainError",
    "InversionError",
    "loss",
    "utilization",
    "utilization_measure",
    "utilization_integral",
    "utilization_terms",
    "log_loss_ceiling",
    "register_family",
    "loss_kinds",
    # fixed point
    "LoadState",
    "Diagnostics",
    "solve_fixed_point",
    "carried_total",
    "diagnostics",
    # inner
    "InnerSolution",
    "inner_objective",
    "inner_gradient",
    "surrogate",
    # outer
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
    # sim
    "SimConfig",
    "SimResult",
    "simulate",
]
