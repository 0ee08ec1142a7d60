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

from . import fixedpoint, inner, model, outer, sim
from . import loss as _loss  # the star import below rebinds `loss` to the function
from .model import *  # noqa: F401,F403
from .loss import *  # noqa: F401,F403
from .fixedpoint import *  # noqa: F401,F403
from .inner import *  # noqa: F401,F403
from .outer import *  # noqa: F401,F403
from .sim import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *model.__all__, *_loss.__all__, *fixedpoint.__all__, *inner.__all__, *outer.__all__, *sim.__all__]
