"""Loss-function families and the utilization quantities derived from them.

A loss family maps (offered load, capacity) to a blocking probability
F(rho, cap).  Every family must satisfy:

  (i)   0 <= F <= 1,
  (ii)  F continuous, nondecreasing in rho,
  (iii) F nonincreasing in cap,

plus saturation: F(rho, cap) -> 1 as rho -> infinity for fixed cap.
Saturation is what makes the log-loss level y = -log(1 - F) invertible in
rho, which the utilization function below depends on.

Derived quantities:

* ``utilization(spec, y, cap)``: U(y, cap) = rho(y) * e^(-y), where
  rho(y) = sup{rho : -log(1 - F(rho, cap)) <= y} is the generalized
  (upper) inverse of the log-loss curve.  U is the mean capacity in use
  on an entity whose loss probability is 1 - e^(-y).
* ``utilization_integral(spec, y, cap)``: H(y, cap), the integral of
  U(z, cap) for z in [0, y].  ``utilization_terms(spec, y, cap)``, a
  public function like the others, returns H and U together from one
  inversion; all three accept arrays, one entity per element, and run as
  one batched call per family.
* ``utilization_measure(spec, B, cap)``: H at the level y = -log(1-B);
  the capacity-cost correction attached to a blocking level B.

Every family's H has one numerical route, its hook
``LossFamily.integral_at_load``: H at a level given the offered load
there, by its own closed form or else the default change of variables to
offered load.  ``utilization_terms`` inverts for that load
(``LossFamily.offered_at``) and calls it; the fixed point, which knows
its load, calls it directly and inverts only past the box end.  The
adaptive quadrature of U in z that checks it lives in the tests.

Three families ship here; more can be added with ``register_family``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import expi, expit, gammaincc, gammaln, xlogy

__all__ = [
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
]

RHO_BRACKET_CAP = 1e12
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny  # least normal load the inversion probes
# Capacity step of the default capacity_slope: max(_FD_STEP_FLOOR, _FD_STEP_REL * cap)
_FD_STEP_FLOOR = 1e-4
_FD_STEP_REL = 1e-6


class LossDomainError(ValueError):
    """Input outside a loss operation's domain (negative load, B >= 1, ...)."""


class InversionError(RuntimeError):
    """A log-loss level the inversion cannot turn into an offered load:
    the load lies above RHO_BRACKET_CAP (a family that is not saturating,
    or a level past the box end), overflows a closed form, or erlang_b's
    Newton did not converge.  The solvers add the entity's id."""


# ---------------------------------------------------------------------------
# numerical kernels


def _log_loss(family, rho, cap):
    """-log(1 - F(rho, cap)); inf where the survival is 0."""
    s = family.survival(rho, cap)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s > 0.0, -np.log(s), np.inf)


def _upper_inverse(family, y, cap):
    """rho(y) = sup{rho >= 0 : -log(1 - F(rho, cap)) <= y} for checked flat
    arrays, one element per entity.

    Positive floats sort like their int64 bit patterns, so bisecting the
    patterns between the least normal load and RHO_BRACKET_CAP ends, in at
    most 63 steps, on the largest float whose log-loss is <= y: exact, with
    no tolerance.  Every element takes the same steps, one survival() call
    for the whole batch each, so an element's result does not depend on
    the rest of the batch.  The sup convention resolves plateaus of F from
    above (so e.g. linear_clip gives rho(0) = cap, not 0).

    Where the log-loss at the least normal load already exceeds y (cap = 0,
    say), rho(y) = 0.  Where the log-loss at RHO_BRACKET_CAP is still <= y,
    the family is not saturating there and InversionError is raised.  At
    y = 0 the bisection ends where 1 - F rounds to 1; if F is still positive
    at half that load, the curve rises from 0 and only rounding made it
    look flat, so rho(0) = 0.
    """
    n = y.size
    lo, hi = np.full(n, _TINY).view(np.int64), np.full(n, RHO_BRACKET_CAP).view(np.int64)
    # probes far from the answer can overflow a family's cap / rho
    with np.errstate(over="ignore"):
        f_least, f_cap = np.split(_log_loss(family, np.concatenate((lo, hi)).view(float), np.tile(cap, 2)), 2)
        if (f_cap <= y).any():
            raise InversionError(f"loss: {family.name} is non-saturating: the log-loss inverse left its bracket")
        while (hi - lo > 1).any():
            mid = lo + (hi - lo) // 2  # lo + hi overflows int64 near RHO_BRACKET_CAP
            below = _log_loss(family, mid.view(float), cap) <= y
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        rho = np.where(f_least > y, 0.0, lo.view(float))
        rounded = np.flatnonzero((y == 0.0) & (rho > 0.0))
        if rounded.size:
            rho[rounded[family.blocking(0.5 * rho[rounded], cap[rounded]) > 0.0]] = 0.0
    return rho


def _broadcast(rho, cap):
    """Scalar/array inputs of the public functions as flat arrays and a shape."""
    arr_rho = np.asarray(rho, dtype=float)
    arr_cap = np.asarray(cap, dtype=float)
    shape = np.broadcast_shapes(arr_rho.shape, arr_cap.shape)
    r = np.broadcast_to(arr_rho, shape).reshape(-1)
    c = np.broadcast_to(arr_cap, shape).reshape(-1)
    return r, c, shape


def _finish(values, shape):
    out = values.reshape(shape)
    if shape == ():
        return float(out)
    return out


def _levels(y, cap, kind):
    """Broadcast log-loss levels and capacities to flat arrays, checking both."""
    ys, cs, shape = _broadcast(y, cap)
    if not np.isfinite(ys).all() or (ys < 0.0).any():
        raise LossDomainError(f"loss: {kind} log-loss level must be finite and >= 0")
    if not np.isfinite(cs).all() or (cs < 0.0).any():
        raise LossDomainError(f"loss: {kind} capacity must be finite and >= 0")
    return ys, cs, shape


def _log1mexp(y):
    """log(1 - e^(-y)) for y > 0 without cancellation at either end
    (Maechler 2012): expm1 where e^(-y) is near 1, log1p where it is small."""
    small = y <= math.log(2.0)
    with np.errstate(divide="ignore"):
        return np.where(small, np.log(-np.expm1(-np.where(small, y, 1.0))), np.log1p(-np.exp(-y)))


# ---------------------------------------------------------------------------
# families


# The Gauss-Legendre rule on [0, 1] for every quadrature of H, head and
# tail.  (numpy's leggauss rather than scipy's roots_legendre, whose first
# call imports scipy.linalg: +7 MB.)
def _legendre01(n):
    t, w = leggauss(n)
    return 0.5 * (t + 1.0), 0.5 * w


_TAIL_T, _TAIL_W = _legendre01(64)
# The head's rule under s = x t^p, one row per power p = 1..5: nodes t^p
# and weights p t^(p-1) W.  Rows p >= 2 are renormalized to sum to 1, since
# the head is subtracted from rho B and small caps amplify a weight sum's
# error by ~1/cap; row 1 is the rule itself.  Tabulated once, because
# numpy's vectorised power is not bit-stable across batch positions.
_HEAD_T = np.vstack([_TAIL_T**p for p in range(1, 6)])
_HEAD_W = np.vstack([p * _TAIL_T ** (p - 1) * _TAIL_W for p in range(1, 6)])
_HEAD_W[1:] /= _HEAD_W[1:].sum(axis=1, keepdims=True)


class LossFamily:
    """Extension point for additional loss families.

    Every method takes equal-length 1-D float arrays, one element per
    entity, that the public functions have already broadcast, flattened
    and checked (finite and >= 0), and returns arrays of that length.
    Subclasses must implement ``blocking`` and must satisfy the module
    axioms including saturation; the generic inversion, one exact
    bisection over the float loads up to 1e12, raises InversionError
    otherwise.
    Override ``survival`` where 1 - F loses precision near F = 1,
    ``offered_at``, ``utilization``, ``integral_at_load`` (H at a known
    load), ``blocking_slope`` (by default one more ``blocking`` call) and
    ``capacity_slope`` (by default a difference of ``integral_at_load``)
    when closed forms or array kernels exist, and ``kink_load`` where F
    has a kink.  Register with ``register_family``.  The solvers call each
    hook once per family per evaluation, on that family's entities only and
    never with an empty array, looking it up on the instance at each call.

    The default ``integral_at_load`` integrates the blocking curve with
    one fixed 64-node Gauss-Legendre rule, the head under s = x t^p and
    the tail in log space, which holds a family to this contract: near
    s = 0, B(s, cap) behaves like s^cap (or is flatter), and B has no kink
    inside [0, rho(y)].  A family whose blocking has a kink there overrides
    ``integral_at_load``, as linear_clip does (its kink at rho = cap
    would put the default H off by ~1e-3 relative at cap = 0.4).
    """

    name = "abstract"

    def blocking(self, rho, cap):
        raise NotImplementedError

    def survival(self, rho, cap):
        """1 - F; override where the subtraction loses precision near F = 1
        (the inversion and integration kernels lean on this in saturation)."""
        return 1.0 - self.blocking(rho, cap)

    def survival_scalar(self, rho, cap):
        """Scalar 1 - F through the array ``survival``.  Nothing in the
        package calls it; perfbench/tracer.py wraps it by name."""
        return float(self.survival(np.array([rho], dtype=float), np.array([cap], dtype=float))[0])

    def offered_at(self, y, cap):
        """Generalized upper inverse rho(y) of the log-loss curve."""
        return _upper_inverse(self, y, cap)

    def utilization(self, y, cap):
        """U(y, cap) = rho(y) e^(-y)."""
        return self.offered_at(y, cap) * np.exp(-y)

    def blocking_slope(self, rho, cap, b):
        """dB/drho for checked 1-D arrays, given B there: a forward
        difference, floored at 0 since B is nondecreasing."""
        step = 1e-6 * (1.0 + rho)
        return np.maximum((self.blocking(rho + step, cap) - b) / step, 0.0)

    def capacity_slope(self, y, cap, rho):
        """dH/dcap at fixed y, given rho = rho(y, cap); 0 at y = 0, where H
        vanishes for every cap.

        With B = 1 - e^(-y) fixed, H = rho B - Int_0^rho B(s, cap) ds and
        the rho B terms cancel, so dH/dcap = -d/dcap Int_0^rho B(s, cap) ds
        at fixed rho.  At cap > 0 this is a central difference of
        ``integral_at_load`` over [max(0, cap - h), cap + h] with
        h = max(_FD_STEP_FLOOR, _FD_STEP_REL cap), which inverts nothing.
        At cap = 0 it is y, a rule rather than a derivative: the slope of
        the bound H(y, cap) <= cap y, which holds wherever carried load U is
        at most cap, so y bounds every secant H(y, h) / h from above.

        linear_clip's H = cap y would give y itself at cap > 0 too, but
        it takes this difference, which is y up to a few ulps, because
        Frank-Wolfe's zigzag across flat_pair's kink follows those ulps:
        with y itself it reaches probes whose capacities lie 3.5e-9 apart,
        where the warm-started fixed point does not converge
        (test_flat_pair_probes_converge_without_creeping).
        """
        out = np.where(cap == 0.0, y, 0.0)
        live = (y > 0.0) & (cap > 0.0) & (rho > 0.0)
        if live.any():
            c, r = cap[live], rho[live]
            step = np.maximum(_FD_STEP_FLOOR, _FD_STEP_REL * c)
            lo, hi = np.maximum(0.0, c - step), c + step
            both = self.integral_at_load(np.tile(y[live], 2), np.concatenate((hi, lo)), np.tile(r, 2))
            out[live] = (both[: c.size] - both[c.size :]) / (hi - lo)
        return out

    def integral_at_load(self, y, cap, rho):
        """H(y, cap) given rho = rho(y, cap), for y > 0 and rho > 0; the
        one place a family's H is formed.

        Changing variables z -> rho turns Int_0^y U dz into
        Int_0^rho S(s) ds - rho e^(-y) = rho B(rho) - Int_0^rho B(s) ds.
        The head [0, min(rho, max(1, cap))] integrates B, which keeps
        low-load levels free of cancellation; past it the tail runs in
        log space, where the carried curve s S(s) flattens in saturation,
        so deep-saturation levels cost the same fixed rule.
        """
        b0 = np.maximum(1.0, cap)
        x = np.minimum(rho, b0)
        head = self._blocking_head(x, cap)
        h = rho * -np.expm1(-y) - head
        tail = rho > b0
        if tail.any():
            lo = np.log(b0[tail])
            width = np.log(rho[tail]) - lo
            s = np.exp(lo[:, None] + width[:, None] * _TAIL_T)
            vals = self.survival(s.reshape(-1), np.repeat(cap[tail], _TAIL_T.size)).reshape(s.shape) * s
            h[tail] = (b0[tail] - head[tail]) + width * (vals * _TAIL_W).sum(axis=1) - rho[tail] * np.exp(-y[tail])
        return h

    def _blocking_head(self, x, cap):
        # Int_0^x B(s, cap) ds in one blocking() call.  Near s = 0 the
        # curve behaves like s^cap: analytic at integer cap and flat
        # enough at cap >= 4 for the rule as it stands (p = 1).  Otherwise
        # s = x t^p with p = ceil(5 / (1 + cap)) turns the s^cap cusp into
        # t^(p (1 + cap) - 1), which the same rule resolves.
        p = np.where(cap == np.floor(cap), 1, np.ceil(5.0 / (1.0 + cap)).astype(int))
        b = np.asarray(self.blocking((x[:, None] * _HEAD_T[p - 1]).reshape(-1), np.repeat(cap, _TAIL_T.size)))
        return x * (b.reshape(-1, _TAIL_T.size) * _HEAD_W[p - 1]).sum(axis=1)

    def log_loss_ceiling(self, cap):
        """Largest y this family can be evaluated at before the inversion
        bracket cap would be exceeded; inf when the inverse is analytic."""
        return np.full(cap.size, np.inf)

    def kink_load(self, cap):
        """The load at which F has a kink, where Newton steps on the fixed
        point change their Jacobian; inf (none) by default."""
        return np.full(cap.size, np.inf)


# Log-load floor of the Erlang inversion: levels whose rho(y) lies below
# it (tiny capacities at small y) resolve to rho = 0.
_LOG_RHO_MIN = math.log(1e-300)
_NEWTON_MAX_ITERS = 100


class _ErlangB(LossFamily):
    """Continuous-capacity Erlang-B blocking.

    1/B = rho * Int_0^inf e^(-rho t) (1+t)^cap dt, which equals
    e^rho * rho^(-cap) * Gamma(cap+1, rho); see _erlang_log_rest for how B
    and 1 - B are evaluated.  offered_at is a batched Newton inversion
    (_erlang_invert); H then comes from the default fixed rule.
    """

    name = "erlang_b"

    def blocking(self, rho, cap):
        out = np.zeros(rho.size)
        pos = rho > 0.0
        out[pos & (cap <= 0.0)] = 1.0
        work = pos & (cap > 0.0)
        if work.any():
            out[work] = expit(-_erlang_log_rest(rho[work], cap[work]))
        return out

    def survival(self, rho, cap):
        out = np.ones(rho.size)
        pos = rho > 0.0
        out[pos & (cap <= 0.0)] = 0.0
        work = pos & (cap > 0.0)
        if work.any():
            out[work] = expit(_erlang_log_rest(rho[work], cap[work]))
        return out

    def offered_at(self, y, cap):
        # F strictly increasing from F(0, cap) = 0, so y = 0 <=> rho = 0;
        # cap = 0 blocks everything offered, so rho(y) = 0 there too.  The
        # Newton inversion always runs to rounding.
        rho = np.zeros(y.size)
        live = (y > 0.0) & (cap > 0.0)
        if live.any():
            rho[live] = _erlang_invert(y[live], cap[live])
        return rho

    def blocking_slope(self, rho, cap, b):
        # Jagerman's dB/drho = B (cap - rho S) / rho; 0 at rho = 0, where
        # no load is offered.
        out = np.zeros(rho.size)
        pos = rho > 0.0
        out[pos] = b[pos] * _erlang_headroom(rho[pos], cap[pos], b[pos]) / rho[pos]
        return out

    def log_loss_ceiling(self, cap):
        # Carried load <= cap gives rho(y) <= cap * e^y; keeping that under
        # 1e10 leaves a 100x margin inside the 1e12 bracket cap.  xlogy(1, z)
        # is libm's log(z), as math.log is; numpy's vectorised log can
        # differ from it in the last bit.
        return np.maximum(1e-3, xlogy(1.0, 1e10 / np.maximum(cap, 1e-10)))


_SERIES_CHUNK = np.arange(16.0)  # asymptotic-series terms per vectorised step


def _erlang_series(rho, cap, power=0):
    """sum_k k^power (cap)_k / rho^k over k >= 1; power 0 gives 1/B - 1
    from the asymptotic series 1/B = sum_k (cap)_k / rho^k.

    (cap)_k is the falling factorial; the series is asymptotic, so each
    element stops at its smallest term, or once terms drop below 1e-18 of
    the first (the sum itself is 1/B - 1 to relative accuracy).  Truncation
    error is ~e^(cap-rho) relative, which is why callers gate it on
    rho >= max(4 cap, 35) (``_saturated``).  Terms come 16 at a time from a
    running product, so the loop runs a handful of times, not once per
    term.
    """
    total = np.zeros(rho.size)
    term = np.ones(rho.size)
    prev_mag = np.full(rho.size, np.inf)
    floor = 1e-18 * cap / rho  # the first term
    active = np.ones(rho.size, dtype=bool)
    for start in range(0, 128, _SERIES_CHUNK.size):
        terms = term[:, None] * np.cumprod((cap[:, None] - (start + _SERIES_CHUNK)) / rho[:, None], axis=1)
        mags = np.abs(terms)
        decreasing = mags < np.concatenate([prev_mag[:, None], mags[:, :-1]], axis=1)
        keep = np.logical_and.accumulate(decreasing & (mags > floor[:, None]), axis=1) & active[:, None]
        weighted = terms * (start + 1.0 + _SERIES_CHUNK) ** power if power else terms
        total += np.where(keep, weighted, 0.0).sum(axis=1)
        active = keep[:, -1]
        if not active.any():
            break
        term, prev_mag = terms[:, -1], mags[:, -1]
    return total


def _saturated(rho, cap):
    """Where the falling-factorial series replaces the incomplete gamma."""
    return rho >= np.maximum(4.0 * cap, 35.0)


def _erlang_headroom(rho, cap, b):
    """cap - rho S for flat rho, cap, given B = 1 - S there.

    Carried load rho S tends to cap in saturation, where the difference
    keeps no digits; there it is B sum_k k (cap)_k / rho^k (subtract
    rho S = rho B sum_{k>=1} (cap)_k / rho^k from cap = cap B / B term by
    term).  Below that gate the difference is at least ~B cap / rho of
    cap, so taken as it stands it loses at most about log10(rho / B)
    digits.  Floored at 0, since Jagerman's dB/drho = B (cap - rho S) / rho
    is nonnegative.
    """
    out = cap - rho * (1.0 - b)
    series = _saturated(rho, cap) & (cap > 0.0)
    if series.any():
        out[series] = b[series] * _erlang_series(rho[series], cap[series], 1)
    return np.maximum(out, 0.0)


def _erlang_log_rest(rho, cap):
    """log(rest), rest = 1/B - 1 = cap e^rho rho^-cap Gamma(cap, rho), for
    flat rho, cap > 0 (Gamma(cap+1, rho) = cap Gamma(cap, rho) + rho^cap e^-rho).

    B = expit(-log rest), S = 1 - B = expit(log rest) and the log-loss
    -log S = log(1 + 1/rest) then carry no cancellation at either end:
    not at low load (rest huge), not in saturation (rest -> cap/rho), and
    not for small cap, where S itself is ~cap.  log(rest) goes through
    the regularized incomplete gamma function, or through the falling-
    factorial series far above cap and where the gamma tail underflows.
    """
    log_rest = np.empty(rho.size)
    series = _saturated(rho, cap)
    direct = ~series
    if direct.any():
        rd, cd = rho[direct], cap[direct]
        # gammaincc can return 0, or a value below 0 at a subnormal cap;
        # either log is non-finite and the element takes the series
        with np.errstate(divide="ignore", invalid="ignore"):
            log_q = np.log(gammaincc(cd, rd))
        log_rest[direct] = rd - cd * np.log(rd) + gammaln(cd + 1.0) + log_q
        series = ~np.isfinite(log_rest) | series
    if series.any():
        # the series' first term cap / rho underflows at a subnormal cap:
        # rest = 0, so B = 1
        with np.errstate(divide="ignore"):
            log_rest[series] = np.log(_erlang_series(rho[series], cap[series]))
    return log_rest


def _erlang_invert(y, cap):
    """rho(y) for flat arrays y > 0, cap > 0: safeguarded Newton in u = log rho.

    Newton runs on g(u) = log(l(u) / y), l = -log(1 - B) the log-loss,
    whose slope follows from dB/drho = B (cap/rho - 1 + B) (Jagerman
    1974): dl/du = B (cap - rho S) / S with S = 1 - B.  g is near linear
    in u at low load (l ~ rho^cap / Gamma(cap+1)) and near log-linear in
    saturation (l ~ u - log cap), so Newton from the matching asymptote
    takes a few steps either way.  Analytic bounds bracket the root:

      rho S <= cap                  gives rho <= cap e^y,
      B <= rho^cap / Gamma(cap+1)   gives the low-load form as a lower bound,
      B >= rho^cap e^-rho / Gamma(cap+1) caps rho below 1 at low load,
      B <= rho / (rho + cap)        (cap >= 1) gives rho >= cap (e^y - 1).

    A step that leaves the bracket falls back to the midpoint; each
    evaluation tightens the bracket; an element that has converged is
    frozen.  Elements never interact, so one element's result does not
    depend on the rest of the batch.
    """
    # rho S <= cap gives rho <= cap e^y; where that is below the floor,
    # rho(y) = 0 and no other bound is formed (at a subnormal cap they overflow).
    out = np.full(y.size, -np.inf)  # log rho, -inf where no Newton runs
    log_cap = np.log(cap)
    idx = np.flatnonzero(log_cap + y > _LOG_RHO_MIN)
    y, cap, log_cap = y[idx], cap[idx], log_cap[idx]
    log_b = _log1mexp(y)  # log(1 - e^-y) = log B at the root
    lgam = gammaln(cap + 1.0)
    low = (lgam + log_b) / cap
    lo = np.maximum(low, _LOG_RHO_MIN)
    big = cap >= 1.0
    lo[big] = np.maximum(lo[big], log_cap[big] + np.log(np.expm1(y[big])))
    hi = log_cap + y
    k = lgam + log_b + 1.0
    small = k < 0.0
    hi[small] = np.minimum(hi[small], k[small] / cap[small])
    with np.errstate(over="ignore", divide="ignore"):
        saturated = np.log(np.maximum(cap * np.exp(y) - 1.0, 0.0))
    # The bounds are exact in limits (cap = 1, rho -> 0), where rounding
    # can put the root a hair outside; a relative pad keeps Newton steps
    # that land there from being mistaken for escapes.
    pad = 1e-9 * (1.0 + np.abs(lo) + np.abs(hi))
    lo, hi = lo - pad, hi + pad
    u = np.clip(np.maximum(low, saturated), lo, hi)

    # Working arrays hold the unconverged elements only; a converged
    # element's u is written out and it leaves them.
    live = hi > _LOG_RHO_MIN
    idx, u, cap, lo, hi, log_y = idx[live], u[live], cap[live], lo[live], hi[live], np.log(y[live])
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_MAX_ITERS):
            if idx.size == 0:
                break
            rho = np.exp(u)
            log_rest = _erlang_log_rest(rho, cap)
            ell = np.logaddexp(0.0, -log_rest)
            s = expit(log_rest)
            log_ell = np.log(ell)
            # A subnormal l keeps few digits, so there log l is formed in
            # log space: log x + log(log1p(x)/x) with x = 1/rest, where the
            # second term is -x/2 to rounding.
            sub = ell < _TINY
            if sub.any():
                log_ell[sub] = -log_rest[sub] - 0.5 * np.exp(-log_rest[sub])
            g = log_ell - log_y
            # B/S = 1/rest.  rest * ell = log1p(x)/x with x = 1/rest lies in
            # (0, 1] and tends to 1 where rest itself would overflow, so it
            # is taken in log space.
            slope = (cap - rho * s) / np.exp(log_rest + log_ell)
            step = g / slope
            lo = np.where(g < 0.0, u, lo)
            hi = np.where(g > 0.0, u, hi)
            nxt = u - step
            inside = (nxt > lo) & (nxt < hi)  # NaN compares false
            # A step within what rounding in u, or in l (a few ulps), can
            # resolve ends the element; it is taken unguarded, since at
            # that size it may round onto a bracket end.  A step below
            # 1e-8 that stays inside ends it too: Newton's next correction
            # would be of order step^2, below rounding.
            scale = np.maximum(1.0, np.abs(u))
            resolution = 8.0 * _EPS * scale
            close = np.abs(step) <= resolution + 8.0 * _EPS / np.abs(slope)
            u = np.where(close | inside, nxt, 0.5 * (lo + hi))
            done = close | (inside & (np.abs(step) <= 1e-8 * scale)) | (hi - lo <= resolution)
            if done.any():
                out[idx[done]] = u[done]
                keep = ~done
                idx, u, cap, lo, hi, log_y = idx[keep], u[keep], cap[keep], lo[keep], hi[keep], log_y[keep]
        else:
            raise InversionError("loss: erlang_b log-loss inversion did not converge")
    # a root below the floor ends on the bracket end just under it: rho = 0
    out[out < _LOG_RHO_MIN] = -np.inf
    rho = np.exp(out)
    if (rho > RHO_BRACKET_CAP).any():
        raise InversionError(f"loss: erlang_b offered load above {RHO_BRACKET_CAP:g} at this log-loss level")
    return rho


class _LinearClip(LossFamily):
    """B = max(0, (rho - cap)/rho): lossless below cap, overflow above."""

    name = "linear_clip"

    def blocking(self, rho, cap):
        out = np.zeros(rho.size)
        pos = rho > 0.0
        out[pos] = np.clip((rho[pos] - cap[pos]) / rho[pos], 0.0, 1.0)
        return out

    def survival(self, rho, cap):
        out = np.ones(rho.size)
        pos = rho > 0.0
        out[pos] = np.clip(cap[pos] / rho[pos], 0.0, 1.0)
        return out

    def offered_at(self, y, cap):
        with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf at zero capacity
            rho = np.where(cap > 0.0, cap * np.exp(y), 0.0)
        if np.isinf(rho).any():
            raise InversionError("loss: linear_clip offered load overflows at this log-loss level")
        return rho

    def utilization(self, y, cap):
        return cap.copy()

    def integral_at_load(self, y, cap, rho):
        return cap * y  # U = cap at every level

    def kink_load(self, cap):
        return cap.copy()  # B = 0 up to rho = cap, (rho - cap) / rho past it

    def blocking_slope(self, rho, cap, b):
        # cap / rho^2 above the kink at rho = cap, 0 on the plateau below
        out = np.zeros(rho.size)
        over = rho > cap
        out[over] = cap[over] / rho[over] / rho[over]
        return out


class _ExpOverflow(LossFamily):
    """B = exp(-cap/rho): smooth everywhere, saturating in rho."""

    name = "exp_overflow"

    def blocking(self, rho, cap):
        out = np.zeros(rho.size)
        pos = rho > 0.0
        with np.errstate(divide="ignore"):
            out[pos] = np.exp(-cap[pos] / rho[pos])
        return out

    def survival(self, rho, cap):
        out = np.ones(rho.size)
        pos = rho > 0.0
        with np.errstate(divide="ignore"):
            out[pos] = -np.expm1(-cap[pos] / rho[pos])
        return out

    def offered_at(self, y, cap):
        # solve exp(-cap/rho) = 1 - e^(-y)
        rho = np.zeros(y.size)
        live = (y > 0.0) & (cap > 0.0)
        # rho ~ cap e^y is no float past y ~ 709; past y ~ 745 the log is -0.0
        with np.errstate(divide="ignore", over="ignore"):
            rho[live] = -cap[live] / _log1mexp(y[live])
        if np.isinf(rho).any():
            raise InversionError("loss: exp_overflow offered load overflows at this log-loss level")
        return rho

    def integral_at_load(self, y, cap, rho):
        # substituting u = 1 - e^(-z) gives cap * Int_0^B du/(-log u),
        # the logarithmic integral, expressed through Ei.
        return -cap * expi(_log1mexp(y))

    def capacity_slope(self, y, cap, rho):
        # H is linear in cap at fixed y: -Ei(log(1 - e^(-y))), which is E1(cap / rho)
        out = np.zeros(y.size)
        live = y > 0.0
        out[live] = -expi(_log1mexp(y[live]))
        return out

    def blocking_slope(self, rho, cap, b):
        # B cap / rho^2, and 0 where B = 0 (rho = 0, or cap / rho past
        # exp's range)
        out = np.zeros(rho.size)
        pos = b > 0.0
        out[pos] = b[pos] * (cap[pos] / rho[pos]) / rho[pos]
        return out


# ---------------------------------------------------------------------------
# registry and public operations


_REGISTRY: dict[str, LossFamily] = {}


def register_family(family: LossFamily) -> None:
    """Add a loss family to the registry under family.name."""
    name = getattr(family, "name", "")
    if not name or not isinstance(name, str):
        raise LossDomainError("loss: a loss family must carry a non-empty name")
    _REGISTRY[name] = family


def get_family(kind: str) -> LossFamily:
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise LossDomainError(f"loss: unknown loss kind '{kind}'") from None


def loss_kinds() -> tuple[str, ...]:
    return tuple(_REGISTRY)


register_family(_ErlangB())
register_family(_LinearClip())
register_family(_ExpOverflow())


@dataclass(frozen=True)
class LossSpec:
    """Reference to a registered loss family."""

    kind: str

    def __post_init__(self):
        if self.kind not in _REGISTRY:
            raise LossDomainError(f"loss: unknown loss kind '{self.kind}'")


def _check_domain(rho, cap, kind):
    if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(cap))):
        raise LossDomainError(f"loss: {kind} load and capacity must be finite")
    if np.any(np.asarray(rho) < 0.0) or np.any(np.asarray(cap) < 0.0):
        raise LossDomainError(f"loss: {kind} load and capacity must be >= 0")


def loss(spec: LossSpec, rho, cap):
    """Blocking probability F(rho, cap) for the family named by `spec`.

    Accepts scalars or broadcastable numpy arrays.
    """
    _check_domain(rho, cap, spec.kind)
    r, c, shape = _broadcast(rho, cap)
    return _finish(get_family(spec.kind).blocking(r, c), shape)


def utilization(spec: LossSpec, y, cap):
    """U(y, cap) = rho(y) * e^(-y), mean capacity in use at log-loss y.

    Accepts scalars or broadcastable numpy arrays.
    """
    ys, cs, shape = _levels(y, cap, spec.kind)
    return _finish(np.asarray(get_family(spec.kind).utilization(ys, cs), dtype=float), shape)


def utilization_terms(spec: LossSpec, y, cap):
    """(H, U): the integral of U(z, cap) over [0, y] and U(y, cap), from
    one inversion per element: rho = rho(y, cap), then the family's
    ``integral_at_load`` there.  H(0, cap) = 0 even where rho(0) > 0 (a
    plateau, or a log-loss that rounds to 0).  Accepts scalars or
    broadcastable arrays."""
    ys, cs, shape = _levels(y, cap, spec.kind)
    family = get_family(spec.kind)
    rho = family.offered_at(ys, cs)
    h = np.zeros(ys.size)
    live = (rho > 0.0) & (ys > 0.0)
    if live.any():
        h[live] = family.integral_at_load(ys[live], cs[live], rho[live])
    return _finish(h, shape), _finish(rho * np.exp(-ys), shape)


def utilization_integral(spec: LossSpec, y, cap):
    """Integral of U(z, cap) over [0, y].  Accepts scalars or broadcastable
    numpy arrays."""
    return utilization_terms(spec, y, cap)[0]


def utilization_measure(spec: LossSpec, blocking_prob, cap):
    """Int_0^{-log(1-B)} U(z, cap) dz: utilization_integral at the log-loss
    level of blocking B in [0, 1).  Accepts scalars or broadcastable arrays."""
    bs = np.asarray(blocking_prob, dtype=float)
    if not np.all((bs >= 0.0) & (bs < 1.0)):
        raise LossDomainError(f"loss: {spec.kind} blocking must lie in [0, 1)")
    return utilization_integral(spec, -np.log1p(-bs), cap)


def log_loss_ceiling(spec: LossSpec, cap):
    """Safe upper bound on y for this family and capacity (inf if analytic).
    Accepts a scalar or a numpy array of capacities, finite and >= 0."""
    _, cs, shape = _levels(0.0, cap, spec.kind)
    return _finish(get_family(spec.kind).log_loss_ceiling(cs), shape)
