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
  U(z, cap) for z in [0, y].  ``utilization_terms`` returns H and U
  together from one inversion; all three accept arrays, one entity per
  element, and run as one batched call per family.
* ``utilization_measure(spec, B, cap)``: integral of U(z, cap) for z in
  [0, -log(1-B)]; the capacity-cost correction attached to a blocking
  level B.

Three families ship here; more can be added with ``register_family``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import expi, expit, gammaincc, gammaln

__all__ = [
    "LossSpec",
    "LossFamily",
    "LossDomainError",
    "InversionError",
    "QuadratureError",
    "loss",
    "utilization",
    "utilization_measure",
    "utilization_integral",
    "utilization_terms",
    "log_loss_ceiling",
    "register_family",
    "get_family",
    "loss_kinds",
]

RHO_BRACKET_CAP = 1e12
INVERSION_TOL = 1e-10
INVERSION_MAX_ITERS = 200
MEASURE_ABS_TOL = 1e-8
MEASURE_REL_TOL = 1e-6
MEASURE_MAX_DEPTH = 40

# Tight inversion tolerance for the generic integral path used inside
# optimization loops, where finite differences of the objective divide
# out steps ~1e-6 and would otherwise amplify quadrature noise past the
# gradient checks.
_TIGHT_INVERSION_TOL = 1e-13


class LossDomainError(ValueError):
    """Input outside a loss operation's domain (negative load, B >= 1, ...)."""


class InversionError(RuntimeError):
    """The log-loss inverse left its bracket; loss family not saturating."""


class QuadratureError(RuntimeError):
    """An adaptive quadrature failed to reach its tolerance."""


# ---------------------------------------------------------------------------
# numerical kernels


def _adaptive_simpson(f, b, abs_tol, rel_tol, max_depth):
    """Adaptive Simpson integrals of f(z, i) over z in [0, b_i], for all i at once.

    f takes an array of nodes z and the index i of the integral each
    belongs to, and returns the integrands there.  A panel is accepted
    when its Richardson estimate |S2 - S1| is within 15x its integral's
    tolerance; the err/15 correction then leaves its true error far below
    that bar.  The tolerance is judged per integral rather than split per
    subdivision so that root-type edge behaviour (the Erlang utilization
    curve rises like z^(1/cap) at 0) refines in depth ~ log of the target
    instead of exhausting the budget.  A panel's fate depends only on the
    panel, so the open panels of every integral are refined together, one
    call of f per level.  Raises QuadratureError when max_depth is
    exhausted anywhere.
    """
    n = b.size
    lo, hi = np.zeros(n), np.asarray(b, dtype=float)
    owner = np.arange(n)
    values = np.asarray(f(np.concatenate([lo, 0.5 * hi, hi]), np.tile(owner, 3)), dtype=float)
    f_lo, f_mid, f_hi = values[:n], values[n : 2 * n], values[2 * n :]
    est = hi / 6.0 * (f_lo + 4.0 * f_mid + f_hi)
    tol = 15.0 * np.maximum(abs_tol, rel_tol * np.abs(est))
    total = np.zeros(n)
    for depth in range(max_depth, -1, -1):
        if owner.size == 0:
            break
        mid = 0.5 * (lo + hi)
        quarters = np.asarray(f(np.concatenate([0.5 * (lo + mid), 0.5 * (mid + hi)]), np.tile(owner, 2)), dtype=float)
        f_lm, f_rm = quarters[: owner.size], quarters[owner.size :]
        left = (mid - lo) / 6.0 * (f_lo + 4.0 * f_lm + f_mid)
        right = (hi - mid) / 6.0 * (f_mid + 4.0 * f_rm + f_hi)
        err = left + right - est
        done = np.abs(err) <= tol[owner]
        np.add.at(total, owner[done], (left + right + err / 15.0)[done])
        more = ~done
        if depth == 0 and np.any(more):
            raise QuadratureError("adaptive Simpson exceeded max depth")
        owner = np.tile(owner[more], 2)
        lo, hi, mid = lo[more], hi[more], mid[more]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        f_lo, f_mid, f_hi = (
            np.concatenate([f_lo[more], f_mid[more]]),
            np.concatenate([f_lm[more], f_rm[more]]),
            np.concatenate([f_mid[more], f_hi[more]]),
        )
        est = np.concatenate([left[more], right[more]])
    return total


def _upper_inverse(family, y, cap, tol, bracket_cap=RHO_BRACKET_CAP, max_iters=INVERSION_MAX_ITERS):
    """rho(y) = sup{rho >= 0 : -log(1 - F(rho, cap)) <= y}.

    Bracket by doubling from max(1, cap), then bisect until the bracket's
    log-loss spread is within tol.  The sup convention resolves plateaus of
    F from above (so e.g. linear_clip gives rho(0) = cap, not 0).
    """
    if y < 0.0 or not math.isfinite(y):
        raise LossDomainError("log-loss level must be finite and >= 0")

    def log_loss(rho):
        s = family.survival_scalar(rho, cap)
        if s <= 0.0:
            return math.inf
        return -math.log(s)

    lo = 0.0
    hi = max(1.0, cap)
    doublings = 0
    while log_loss(hi) <= y:
        lo = hi
        hi *= 2.0
        doublings += 1
        if hi > bracket_cap or doublings > max_iters:
            raise InversionError("non-saturating loss function")
    f_lo = log_loss(lo)
    f_hi = log_loss(hi)
    for _ in range(max_iters):
        if f_hi - f_lo <= tol:
            break
        if hi - lo <= 1e-16 * (1.0 + hi):
            break
        mid = 0.5 * (lo + hi)
        f_mid = log_loss(mid)
        if f_mid <= y:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo


def _broadcast(rho, cap):
    """Common scalar/array handling for the blocking implementations."""
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


def _levels(y, cap):
    """Broadcast log-loss levels and capacities to flat arrays, checking both."""
    ys, cs, shape = _broadcast(y, cap)
    if not np.isfinite(ys).all() or (ys < 0.0).any():
        raise LossDomainError("log-loss level must be finite and >= 0")
    if not np.isfinite(cs).all() or (cs < 0.0).any():
        raise LossDomainError("capacity must be finite and >= 0")
    return ys, cs, shape


def _log1mexp(y):
    """log(1 - e^(-y)) for y > 0 without cancellation at either end
    (Maechler 2012): expm1 where e^(-y) is near 1, log1p where it is small."""
    small = y <= math.log(2.0)
    with np.errstate(divide="ignore"):
        return np.where(small, np.log(-np.expm1(-np.where(small, y, 1.0))), np.log1p(-np.exp(-y)))


# ---------------------------------------------------------------------------
# families


class LossFamily:
    """Extension point for additional loss families.

    Subclasses must implement ``blocking`` (accepting scalars or numpy
    arrays) and must satisfy the module axioms including saturation;
    the generic inversion raises InversionError otherwise.  Override
    ``offered_at``, ``utilization`` and ``utilization_terms`` when closed
    forms or array kernels exist.  Register instances with
    ``register_family``.
    """

    name = "abstract"

    def blocking(self, rho, cap):
        raise NotImplementedError

    def survival(self, rho, cap):
        """1 - F; override where the subtraction loses precision near F = 1
        (the inversion and quadrature kernels lean on this in saturation)."""
        return 1.0 - self.blocking(rho, cap)

    def survival_scalar(self, rho, cap):
        """Scalar 1 - F; the generic bisection calls this once per node, so
        families can shed the array dispatch."""
        return float(self.survival(rho, cap))

    def offered_at(self, y, cap, tol=INVERSION_TOL):
        """Generalized upper inverse rho(y) of the log-loss curve; scalars or arrays."""
        ys, cs, shape = _broadcast(y, cap)
        return _finish(np.array([_upper_inverse(self, a, c, tol) for a, c in zip(ys, cs)]), shape)

    def utilization(self, y, cap, tol=INVERSION_TOL):
        """U(y, cap) = rho(y) e^(-y); scalars or arrays."""
        return self.offered_at(y, cap, tol) * np.exp(-np.asarray(y, dtype=float))

    def utilization_terms(self, y, cap):
        """H(y, cap) and U(y, cap) for 1-D arrays of checked levels and
        capacities, one entity per element.

        The generic version integrates the pointwise utilization by
        adaptive Simpson, refining all entities' panels together.
        """
        u = np.asarray(self.utilization(y, cap, _TIGHT_INVERSION_TOL), dtype=float)
        h = np.zeros(y.size)
        live = (y > 0.0) & (cap > 0.0)
        if np.any(live):
            caps = cap[live]
            h[live] = _adaptive_simpson(
                lambda z, i: self.utilization(z, caps[i], _TIGHT_INVERSION_TOL),
                y[live],
                MEASURE_ABS_TOL,
                MEASURE_REL_TOL,
                MEASURE_MAX_DEPTH,
            )
        return h, u

    def log_loss_ceiling(self, cap):
        """Largest y this family can be evaluated at before the inversion
        bracket cap would be exceeded; inf when the inverse is analytic."""
        return math.inf


# Gauss-Legendre rules on [0, 1]: _TAIL for the smooth stretches, _PANEL
# for each dyadic panel of a graded head.  (numpy's leggauss rather than
# scipy's roots_legendre, whose first call imports scipy.linalg: +7 MB.)
def _legendre01(n):
    t, w = leggauss(n)
    return 0.5 * (t + 1.0), 0.5 * w


_TAIL_T, _TAIL_W = _legendre01(64)
_PANEL_T, _PANEL_W = _legendre01(12)
# Dyadic panels toward s = 0 on a graded head: the dropped piece
# [0, x 2^-K] is ~2^(-K(1 + cap)) of the head and is added back from its
# leading term, whose own error is a further factor x 2^-K smaller.
_HEAD_PANELS = 24
_PANEL_LO = np.exp2(-np.arange(1, _HEAD_PANELS + 1, dtype=float))

# Log-load floor of the Erlang inversion: levels whose rho(y) provably
# lies below it (tiny capacities at small y) resolve to rho = 0.
_LOG_RHO_MIN = math.log(1e-300)
_NEWTON_MAX_ITERS = 100
_EPS = np.finfo(float).eps


class _ErlangB(LossFamily):
    """Continuous-capacity Erlang-B blocking.

    1/B = rho * Int_0^inf e^(-rho t) (1+t)^cap dt, which equals
    e^rho * rho^(-cap) * Gamma(cap+1, rho); see _erlang_log_rest for how B
    and 1 - B are evaluated.  H and U come from a batched Newton
    inversion (_erlang_invert) and fixed Gauss-Legendre rules.
    """

    name = "erlang_b"

    def blocking(self, rho, cap):
        r, c, shape = _broadcast(rho, cap)
        out = np.zeros(r.size)
        pos = r > 0.0
        out[pos & (c <= 0.0)] = 1.0
        work = pos & (c > 0.0)
        if work.any():
            out[work] = expit(-_erlang_log_rest(r[work], c[work]))
        return _finish(out, shape)

    def survival(self, rho, cap):
        r, c, shape = _broadcast(rho, cap)
        out = np.ones(r.size)
        pos = r > 0.0
        out[pos & (c <= 0.0)] = 0.0
        work = pos & (c > 0.0)
        if work.any():
            out[work] = expit(_erlang_log_rest(r[work], c[work]))
        return _finish(out, shape)

    def offered_at(self, y, cap, tol=INVERSION_TOL):
        # F strictly increasing from F(0, cap) = 0, so y = 0 <=> rho = 0;
        # cap = 0 blocks everything offered, so rho(y) = 0 there too.  The
        # Newton inversion always runs to rounding, below any tol.
        ys, cs, shape = _levels(y, cap)
        rho = np.zeros(ys.size)
        live = (ys > 0.0) & (cs > 0.0)
        if live.any():
            rho[live] = _erlang_invert(ys[live], cs[live])
        return _finish(rho, shape)

    def utilization_terms(self, y, cap):
        # Change of variables z -> rho turns Int_0^y U dz into
        # Int_0^rho survival(s) ds - rho e^(-y) = rho B(rho) - Int_0^rho B(s) ds.
        # The head [0, min(rho, max(1, cap))] integrates B, which keeps
        # low-load levels free of cancellation; past it the tail runs in
        # log space, where the saturated curve s * survival(s) ~ cap is
        # nearly flat, so deep-saturation levels cost the same fixed rule.
        rho = np.asarray(self.offered_at(y, cap), dtype=float)
        u = rho * np.exp(-y)
        h = np.zeros(y.size)
        live = rho > 0.0
        if live.any():
            h[live] = self._integral(y[live], cap[live], rho[live])
        return h, u

    def _integral(self, y, cap, rho):
        b0 = np.maximum(1.0, cap)
        x = np.minimum(rho, b0)
        head = self._blocking_head(x, cap)
        h = rho * -np.expm1(-y) - head
        tail = rho > b0
        if tail.any():
            lo = np.log(b0[tail])
            width = np.log(rho[tail]) - lo
            s = np.exp(lo[:, None] + width[:, None] * _TAIL_T)
            vals = self.survival(s, cap[tail][:, None]) * s
            h[tail] = (b0[tail] - head[tail]) + width * (vals * _TAIL_W).sum(axis=1) - rho[tail] * np.exp(-y[tail])
        return h

    def _blocking_head(self, x, cap):
        # Int_0^x B(s, cap) ds in one blocking() call.  Near s = 0 the
        # curve behaves like s^cap: analytic for integer cap and flat
        # enough for cap >= 4 that one Gauss-Legendre rule resolves it.
        # Otherwise (cap < 1 is a root cusp) the head is graded: dyadic
        # panels toward 0 each see a smooth rescaled curve, and the
        # dropped piece [0, eps] is added back as B(eps) eps / (1 + cap).
        graded = (cap < 4.0) & (cap != np.floor(cap))
        smooth = ~graded
        xs, cs = x[smooth], cap[smooth]
        xg, cg = x[graded], cap[graded]
        hi = xg[:, None] * np.concatenate(([1.0], _PANEL_LO[:-1]))
        width = hi - xg[:, None] * _PANEL_LO
        eps = xg * _PANEL_LO[-1]
        nodes = [
            (xs[:, None] * _TAIL_T).reshape(-1),
            (hi[:, :, None] - width[:, :, None] * _PANEL_T).reshape(-1),
            eps,
        ]
        caps = [
            np.repeat(cs, _TAIL_T.size),
            np.repeat(cg, _HEAD_PANELS * _PANEL_T.size),
            cg,
        ]
        b = np.asarray(self.blocking(np.concatenate(nodes), np.concatenate(caps)))
        n_smooth = nodes[0].size
        n_graded = nodes[1].size
        out = np.empty(x.size)
        out[smooth] = xs * (b[:n_smooth].reshape(-1, _TAIL_T.size) * _TAIL_W).sum(axis=1)
        panels = b[n_smooth : n_smooth + n_graded].reshape(-1, _HEAD_PANELS, _PANEL_T.size)
        out[graded] = (width * (panels * _PANEL_W).sum(axis=2)).sum(axis=1) + b[n_smooth + n_graded :] * eps / (1.0 + cg)
        return out

    def log_loss_ceiling(self, cap):
        # Carried load <= cap gives rho(y) <= cap * e^y; keeping that under
        # 1e10 leaves a 100x margin inside the 1e12 bracket cap.
        return max(1e-3, math.log(1e10 / max(cap, 1e-10)))


_SERIES_CHUNK = np.arange(16.0)  # asymptotic-series terms per vectorised step


def _erlang_series_rest(rho, cap):
    """1/B - 1 from the asymptotic series 1/B = sum_k (cap)_k / rho^k.

    (cap)_k is the falling factorial; the series is asymptotic, so each
    element stops at its smallest term, or once terms drop below 1e-18 of
    the first (the sum itself is 1 - B to relative accuracy).  Truncation
    error is ~e^(cap-rho) relative, which is why callers gate it on
    rho >= max(4 cap, 35).  Terms come 16 at a time from a running
    product, so the loop runs a handful of times, not once per term.
    """
    rest = np.zeros(rho.size)
    term = np.ones(rho.size)
    prev_mag = np.full(rho.size, np.inf)
    floor = 1e-18 * cap / rho  # the first term
    active = np.ones(rho.size, dtype=bool)
    for start in range(0, 128, _SERIES_CHUNK.size):
        terms = term[:, None] * np.cumprod((cap[:, None] - (start + _SERIES_CHUNK)) / rho[:, None], axis=1)
        mags = np.abs(terms)
        decreasing = mags < np.concatenate([prev_mag[:, None], mags[:, :-1]], axis=1)
        keep = np.logical_and.accumulate(decreasing & (mags > floor[:, None]), axis=1) & active[:, None]
        rest += np.where(keep, terms, 0.0).sum(axis=1)
        active = keep[:, -1]
        if not active.any():
            break
        term, prev_mag = terms[:, -1], mags[:, -1]
    return rest


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
    series = rho >= np.maximum(4.0 * cap, 35.0)
    direct = ~series
    if direct.any():
        rd, cd = rho[direct], cap[direct]
        with np.errstate(divide="ignore"):
            log_q = np.log(gammaincc(cd, rd))
        log_rest[direct] = rd - cd * np.log(rd) + gammaln(cd + 1.0) + log_q
        series = ~np.isfinite(log_rest) | series
    if series.any():
        log_rest[series] = np.log(_erlang_series_rest(rho[series], cap[series]))
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
    log_b = _log1mexp(y)  # log(1 - e^-y) = log B at the root
    lgam = gammaln(cap + 1.0)
    log_cap = np.log(cap)
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
    out = np.zeros(y.size)
    idx = np.flatnonzero(live)
    u, cap, lo, hi, log_y = u[idx], cap[idx], lo[idx], hi[idx], np.log(y[idx])
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_MAX_ITERS):
            if idx.size == 0:
                break
            rho = np.exp(u)
            log_rest = _erlang_log_rest(rho, cap)
            ell = np.logaddexp(0.0, -log_rest)
            s = expit(log_rest)
            g = np.log(ell) - log_y
            slope = (cap - rho * s) / (np.exp(log_rest) * ell)  # B/S = 1/rest
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
            raise InversionError("Erlang log-loss inversion did not converge")
    rho = np.where(live, np.exp(out), 0.0)
    if (rho > RHO_BRACKET_CAP).any():
        raise InversionError("non-saturating loss function")
    return rho


class _LinearClip(LossFamily):
    """B = max(0, (rho - cap)/rho): lossless below cap, overflow above."""

    name = "linear_clip"

    def blocking(self, rho, cap):
        r, c, shape = _broadcast(rho, cap)
        out = np.zeros(r.size)
        pos = r > 0.0
        out[pos] = np.clip((r[pos] - c[pos]) / r[pos], 0.0, 1.0)
        return _finish(out, shape)

    def survival(self, rho, cap):
        r, c, shape = _broadcast(rho, cap)
        out = np.ones(r.size)
        pos = r > 0.0
        out[pos] = np.clip(c[pos] / r[pos], 0.0, 1.0)
        return _finish(out, shape)

    def offered_at(self, y, cap, tol=INVERSION_TOL):
        ys, cs, shape = _levels(y, cap)
        return _finish(cs * np.exp(ys), shape)

    def utilization(self, y, cap, tol=INVERSION_TOL):
        ys, cs, shape = _levels(y, cap)
        return _finish(cs.copy(), shape)

    def utilization_terms(self, y, cap):
        return np.where(y > 0.0, cap * y, 0.0), cap.copy()


class _ExpOverflow(LossFamily):
    """B = exp(-cap/rho): smooth everywhere, saturating in rho."""

    name = "exp_overflow"

    def blocking(self, rho, cap):
        r, c, shape = _broadcast(rho, cap)
        out = np.zeros(r.size)
        pos = r > 0.0
        with np.errstate(divide="ignore"):
            out[pos] = np.exp(-c[pos] / r[pos])
        return _finish(out, shape)

    def survival(self, rho, cap):
        r, c, shape = _broadcast(rho, cap)
        out = np.ones(r.size)
        pos = r > 0.0
        with np.errstate(divide="ignore"):
            out[pos] = -np.expm1(-c[pos] / r[pos])
        return _finish(out, shape)

    def offered_at(self, y, cap, tol=INVERSION_TOL):
        # solve exp(-cap/rho) = 1 - e^(-y)
        ys, cs, shape = _levels(y, cap)
        rho = np.zeros(ys.size)
        live = (ys > 0.0) & (cs > 0.0)
        rho[live] = -cs[live] / _log1mexp(ys[live])
        return _finish(rho, shape)

    def utilization_terms(self, y, cap):
        # substituting u = 1 - e^(-z) gives cap * Int_0^B du/(-log u),
        # the logarithmic integral, expressed through Ei.
        h = np.zeros(y.size)
        live = (y > 0.0) & (cap > 0.0)
        h[live] = -cap[live] * expi(_log1mexp(y[live]))
        return h, self.utilization(y, cap)


# ---------------------------------------------------------------------------
# registry and public operations


_REGISTRY: dict[str, LossFamily] = {}


def register_family(family: LossFamily) -> None:
    """Add a loss family to the registry under family.name."""
    name = getattr(family, "name", "")
    if not name or not isinstance(name, str):
        raise LossDomainError("loss family must carry a non-empty name")
    _REGISTRY[name] = family


def get_family(kind: str) -> LossFamily:
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise LossDomainError(f"unknown loss kind '{kind}'") from None


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
            raise LossDomainError(f"unknown loss kind '{self.kind}'")


def _check_domain(rho, cap):
    if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(cap))):
        raise LossDomainError("load and capacity must be finite")
    if np.any(np.asarray(rho) < 0.0) or np.any(np.asarray(cap) < 0.0):
        raise LossDomainError("load and capacity must be >= 0")


def loss(spec: LossSpec, rho, cap):
    """Blocking probability F(rho, cap) for the family named by `spec`.

    Accepts scalars or broadcastable numpy arrays.
    """
    _check_domain(rho, cap)
    return get_family(spec.kind).blocking(rho, cap)


def utilization(spec: LossSpec, y, cap, tol: float = INVERSION_TOL):
    """U(y, cap) = rho(y) * e^(-y), mean capacity in use at log-loss y.

    Accepts scalars or broadcastable numpy arrays.
    """
    ys, cs, shape = _levels(y, cap)
    return _finish(np.asarray(get_family(spec.kind).utilization(ys, cs, tol), dtype=float), shape)


def utilization_terms(spec: LossSpec, y, cap):
    """(H, U): the integral of U(z, cap) over [0, y] and U(y, cap), from
    one inversion per element.  Accepts scalars or broadcastable arrays."""
    ys, cs, shape = _levels(y, cap)
    h, u = get_family(spec.kind).utilization_terms(ys, cs)
    return _finish(h, shape), _finish(np.asarray(u, dtype=float), shape)


def utilization_integral(spec: LossSpec, y, cap):
    """Integral of U(z, cap) over [0, y]; same value as
    utilization_measure at B = 1 - e^(-y), via each family's fast path.
    Accepts scalars or broadcastable numpy arrays."""
    return utilization_terms(spec, y, cap)[0]


def utilization_measure(spec: LossSpec, blocking_prob, cap):
    """Adaptive-Simpson value of Int_0^{-log(1-B)} U(z, cap) dz.

    This is the reference quadrature route for all families; closed forms
    and the change-of-variables fast path are checked against it in tests.
    Accepts scalars or broadcastable numpy arrays; arrays are integrated
    together, one utilization call per refinement level.
    """
    bs, cs, shape = _broadcast(blocking_prob, cap)
    if not np.all((bs >= 0.0) & (bs < 1.0)):
        raise LossDomainError("blocking must lie in [0, 1)")
    if not np.all(np.isfinite(cs)) or np.any(cs < 0.0):
        raise LossDomainError("capacity must be finite and >= 0")
    family = get_family(spec.kind)
    out = np.zeros(bs.size)
    live = (bs > 0.0) & (cs > 0.0)
    if np.any(live):
        caps = cs[live]
        out[live] = _adaptive_simpson(
            lambda z, i: family.utilization(z, caps[i]),
            -np.log1p(-bs[live]),
            MEASURE_ABS_TOL,
            MEASURE_REL_TOL,
            MEASURE_MAX_DEPTH,
        )
    return _finish(out, shape)


def log_loss_ceiling(spec: LossSpec, cap: float) -> float:
    """Safe upper bound on y for this family and capacity (inf if analytic)."""
    return get_family(spec.kind).log_loss_ceiling(cap)
