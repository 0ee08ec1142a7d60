"""The erlang_b loss family: continuous-capacity Erlang-B blocking.

Its kernel, log(1/B - 1), goes through scipy's regularized incomplete
gamma function, or through a falling-factorial series far above the
capacity.  This module is the only one in the package that imports
scipy, and nothing imports it at package import: ``loss.get_family``
imports it on the first lookup of ``"erlang_b"``, so a model that names
the family loads scipy while it is being loaded, and ``import
sliceforge``, ``--help``, ``--version`` and models of the other families
load none.  It registers its family when imported.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit, gammaincc, gammaln, xlogy

from .loss import LossFamily, register_family


class _ErlangB(LossFamily):
    """Continuous-capacity Erlang-B blocking.

    1/B = rho * Int_0^inf e^(-rho t) (1+t)^cap dt, which equals
    e^rho * rho^(-cap) * Gamma(cap+1, rho).  One kernel describes it, the
    log-odds log(B / (1 - B)) = -log(1/B - 1) (see _erlang_log_rest); B
    and 1 - B are its expit, without cancellation at either end.  The
    inverse is the default bisection on it, and H the default fixed rule.
    """

    name = "erlang_b"

    def log_odds(self, rho, cap):
        # B = 0 at rho = 0, where no load is offered, and B = 1 at zero
        # capacity under load
        out = np.full(rho.size, -np.inf)
        pos = rho > 0.0
        out[pos & (cap <= 0.0)] = np.inf
        work = pos & (cap > 0.0)
        if work.any():
            out[work] = -_erlang_log_rest(rho[work], cap[work])
        return out

    def blocking(self, rho, cap):
        return expit(self.log_odds(rho, cap))

    def survival(self, rho, cap):
        return expit(-self.log_odds(rho, cap))

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

    -log(rest) is the log-odds log(B / S), so B = expit(-log rest) and
    S = 1 - B = expit(log rest) carry no cancellation at either end:
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


register_family(_ErlangB())
