"""Adaptive-Simpson reference for the utilization integral.

The library computes H(y, cap) = Int_0^y U(z, cap) dz one way per
family: a closed form, or a change of variables to offered load
integrated by fixed Gauss-Legendre rules.  This module integrates the
pointwise utilization U(z) = rho(z) e^(-z) directly in z, refining
panels until each integral meets its tolerance.  It is slower and looser
than the library route and shares nothing with it but the pointwise
inversion, so it lives here as the oracle the library is checked
against.
"""

import numpy as np

from sliceforge import utilization

ABS_TOL = 1e-8
REL_TOL = 1e-6
MAX_DEPTH = 40


def adaptive_simpson(f, b, abs_tol=ABS_TOL, rel_tol=REL_TOL, max_depth=MAX_DEPTH):
    """Adaptive Simpson integrals of f(z, i) over z in [0, b_i], for all i at once.

    f takes an array of nodes z and the index i of the integral each
    belongs to, and returns the integrands there.  A panel is accepted
    when its Richardson estimate |S2 - S1| is within 15x its integral's
    tolerance; the err/15 correction then leaves its true error far below
    that bar.  The tolerance is judged per integral rather than split per
    subdivision so that root-type edge behaviour (the Erlang utilization
    curve rises like z^(1/cap) at 0) refines in depth ~ log of the target
    instead of exhausting the budget.  The open panels of every integral
    are refined together, one call of f per level.  Raises RuntimeError
    when max_depth is exhausted anywhere.
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
            raise RuntimeError("adaptive Simpson exceeded max depth")
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


def oracle_measure(spec, blocking_prob, cap):
    """Int_0^{-log(1-B)} U(z, cap) dz by adaptive Simpson in z, for B in [0, 1)."""
    bs, cs = np.broadcast_arrays(np.asarray(blocking_prob, dtype=float), np.asarray(cap, dtype=float))
    shape = bs.shape
    bs, cs = bs.reshape(-1), cs.reshape(-1)
    out = np.zeros(bs.size)
    live = (bs > 0.0) & (cs > 0.0)
    if np.any(live):
        caps = cs[live]
        out[live] = adaptive_simpson(lambda z, i: utilization(spec, z, caps[i]), -np.log1p(-bs[live]))
    return float(out[0]) if shape == () else out.reshape(shape)
