"""Write tests/erlang_oracle.json: rho(y) and H(y, C) for continuous Erlang-B
at 30 significant digits, computed with mpmath independently of sliceforge.

    python tests/make_erlang_oracle.py

Run from the root of a checkout; needs mpmath.  The tier-1 tests read
the table only, so mpmath stays out of the test run.

Routes (all in mpmath arithmetic at 50 digits):

* B(rho, C) = rho^C e^-rho / Gamma(C+1, rho), the integral representation
  1/B = rho Int_0^inf e^(-rho t) (1+t)^C dt in closed form;
* rho(y) solves -log(1 - B(e^u, C)) = y for u = log rho by the Illinois
  method on a bracket grown from the low-load form rho^C / Gamma(C+1) = B;
* H(y, C) = Int_0^y rho(z) e^-z dz = Int_0^rho (B(rho) - B(s)) ds
  (substitute z = -log(1 - B(s)) and integrate by parts), integrated by
  tanh-sinh in w = log(rho / s), where the s^C cusp at s = 0 turns into
  a smooth exponential decay.

Each value is computed twice, at 50 and at 60 digits with a different
panel split, and the script stops if the two disagree beyond 1e-28
relative.
"""

from __future__ import annotations

import json
import math
import os

import mpmath as mp

CAPS = ("1e-3", "0.05", "0.2", "0.3", "0.7", "1", "1.05", "1.5", "2.5", "3", "3.7", "10", "50", "150")
LEVELS = ("1e-6", "0.01", "0.5", "3")
CEILING_FRACTION = "0.99"
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "erlang_oracle.json")


def ceiling(cap: float) -> float:
    """The float ceiling sliceforge uses: max(1e-3, log(1e10 / cap))."""
    return max(1e-3, math.log(1e10 / max(cap, 1e-10)))


def upper_gamma(a, x):
    """Gamma(a, x); below x = 1 as Gamma(a) minus the lower series
    gamma(a, x) = x^a e^-x sum_k x^k / (a (a+1) ... (a+k)), which stays
    fast for the tiny loads that deep low-load levels reach."""
    if x >= 1:
        return mp.gammainc(a, x)
    term = 1 / a
    total = term
    k = 0
    while abs(term) > mp.eps * abs(total):
        k += 1
        term *= x / (a + k)
        total += term
    return mp.gamma(a) - mp.exp(a * mp.log(x) - x) * total


def blocking(rho, cap):
    return mp.exp(cap * mp.log(rho) - rho) / upper_gamma(cap + 1, rho)


def log_loss(u, cap):
    return -mp.log1p(-blocking(mp.exp(u), cap))


def invert(y, cap):
    """u = log rho(y) by the Illinois method on a bracket grown from the
    low-load form (a lower bound: B <= rho^C / Gamma(C+1))."""
    lo = (mp.loggamma(cap + 1) + mp.log(-mp.expm1(-y))) / cap
    hi = lo + 1
    while log_loss(hi, cap) <= y:
        lo, hi = hi, hi + 2 * (hi - lo)
    return mp.findroot(lambda u: log_loss(u, cap) - y, (lo, hi), solver="illinois", maxsteps=500)


def integral(y, cap, rho, panels):
    """Int_0^rho (B(rho) - B(s)) ds, substituted s = rho e^-w and split into
    `panels` equal panels up to 8 past the knee w = log(rho / C), then one
    panel to infinity.  In w the s^C cusp at s = 0 becomes the smooth decay
    e^-(1+C)w, and the integrand is the small difference itself, so deep
    saturation (rho B(rho) and Int B both ~ rho) costs no digits."""
    top = -mp.expm1(-y)
    end = max(mp.log(rho / cap), 0) + 8
    points = [end * k / panels for k in range(panels + 1)] + [mp.inf]
    return rho * mp.quad(lambda w: (top - blocking(rho * mp.exp(-w), cap)) * mp.exp(-w), points)


def entry(cap_text, y_text, dps, panels):
    with mp.workdps(dps):
        cap = mp.mpf(float(cap_text))  # the exact doubles the tests pass
        y = mp.mpf(float(y_text))
        u = invert(y, cap)
        rho = mp.exp(u)
        return rho, integral(y, cap, rho, panels)


def main():
    rows = []
    for cap_text in CAPS:
        top = repr(float(CEILING_FRACTION) * ceiling(float(cap_text)))
        for y_text in LEVELS + (top,):
            rho, h = entry(cap_text, y_text, 50, 12)
            rho2, h2 = entry(cap_text, y_text, 60, 17)
            for a, b, what in ((rho, rho2, "rho"), (h, h2, "H")):
                if abs(a - b) > mp.mpf("1e-28") * abs(b):
                    raise SystemExit(f"{what} at C={cap_text}, y={y_text}: {a} vs {b}")
            rows.append({"cap": cap_text, "y": y_text, "rho": mp.nstr(rho, 30), "H": mp.nstr(h, 30)})
            print(f"C={cap_text:>5} y={y_text:<20} rho={mp.nstr(rho, 12):<22} H={mp.nstr(h, 12)}", flush=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"digits": 30, "rows": rows}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
