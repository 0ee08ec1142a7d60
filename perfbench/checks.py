"""Output checks: every operation's report against the reference outputs
recorded at the seed commit (references/<workload>.json).

* solve / solve-reconfig: status "converged", the allocation feasible
  (recomputed here from the model document), phi within
  gap_tol * (1 + |phi|) of the recorded value, and for solve-reconfig
  the same active set.
* evaluate --phi: fixed point and surrogate converged, blocking and phi
  within PHI/BLOCKING tolerances of the recorded values.
* simulate: arrivals, admitted and blocked counts per flow exactly equal
  to the recorded ones (the simulator is bit-identical for a seed).
"""

from __future__ import annotations

import json

# OuterOptions.gap_tol: the Frank-Wolfe certificate bounds phi* - phi.
GAP_TOL = 1e-5
# 100x the fixed point's residual tolerance (FixedPointOptions.tol = 1e-9)
# and the inner solver's gradient tolerance (InnerOptions.tol = 1e-8): a
# stopped iterate is only within tol / (1 - contraction) of the solution,
# and two correct solvers may stop on either side of it.
BLOCKING_TOL = 1e-7
PHI_REL_TOL = 1e-6


def summary(command: str, report: dict) -> dict:
    """The fields of a report that the references keep."""
    alloc = [e["capacity"] for e in report.get("allocation", [])]
    if command == "solve":
        return {"status": report["solver"]["status"], "phi": report["surrogate"]["value"], "alloc": alloc}
    if command == "solve-reconfig":
        rc = report["reconfig"]
        return {
            "status": [rc["joint"]["status"], rc["final"]["status"]],
            "active": [a["active"] for a in rc["active"]],
            "phi": report["surrogate"]["value"],
            "alloc": alloc,
        }
    if command == "evaluate":
        fp = report["fixed_point"]
        return {
            "converged": [fp["converged"], report["surrogate"]["converged"]],
            "blocking": [e["blocking"] for e in fp["entities"]],
            "phi": report["surrogate"]["value"],
        }
    if command == "simulate":
        flows = report["flows"]
        return {
            "arrivals": [f["arrivals"] for f in flows],
            "admitted": [f["admitted"] for f in flows],
            "blocked": [f["blocked"] for f in flows],
            "events": report["events"],
        }
    raise ValueError(f"no summary for command {command!r}")


def _feasible(doc: dict, alloc: list[float], physical_caps: list[float]) -> bool:
    index = {p["id"]: k for k, p in enumerate(doc["physical"])}
    tol = 1e-9 * (1.0 + max(physical_caps))
    usage = [0.0] * len(physical_caps)
    for lg, c in zip(doc["logical"], alloc):
        for pid in lg["members"]:
            usage[index[pid]] += c
    return all(c >= -tol for c in alloc) and all(u <= cap + tol for u, cap in zip(usage, physical_caps))


def _phi_close(phi: float, ref: float, rel: float) -> bool:
    return abs(phi - ref) <= rel * (1.0 + abs(ref))


def check(record: dict, reference: dict | None) -> list[str]:
    """Reasons the operation failed; empty when it passed."""
    if record["raised"]:
        return ["raised: " + record["raised"].strip().splitlines()[-1]]
    if record["exit"] != 0:
        return [f"exit code {record['exit']}"]
    if reference is None:
        return ["no reference output recorded for this operation"]
    try:
        with open(record["out"], encoding="utf-8") as fh:
            report = json.load(fh)
        with open(record["doc"], encoding="utf-8") as fh:
            doc = json.load(fh)
        got = summary(record["command"], report)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable report: {exc!r}"]

    command, bad = record["command"], []
    if command == "solve":
        if got["status"] != "converged":
            bad.append(f"status {got['status']}")
        if not _feasible(doc, got["alloc"], [p["capacity"] for p in doc["physical"]]):
            bad.append("allocation infeasible")
        if not _phi_close(got["phi"], reference["phi"], GAP_TOL):
            bad.append(f"phi {got['phi']!r} vs recorded {reference['phi']!r}")
    elif command == "solve-reconfig":
        if got["status"] != ["converged", "converged"]:
            bad.append(f"status {got['status']}")
        if got["active"] != reference["active"]:
            bad.append(f"active set {got['active']} vs recorded {reference['active']}")
        if not _feasible(doc, got["alloc"], [float(a) for a in got["active"]]):
            bad.append("allocation infeasible on the active set")
        if not _phi_close(got["phi"], reference["phi"], GAP_TOL):
            bad.append(f"phi {got['phi']!r} vs recorded {reference['phi']!r}")
    elif command == "evaluate":
        if got["converged"] != [True, True]:
            bad.append(f"converged flags {got['converged']}")
        if len(got["blocking"]) != len(reference["blocking"]) or any(
            abs(b - r) > BLOCKING_TOL for b, r in zip(got["blocking"], reference["blocking"])
        ):
            bad.append("blocking differs from the recorded values")
        if not _phi_close(got["phi"], reference["phi"], PHI_REL_TOL):
            bad.append(f"phi {got['phi']!r} vs recorded {reference['phi']!r}")
    elif command == "simulate":
        for field in ("arrivals", "admitted", "blocked"):
            if got[field] != reference[field]:
                bad.append(f"{field} counts differ from the recorded ones")
    return bad
