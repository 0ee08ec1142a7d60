"""sliceforge command line: validate, evaluate, solve, solve-reconfig, simulate.

Reports are JSON on stdout (or --out) with a fixed field order and %.17g
floats, so identical inputs produce byte-identical reports up to the
generated_at stamp.  Exit codes: 0 success, 1 invalid input, 2 a solver
failed to converge (the report is still written), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .fixedpoint import _utilization_measures, diagnostics, solve_fixed_point
from .inner import _surrogate_at
from .inner import surrogate  # noqa: F401  (perfbench/tracer.py wraps it under this module)
from .loss import InversionError
from .model import (
    CapacityAllocation,
    ModelError,
    NetworkModel,
    check_feasible,
    incidence,
    load_model,
    no_blocking_loads,
)
from .outer import ReconfigProblem, SolveTrace, maximize_surrogate, solve_reconfig
from .report import render_csv, render_json, sha256_bytes
from .sim import SimConfig, simulate

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNCONVERGED = 2
EXIT_IO = 3

REPORT_VERSION = 2

# Columns of the CSV tables, each also the keys, in order, of the report
# rows the table is built from.
_ENTITY_FIELDS = ("id", "capacity", "offered_load", "blocking")
_SIM_FLOW_FIELDS = (
    "id",
    "offered",
    "arrivals",
    "admitted",
    "blocked",
    "blocking_estimate",
    "blocking_se",
    "carried_estimate",
    "carried_se",
)


def _read_bytes(path: str) -> tuple[str, str]:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelError(f"{path} is not UTF-8: {exc}") from exc
    return text, sha256_bytes(data)


def _base_report(command: str, inputs: dict, options: dict) -> dict:
    return {
        "report_version": REPORT_VERSION,
        "tool": {"name": "sliceforge", "version": __version__},
        "command": command,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "inputs": inputs,
        "options": options,
    }


def _resolve_alloc(spec: str, model: NetworkModel, integer: bool = False):
    """--alloc is either a JSON file (array or id->value object) or the
    literal 'proportional': no-blocking loads scaled until some shared
    capacity is tight."""
    inputs: dict = {}
    if spec == "proportional":
        base = no_blocking_loads(model)
        if not np.any(base > 0.0):
            base = np.ones(model.m)
        usage = incidence(model).T @ base
        caps = model.physical_capacities()
        busy = usage > 0.0
        scale = float(np.min(caps[busy] / usage[busy])) if np.any(busy) else 1.0
        values = base * scale
    else:
        text, digest = _read_bytes(spec)
        inputs["alloc_sha256"] = digest
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelError(f"malformed allocation document: {exc}") from exc
        if isinstance(doc, dict):
            ids = {lg.id for lg in model.logicals}
            for key in doc:
                if key not in ids:
                    raise ModelError(f"allocation names unknown logical '{key}'")
            missing = [lg.id for lg in model.logicals if lg.id not in doc]
            if missing:
                raise ModelError(f"allocation missing logical '{missing[0]}'")
            entries = [doc[lg.id] for lg in model.logicals]
        elif isinstance(doc, list):
            if len(doc) != model.m:
                raise ModelError(f"allocation length {len(doc)} != m={model.m}")
            entries = doc
        else:
            raise ModelError("allocation must be a JSON array or id->value object")
        for x in entries:
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise ModelError("allocation values must be numbers")
        values = np.array(entries, dtype=float)
    if integer:
        values = np.floor(values + 1e-12)
    return CapacityAllocation(values), inputs


def _trace_section(trace: SolveTrace) -> dict:
    return {
        "status": trace.status,
        "iterations": trace.iterations,
        "certificate": trace.certificate,
        "values": list(trace.values),
        "gaps": list(trace.gaps),
        "steps": list(trace.steps),
        "probes": list(trace.probes),
        "unconverged_inner": trace.unconverged_inner,
    }


def _allocation_section(model: NetworkModel, alloc: CapacityAllocation) -> list:
    return [{"id": lg.id, "capacity": c} for lg, c in zip(model.logicals, alloc.values.tolist())]


def _evaluation_sections(model: NetworkModel, alloc: CapacityAllocation, want_phi: bool):
    """Fixed point + diagnostics (+ surrogate cross-check) at an allocation."""
    state = solve_fixed_point(model, alloc)
    feas = check_feasible(model, alloc)
    sections: dict = {
        "feasibility": {
            "ok": feas.ok,
            "tol": feas.tol,
            "slack": feas.slack.tolist(),
        },
        "fixed_point": {
            "converged": state.converged,
            "iterations": state.iterations,
            "residual": float(state.residual),
            "entities": [
                dict(zip(_ENTITY_FIELDS, row))
                for row in zip(
                    [lg.id for lg in model.logicals],
                    alloc.values.tolist(),
                    state.offered.tolist(),
                    state.blocking.tolist(),
                )
            ],
        },
        "flows": [
            {"id": fl.id, "offered": float(fl.offered), "carried": carried}
            for fl, carried in zip(model.flows, state.carried_per_flow.tolist())
        ],
    }
    code = EXIT_OK if state.converged else EXIT_UNCONVERGED
    sections["totals"] = None
    if state.converged:
        diag = diagnostics(model, alloc, state)
        sections["totals"] = {
            "carried_total": diag.carried_total,
            "weighted_carried": diag.weighted_carried,
            "modified_objective": diag.modified_objective,
            "max_route_length": diag.max_route_length,
            "correction": diag.correction,
            "correction_bound": diag.correction_bound,
        }
    if want_phi:
        # The fixed point minimizes the inner problem (U_j = rho_j S_j equals
        # the flow term there), so phi is read off it and its per-entity
        # point, the diagnostics' where it converged.  Unconverged, phi is
        # the objective at its y, above the minimum.
        point = diag.point if state.converged else _utilization_measures(model, alloc.values, state)
        sol = _surrogate_at(model, alloc, state, point)
        log_loss = sol.log_loss.tolist()
        implied = [-math.expm1(-y) for y in log_loss]
        gap = max((abs(b - i) for b, i in zip(state.blocking.tolist(), implied)), default=0.0) if state.converged else 0.0
        sections["surrogate"] = {
            "value": sol.value,
            "converged": sol.converged,
            "iterations": sol.iterations,
            "grad_norm": sol.grad_norm,
            "log_loss": log_loss,
            "implied_blocking": implied,
            "implied_blocking_gap": gap,
        }
    return sections, code


def _emit(report: dict, out_path: str | None, csv_path: str | None = None, fields=(), rows=()) -> None:
    """The JSON report, and only with a CSV path the table of `rows` by `fields`."""
    text = render_json(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(render_csv(list(fields), [[row[name] for name in fields] for row in rows]))


def _load(args) -> tuple[NetworkModel, dict]:
    text, digest = _read_bytes(args.model)
    model = load_model(text, lenient=args.lenient)
    return model, {"model": args.model, "model_sha256": digest}


def _cmd_validate(args) -> int:
    text, digest = _read_bytes(args.model)
    inputs = {"model": args.model, "model_sha256": digest}
    report = _base_report("validate", inputs, {"lenient": args.lenient})
    try:
        model = load_model(text, lenient=args.lenient)
    except ModelError as exc:
        report["ok"] = False
        report["error"] = str(exc)
        _emit(report, args.out)
        print(f"invalid {exc}", file=sys.stderr)  # "invalid model: ..."
        return EXIT_INVALID
    report["ok"] = True
    report["model"] = {
        "physicals": model.n,
        "logicals": model.m,
        "flows": model.num_flows,
        "capacity_types": sorted({p.ctype for p in model.physicals}),
        "total_physical_capacity": float(model.physical_capacities().sum()),
    }
    _emit(report, args.out)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    model, inputs = _load(args)
    alloc, alloc_inputs = _resolve_alloc(args.alloc, model)
    inputs.update(alloc_inputs)
    options = {"alloc": args.alloc, "phi": bool(args.phi), "lenient": args.lenient}
    report = _base_report("evaluate", inputs, options)
    report["allocation"] = _allocation_section(model, alloc)
    sections, code = _evaluation_sections(model, alloc, want_phi=args.phi)
    report.update(sections)
    _emit(report, args.out, args.csv, _ENTITY_FIELDS, sections["fixed_point"]["entities"])
    return code


def _cmd_solve(args) -> int:
    model, inputs = _load(args)
    options = {"lenient": args.lenient}
    report = _base_report("solve", inputs, options)
    alloc, trace = maximize_surrogate(model)
    report["solver"] = _trace_section(trace)
    report["allocation"] = _allocation_section(model, alloc)
    sections, code = _evaluation_sections(model, alloc, want_phi=True)
    report.update(sections)
    if not trace.converged:
        code = max(code, EXIT_UNCONVERGED)
    _emit(report, args.out, args.csv, _ENTITY_FIELDS, sections["fixed_point"]["entities"])
    return code


def _cmd_solve_reconfig(args) -> int:
    model, inputs = _load(args)
    options = {"budget": float(args.budget), "lenient": args.lenient}
    report = _base_report("solve-reconfig", inputs, options)
    problem = ReconfigProblem(model=model, budget=float(args.budget))
    result = solve_reconfig(problem)
    report["reconfig"] = {
        "budget": float(args.budget),
        "active": [
            {"id": p.id, "active": int(result.active[k])} for k, p in enumerate(model.physicals)
        ],
        "value_fractional": result.value_fractional,
        "value_rounded": result.value_rounded,
        "rounding_loss": result.rounding_loss,
        "joint": _trace_section(result.trace_joint),
        "final": _trace_section(result.trace_final),
    }
    report["allocation"] = _allocation_section(model, result.alloc)
    sections, code = _evaluation_sections(model, result.alloc, want_phi=True)
    report.update(sections)
    if not (result.trace_joint.converged and result.trace_final.converged):
        code = max(code, EXIT_UNCONVERGED)
    _emit(report, args.out, args.csv, _ENTITY_FIELDS, sections["fixed_point"]["entities"])
    return code


def _cmd_simulate(args) -> int:
    model, inputs = _load(args)
    alloc, alloc_inputs = _resolve_alloc(args.alloc, model, integer=True)
    inputs.update(alloc_inputs)
    options = {
        "alloc": args.alloc,
        "seed": args.seed,
        "horizon": float(args.horizon),
        "warmup": float(args.warmup),
        "batches": args.batches,
        "lenient": args.lenient,
    }
    report = _base_report("simulate", inputs, options)
    config = SimConfig(
        seed=args.seed, horizon=float(args.horizon), warmup=float(args.warmup), batches=args.batches
    )
    result = simulate(model, alloc, config)
    report["allocation"] = _allocation_section(model, alloc)
    report["rng"] = result.rng
    report["events"] = result.events
    counts = (result.arrivals, result.admitted, result.blocked)
    estimates = (result.blocking, result.blocking_se, result.carried, result.carried_se)
    columns = ([fl.id for fl in model.flows], [float(fl.offered) for fl in model.flows], *(a.tolist() for a in counts + estimates))
    report["flows"] = [dict(zip(_SIM_FLOW_FIELDS, row)) for row in zip(*columns)]
    report["totals"] = {
        "arrivals": int(result.arrivals.sum()),
        "admitted": int(result.admitted.sum()),
        "blocked": int(result.blocked.sum()),
        "carried_estimate": float(result.carried.sum()),
    }
    _emit(report, args.out, args.csv, _SIM_FLOW_FIELDS, report["flows"])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sliceforge",
        description="Capacity allocation for logical network slices over shared physical resources.",
    )
    parser.add_argument("--version", action="version", version=f"sliceforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_csv=True):
        sp.add_argument("model", help="model JSON document")
        sp.add_argument("--lenient", action="store_true", help="ignore unknown keys in input documents")
        sp.add_argument("--out", metavar="PATH", help="write the JSON report to PATH instead of stdout")
        if with_csv:
            sp.add_argument("--csv", metavar="PATH", help="also write a CSV table to PATH")

    sp = sub.add_parser("validate", help="parse and validate a model document")
    common(sp, with_csv=False)

    sp = sub.add_parser("evaluate", help="fixed point and diagnostics at a given allocation")
    common(sp)
    sp.add_argument("--alloc", required=True, metavar="SPEC", help="allocation JSON file, or 'proportional'")
    sp.add_argument("--phi", action="store_true", help="also evaluate the concave surrogate at the allocation")

    sp = sub.add_parser("solve", help="maximize the surrogate over the capacity polytope")
    common(sp)

    sp = sub.add_parser("solve-reconfig", help="joint substrate activation and allocation under a budget")
    common(sp)
    sp.add_argument("--budget", required=True, type=float, help="number of unit physicals that may be active")

    sp = sub.add_parser("simulate", help="discrete-event admission simulation at an allocation")
    common(sp)
    sp.add_argument("--alloc", required=True, metavar="SPEC", help="allocation JSON file, or 'proportional' (floored)")
    sp.add_argument("--seed", required=True, type=int, help="RNG seed (determines all randomness)")
    sp.add_argument("--horizon", required=True, type=float, help="simulated time")
    sp.add_argument("--warmup", type=float, default=0.0, help="discard events before this time")
    sp.add_argument("--batches", type=int, default=20, help="batch count for standard errors")

    return parser


# The parser `run` uses: built by the first `run` in a process (never at
# import) and shared by every later one, since parsing does not change it.
# `build_parser` still returns a fresh parser that a caller may change.
_parser = functools.cache(build_parser)

_HANDLERS = {
    "validate": _cmd_validate,
    "evaluate": _cmd_evaluate,
    "solve": _cmd_solve,
    "solve-reconfig": _cmd_solve_reconfig,
    "simulate": _cmd_simulate,
}


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, InversionError) as exc:  # ModelError and LossDomainError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
