import functools
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sliceforge.cli
from sliceforge import (
    CapacityAllocation,
    inner_objective,
    load_model,
    maximize_surrogate,
    serialize_model,
    solve_fixed_point,
    surrogate,
)
from sliceforge.cli import _resolve_alloc, run
from sliceforge.fixedpoint import _solve
from sliceforge.loss import get_family
from sliceforge.outer import SolveTrace

from conftest import flat_pair, single_entity, symmetric_pair

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "demos" / "models"
REFERENCE = MODELS / "reference_2x3.json"
SYMMETRIC = MODELS / "symmetric_pair.json"
POTENTIALS = MODELS / "three_potentials.json"


def invoke(capsys, *argv):
    code = run([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out):
    return json.loads(out)


def test_validate_ok(capsys):
    code, out, _ = invoke(capsys, "validate", REFERENCE)
    assert code == 0
    rep = report_of(out)
    assert rep["report_version"] == 2
    assert rep["tool"]["name"] == "sliceforge"
    assert rep["command"] == "validate"
    assert rep["ok"] is True
    assert rep["model"] == {
        "physicals": 2,
        "logicals": 2,
        "flows": 3,
        "capacity_types": ["unit"],
        "total_physical_capacity": 14.0,
    }
    assert len(rep["inputs"]["model_sha256"]) == 64


def test_validate_mixed_ctype_names_logical(tmp_path, capsys):
    doc = {
        "physical": [
            {"id": "p1", "ctype": "fiber", "capacity": 4.0},
            {"id": "p2", "ctype": "radio", "capacity": 4.0},
        ],
        "logical": [
            {"id": "span", "members": ["p1", "p2"], "loss": {"kind": "erlang_b"}}
        ],
        "flows": [{"id": "f", "offered": 1.0, "demands": {"span": 1}}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "validate", path)
    assert code == 1
    assert "span" in err
    rep = report_of(out)
    assert rep["ok"] is False
    assert "span" in rep["error"]


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = invoke(capsys, "validate", path)
    assert code == 1
    assert report_of(out)["ok"] is False


def test_missing_file_is_io_error(tmp_path, capsys):
    code, _, err = invoke(capsys, "validate", tmp_path / "absent.json")
    assert code == 3
    assert "i/o error" in err
    code, _, _ = invoke(
        capsys, "evaluate", REFERENCE, "--alloc", tmp_path / "absent_alloc.json"
    )
    assert code == 3


def test_unwritable_out_is_io_error(tmp_path, capsys):
    code, _, err = invoke(
        capsys, "validate", REFERENCE, "--out", tmp_path / "missing_dir" / "r.json"
    )
    assert code == 3
    assert "i/o error" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("simulate", REFERENCE, "--alloc", "proportional", "--seed", "7", "--horizon", "0"),
            "error: simulate: horizon must be finite and > 0\n",
        ),
        (("solve-reconfig", POTENTIALS, "--budget", "0"), "error: outer: budget must lie in (0, 3]\n"),
    ],
    ids=["simulate", "solve-reconfig"],
)
def test_invalid_settings_name_the_layer(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == message


@pytest.mark.parametrize("argv", [("evaluate", "--alloc", "proportional"), ("solve",)], ids=["evaluate", "solve"])
def test_an_inversion_error_is_reported_without_a_traceback(tmp_path, capsys, argv):
    # From C ~ 1e10 the Erlang box end is 1e-3; at C = 1e12 the inversion
    # there passes the 1e12 bracket cap.  The message names the entity.
    model_path = tmp_path / "m.json"
    model_path.write_text(serialize_model(single_entity(2e12, phys_cap=1e12)))
    code, out, err = invoke(capsys, argv[0], model_path, *argv[1:])
    assert code == 1
    assert out == ""
    assert err == "error: loss: erlang_b offered load above 1e+12 at this log-loss level (entity 'l')\n"


def test_evaluate_closed_form_totals(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    model_path.write_text(serialize_model(single_entity(2.0, kind="linear_clip")))
    alloc_path = tmp_path / "a.json"
    alloc_path.write_text("[1.0]")
    code, out, _ = invoke(
        capsys, "evaluate", model_path, "--alloc", alloc_path, "--phi"
    )
    assert code == 0
    rep = report_of(out)
    totals = rep["totals"]
    assert totals["carried_total"] == pytest.approx(1.0, rel=1e-8)
    assert totals["modified_objective"] == pytest.approx(1.0 + math.log(2.0), rel=1e-6)
    assert rep["fixed_point"]["entities"][0]["blocking"] == pytest.approx(0.5, abs=1e-8)
    # the surrogate at the same allocation agrees with the modified objective
    sur = rep["surrogate"]
    assert sur["converged"] is True
    assert sur["value"] == pytest.approx(1.0 + math.log(2.0), rel=1e-6)
    assert sur["implied_blocking_gap"] <= 1e-6
    # id->value allocation form resolves to the same report sections
    alloc_path.write_text('{"l": 1.0}')
    code, out, _ = invoke(capsys, "evaluate", model_path, "--alloc", alloc_path)
    assert code == 0
    rep2 = report_of(out)
    assert rep2["totals"]["modified_objective"] == pytest.approx(
        totals["modified_objective"], rel=1e-12
    )
    assert "alloc_sha256" in rep2["inputs"]


@pytest.mark.parametrize("kind", ["erlang_b", "exp_overflow", "linear_clip"])
def test_evaluate_phi_with_a_starved_entity(tmp_path, capsys, kind):
    # C_a = 0 under load: the fixed point gives B_a = 1, so the surrogate's
    # start -log1p(-B_a) is inf, clipped to the box end.
    model_path = tmp_path / "m.json"
    model_path.write_text(serialize_model(symmetric_pair(kind=kind)))
    alloc_path = tmp_path / "a.json"
    alloc_path.write_text("[0.0, 6.0]")
    code, out, _ = invoke(capsys, "evaluate", model_path, "--alloc", alloc_path, "--phi")
    assert code == 0
    rep = report_of(out)
    assert rep["fixed_point"]["entities"][0]["blocking"] == 1.0
    sur = rep["surrogate"]
    assert sur["converged"] is True
    assert all(math.isfinite(y) for y in sur["log_loss"])
    assert sur["implied_blocking"][0] == pytest.approx(1.0, abs=1e-15)
    assert sur["value"] == pytest.approx(rep["totals"]["modified_objective"], rel=1e-12)


@pytest.mark.parametrize("kind", ["erlang_b", "exp_overflow", "linear_clip"])
def test_evaluate_phi_at_a_tiny_positive_capacity(tmp_path, capsys, kind):
    # At C = 1e-17 under a load of 5, B rounds to 1 at a positive capacity:
    # the correction takes H at the box end, as phi does, so the totals
    # stay finite and the report is written.
    model_path = tmp_path / "m.json"
    model_path.write_text(serialize_model(single_entity(5.0, kind=kind)))
    alloc_path = tmp_path / "a.json"
    alloc_path.write_text("[1e-17]")
    code, out, err = invoke(capsys, "evaluate", model_path, "--phi", "--alloc", alloc_path)
    assert code == 0, err
    rep = report_of(out)
    assert rep["fixed_point"]["entities"][0]["blocking"] == 1.0
    assert all(math.isfinite(v) for v in rep["totals"].values())
    phi = rep["surrogate"]["value"]
    assert abs(phi - rep["totals"]["modified_objective"]) <= 1e-9 * (1.0 + abs(phi))


def _count_inversions(monkeypatch):
    """The number of elements of each call to a shipped family's `offered_at`."""
    elements = []
    for kind in ("erlang_b", "exp_overflow", "linear_clip"):
        family = get_family(kind)

        def counting(y, cap, real=family.offered_at):
            elements.append(y.size)
            return real(y, cap)

        monkeypatch.setattr(family, "offered_at", counting)
    return elements


def test_phi_inverts_only_clipped_entities(tmp_path, capsys, monkeypatch, ladder_model):
    # surrogate and evaluate --phi take H_j from the fixed point's measures
    # and U_j = rho*_j e^(-y_j) wherever y_j is its level; on closed_m50_x3
    # every y_j is, so no family's offered_at runs at all.
    model = ladder_model("closed_m50_x3")
    alloc = _resolve_alloc("proportional", model)[0]
    level = -np.log1p(-solve_fixed_point(model, alloc).blocking)
    elements = _count_inversions(monkeypatch)
    sol = surrogate(model, alloc)
    assert sol.converged and sol.log_loss.tolist() == level.tolist()
    model_path = tmp_path / "m.json"
    model_path.write_text(serialize_model(model))
    code, _, _ = invoke(capsys, "evaluate", model_path, "--alloc", "proportional", "--phi")
    assert code == 0
    assert elements == []


@pytest.mark.parametrize("capacity, inverted", [(1e9, [1]), (0.0, [])])
def test_phi_inverts_a_clipped_entity_once(tmp_path, capsys, monkeypatch, capacity, inverted):
    # Under 1e11 offered load an Erlang entity of capacity 1e9 lies past its
    # box end, so H_j and rho_j are taken there: one inversion of its one
    # element serves both phi's U_j and the correction's H_j.  At zero
    # capacity under load rho_j is 0 and nothing is inverted.
    model, alloc = single_entity(1e11, phys_cap=1e9), CapacityAllocation([capacity])
    elements = _count_inversions(monkeypatch)
    assert surrogate(model, alloc).converged
    assert elements == inverted
    model_path, alloc_path = tmp_path / "m.json", tmp_path / "a.json"
    model_path.write_text(serialize_model(model))
    alloc_path.write_text(json.dumps([capacity]))
    elements.clear()
    code, out, _ = invoke(capsys, "evaluate", model_path, "--alloc", alloc_path, "--phi")
    assert code == 0 and report_of(out)["surrogate"]["converged"] is True
    assert elements == inverted


def test_unconverged_fixed_point_reports_phi_at_its_own_state(tmp_path, capsys, monkeypatch):
    # One fixed-point solve per report: an unconverged one is not solved
    # again from the same start, and phi is the inner objective at its y.
    solves = []

    def counting_solve(*args, **kwargs):
        solves.append(args[2])
        return _solve(*args, **kwargs)

    monkeypatch.setattr(sliceforge.cli, "solve_fixed_point", functools.partial(solve_fixed_point, max_iters=1))
    monkeypatch.setattr(sliceforge.fixedpoint, "_solve", counting_solve)
    monkeypatch.setattr(sliceforge.inner, "_solve", counting_solve)
    out_path = tmp_path / "report.json"
    code, _, _ = invoke(capsys, "evaluate", REFERENCE, "--alloc", "proportional", "--phi", "--out", out_path)
    assert code == 2
    assert solves == [1]
    rep = json.loads(out_path.read_text())
    assert rep["fixed_point"]["converged"] is False
    assert rep["totals"] is None
    phi = rep["surrogate"]
    assert phi["converged"] is False
    assert phi["iterations"] == 0
    assert phi["implied_blocking_gap"] == 0.0
    y = [-math.log1p(-entity["blocking"]) for entity in rep["fixed_point"]["entities"]]
    assert phi["log_loss"] == y
    model = load_model(REFERENCE.read_text())
    alloc = _resolve_alloc("proportional", model)[0]
    assert phi["value"] == pytest.approx(inner_objective(model, alloc, np.array(y)), rel=1e-12)
    # above the minimum, which the converged fixed point gives
    assert phi["value"] > surrogate(model, alloc).value


@pytest.mark.parametrize(
    "argv",
    [
        ("evaluate", REFERENCE, "--alloc", "proportional", "--phi"),
        ("evaluate", SYMMETRIC, "--alloc", "proportional", "--phi"),
        ("evaluate", POTENTIALS, "--alloc", "proportional", "--phi"),
        ("solve", REFERENCE),
    ],
    ids=["evaluate-reference_2x3", "evaluate-symmetric_pair", "evaluate-three_potentials", "solve-reference_2x3"],
)
def test_report_surrogate_starts_converged_at_the_fixed_point(capsys, argv):
    # The report's surrogate is read off the report's own converged fixed
    # point: it spends no evaluation of G.
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    sur = report_of(out)["surrogate"]
    assert sur["converged"] is True
    assert sur["iterations"] == 0


@pytest.mark.parametrize("name", ["reference_2x3", "erlang_m20"])
def test_evaluate_phi_solves_once_and_inverts_nothing(tmp_path, capsys, monkeypatch, ladder_model, name):
    # One fixed point, one H and no Erlang inversion serve both the totals
    # and the surrogate section of `evaluate --phi`.
    import sliceforge.fixedpoint as fixedpoint
    import sliceforge.inner as inner

    loss_module = sys.modules["sliceforge.loss"]  # the package's `loss` attribute is the function

    path = REFERENCE
    if name != "reference_2x3":
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_model(ladder_model(name)))
    calls = {"solve": 0, "measures": 0, "invert": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (fixedpoint, inner):
        monkeypatch.setattr(module, "_solve", counting("solve", fixedpoint._solve))
        monkeypatch.setattr(module, "_utilization_measures", counting("measures", fixedpoint._utilization_measures))
    monkeypatch.setattr(loss_module, "_erlang_invert", counting("invert", loss_module._erlang_invert))
    code, out, _ = invoke(capsys, "evaluate", path, "--alloc", "proportional", "--phi")
    assert code == 0
    assert report_of(out)["surrogate"]["converged"] is True
    assert calls == {"solve": 1, "measures": 1, "invert": 0}


def _csv_oracle(fields, rows):
    # the CSV table rebuilt from the JSON report's rows without
    # report.render_csv: comma-separated values, floats as %.17g
    lines = [",".join(fields)]
    for row in rows:
        lines.append(",".join(format(row[k], ".17g") if isinstance(row[k], float) else str(row[k]) for k in fields))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "argv, fields, rows",
    [
        (("solve", REFERENCE), ("id", "capacity", "offered_load", "blocking"), ("fixed_point", "entities")),
        (
            ("solve-reconfig", POTENTIALS, "--budget", "2"),
            ("id", "capacity", "offered_load", "blocking"),
            ("fixed_point", "entities"),
        ),
        (
            ("simulate", REFERENCE, "--alloc", "proportional", "--seed", "7", "--horizon", "1e4"),
            sliceforge.cli._SIM_FLOW_FIELDS,
            ("flows",),
        ),
    ],
    ids=["solve", "solve-reconfig", "simulate"],
)
def test_csv_on_request_writes_the_same_table(tmp_path, capsys, argv, fields, rows):
    out_path, csv_path = tmp_path / "report.json", tmp_path / "table.csv"
    code, _, _ = invoke(capsys, *argv, "--out", out_path, "--csv", csv_path)
    assert code == 0
    table = json.loads(out_path.read_text())
    for key in rows:
        table = table[key]
    assert csv_path.read_bytes() == _csv_oracle(fields, table).encode()


def test_evaluate_proportional_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "entities.csv"
    code, out, _ = invoke(
        capsys, "evaluate", REFERENCE, "--alloc", "proportional", "--csv", csv_path
    )
    assert code == 0
    rep = report_of(out)
    # no-blocking loads (6, 5) scaled until physical b is tight: 6/5 each
    caps = {row["id"]: row["capacity"] for row in rep["allocation"]}
    assert caps["a"] == pytest.approx(7.2, abs=1e-9)
    assert caps["b"] == pytest.approx(6.0, abs=1e-9)
    assert rep["feasibility"]["ok"] is True
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "id,capacity,offered_load,blocking"
    assert len(lines) == 3
    assert lines[1].startswith("a,")


def test_evaluate_alloc_document_errors(tmp_path, capsys):
    alloc = tmp_path / "a.json"
    cases = [
        "[1.0, 2.0, 3.0]",  # wrong length for a 2-logical model
        '{"a": 1.0, "ghost": 2.0}',  # unknown logical id
        '{"a": 1.0}',  # missing logical id
        '["a", 2.0]',  # non-numeric entry
        '"proportional-ish"',  # neither array nor object
    ]
    for text in cases:
        alloc.write_text(text)
        code, _, err = invoke(capsys, "evaluate", REFERENCE, "--alloc", alloc)
        assert code == 1, text
        assert "error" in err


def test_reports_deterministic_modulo_timestamp(tmp_path, capsys):
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for path in paths:
        code, _, _ = invoke(
            capsys, "evaluate", REFERENCE, "--alloc", "proportional", "--out", path
        )
        assert code == 0
    texts = [p.read_text() for p in paths]
    strip = lambda t: [ln for ln in t.splitlines() if '"generated_at"' not in ln]
    assert strip(texts[0]) == strip(texts[1])
    assert texts[0].endswith("\n")


def test_threads_env_is_echoed(capsys, monkeypatch):
    # nothing is threaded, so reports carry no threads field (report version 2)
    monkeypatch.setenv("SLICEFORGE_THREADS", "4")
    _, out, _ = invoke(capsys, "validate", REFERENCE)
    assert "threads" not in report_of(out)


def test_solve_symmetric_instance(capsys):
    code, out, _ = invoke(capsys, "solve", SYMMETRIC)
    assert code == 0
    rep = report_of(out)
    caps = {row["id"]: row["capacity"] for row in rep["allocation"]}
    assert caps["a"] == pytest.approx(5.0, rel=0.02)
    assert caps["b"] == pytest.approx(5.0, rel=0.02)
    solver = rep["solver"]
    assert solver["status"] == "converged"
    assert solver["certificate"] <= 1e-5 * (1.0 + abs(rep["surrogate"]["value"]))
    assert rep["feasibility"]["ok"] is True
    assert solver["iterations"] == len(solver["values"]) == len(solver["gaps"]) == len(solver["probes"])
    assert solver["unconverged_inner"] == 0


def test_solve_unconverged_exit_code(tmp_path, capsys, monkeypatch):
    model_path = tmp_path / "m.json"
    model_path.write_text(serialize_model(symmetric_pair()))
    alloc = np.array([4.0, 4.0])
    trace = SolveTrace(
        values=(1.0,),
        gaps=(0.5,),
        steps=(0.0,),
        probes=(0,),
        final_alloc=alloc,
        final_value=1.0,
        status="max_iters",
        certificate=0.5,
    )

    def stub(model, options=None):
        from sliceforge import CapacityAllocation

        return CapacityAllocation(alloc), trace

    monkeypatch.setattr("sliceforge.cli.maximize_surrogate", stub)
    out_path = tmp_path / "report.json"
    code, _, _ = invoke(capsys, "solve", model_path, "--out", out_path)
    assert code == 2
    # the report is still written on non-convergence
    rep = json.loads(out_path.read_text())
    assert rep["solver"]["status"] == "max_iters"
    assert rep["solver"]["certificate"] == 0.5


def test_flat_direction_exits_without_traceback(tmp_path, capsys, monkeypatch):
    # Both commands once ended in a ZeroDivisionError inside the inner solver.
    model_path = tmp_path / "flat.json"
    model_path.write_text(serialize_model(flat_pair(0.75)))
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text("[0.25, 0.75]")
    code, out, _ = invoke(capsys, "evaluate", model_path, "--alloc", alloc_path, "--phi")
    assert code == 0
    assert report_of(out)["surrogate"]["value"] == pytest.approx(0.25 * (1.0 + math.log(3.0)), rel=1e-12)
    # Frank-Wolfe zigzags across phi's kink at C_a = C_b for all MAX_ITERS
    # iterations (30 s), so the solve is cut short here.
    monkeypatch.setattr(sliceforge.cli, "maximize_surrogate", functools.partial(maximize_surrogate, max_iters=20))
    code, out, _ = invoke(capsys, "solve", model_path)
    assert code in (0, 2)
    assert report_of(out)["solver"]["unconverged_inner"] == 0


def test_solve_reconfig_budget_one(capsys):
    code, out, _ = invoke(capsys, "solve-reconfig", POTENTIALS, "--budget", 1)
    assert code == 0
    rep = report_of(out)
    rc = rep["reconfig"]
    assert rc["budget"] == 1.0
    active = {row["id"]: row["active"] for row in rc["active"]}
    assert active == {"p0": 1, "p1": 0, "p2": 0}
    assert rc["value_rounded"] <= rc["value_fractional"] + 1e-9
    assert rc["rounding_loss"] == pytest.approx(
        rc["value_fractional"] - rc["value_rounded"], abs=1e-12
    )
    assert rc["joint"]["unconverged_inner"] == rc["final"]["unconverged_inner"] == 0
    assert rep["feasibility"]["ok"] is True


def test_simulate_report_and_determinism(tmp_path, capsys):
    args = (
        "simulate", REFERENCE,
        "--alloc", "proportional",
        "--seed", 17,
        "--horizon", 2000,
        "--warmup", 100,
    )
    code, out1, _ = invoke(capsys, *args)
    assert code == 0
    rep = report_of(out1)
    # proportional gives (7.2, 6.0); simulate floors to integer capacities
    caps = {row["id"]: row["capacity"] for row in rep["allocation"]}
    assert caps == {"a": 7.0, "b": 6.0}
    assert "philox" in rep["rng"]
    assert rep["events"] > 0
    totals = rep["totals"]
    assert totals["arrivals"] == totals["admitted"] + totals["blocked"]
    for row in rep["flows"]:
        assert row["arrivals"] == row["admitted"] + row["blocked"]
        assert 0.0 <= row["blocking_estimate"] <= 1.0
    # bit-for-bit reproducible up to the timestamp; a new seed is not
    _, out2, _ = invoke(capsys, *args)
    strip = lambda t: [ln for ln in t.splitlines() if '"generated_at"' not in ln]
    assert strip(out1) == strip(out2)
    _, out3, _ = invoke(capsys, *args[:-3], 99, *args[-2:])
    assert strip(out1) != strip(out3)
    csv_path = tmp_path / "flows.csv"
    code, _, _ = invoke(capsys, *args, "--csv", csv_path)
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("id,offered,arrivals")
    assert len(lines) == 4


def test_simulate_rejects_non_erlang_model(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    model_path.write_text(serialize_model(single_entity(2.0, kind="linear_clip")))
    code, _, err = invoke(
        capsys, "simulate", model_path,
        "--alloc", "proportional", "--seed", 1, "--horizon", 100,
    )
    assert code == 1
    assert "erlang_b" in err


def test_version_flag(capsys):
    code, out, _ = invoke(capsys, "--version")
    assert code == 0
    assert "sliceforge" in out


def test_cli_import_loads_no_dense_or_sparse_linear_algebra():
    # scipy.linalg alone adds about 7 MB at import, and the solver's linear
    # algebra is numpy mat-vecs; nothing on the CLI path may pull these in.
    heavy = ("scipy.linalg", "scipy.sparse", "scipy.sparse.linalg")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, sliceforge.cli; print([m for m in {heavy!r} if m in sys.modules])"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _python(cwd, *args):
    """A fresh interpreter with only this checkout's src/ added to the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120, env=env, cwd=cwd)


def test_parser_is_built_once_per_process():
    # run shares one parser; build_parser hands each caller its own
    assert sliceforge.cli._parser() is sliceforge.cli._parser()
    assert sliceforge.cli.build_parser() is not sliceforge.cli.build_parser()


def test_importing_the_cli_builds_no_parser(tmp_path):
    # the parser is built by the first run, so an import costs no more
    script = (
        "import sliceforge.cli as cli\n"
        "before = cli._parser.cache_info()\n"
        "cli.run(['--version']); cli.run(['--version'])\n"
        "after = cli._parser.cache_info()\n"
        "print(before.currsize, after.currsize, after.misses)\n"
    )
    proc = _python(tmp_path, "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 1 1"


def test_one_process_runs_as_separate_processes_do(tmp_path):
    # Commands run in turn through one reused parser, a usage error (exit 2)
    # among them, write what one process per command writes: reports up to
    # generated_at, CSV tables, exit codes and stderr.
    def commands(out):
        return [
            ["validate", str(REFERENCE), "--out", f"{out}/validate.json"],
            ["evaluate", str(REFERENCE), "--alloc", "proportional", "--out", f"{out}/e1.json", "--csv", f"{out}/e1.csv"],
            ["solve", str(SYMMETRIC), "--out", f"{out}/solve.json", "--csv", f"{out}/solve.csv"],
            ["evaluate", str(REFERENCE), "--out", f"{out}/missing.json"],
            ["evaluate", str(POTENTIALS), "--alloc", "proportional", "--phi", "--out", f"{out}/e2.json"],
        ]

    script = (
        "import contextlib, io, json, sys\n"
        "from sliceforge import cli\n"
        "results = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stderr(err):\n"
        "        code = cli.run(argv)\n"
        "    results.append([code, err.getvalue()])\n"
        "print(json.dumps(results))\n"
    )
    one, separate = tmp_path / "one", tmp_path / "separate"
    one.mkdir()
    separate.mkdir()
    proc = _python(tmp_path, "-c", script, json.dumps(commands(one)))
    assert proc.returncode == 0, proc.stderr
    together = json.loads(proc.stdout)
    apart = [[p.returncode, p.stderr] for p in (_python(tmp_path, "-m", "sliceforge", *argv) for argv in commands(separate))]
    assert together == apart
    assert [code for code, _ in together] == [0, 0, 0, 2, 0]

    def written(directory):
        strip = lambda text: [ln for ln in text.splitlines() if '"generated_at"' not in ln]
        return {p.name: strip(p.read_text()) for p in sorted(directory.iterdir())}

    assert sorted(written(one)) == ["e1.csv", "e1.json", "e2.json", "solve.csv", "solve.json", "validate.json"]
    assert written(one) == written(separate)


def test_console_script_installed(tmp_path):
    # Build the launcher an installer would generate from the checkout's own
    # [project.scripts] entry, so the command under test is this checkout's
    # declaration rather than whatever `sliceforge` happens to be on PATH.
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    module, _, function = pyproject["project"]["scripts"]["sliceforge"].partition(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "sliceforge"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {function}\n"
        f"sys.exit({function}())\n"
    )
    launcher.chmod(0o755)
    env = dict(os.environ)
    for var, first in (("PATH", bin_dir), ("PYTHONPATH", ROOT / "src")):
        env[var] = os.pathsep.join(filter(None, [str(first), env.get(var)]))
    proc = subprocess.run(
        ["sliceforge", "--version"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    # The version is declared once, as the attribute pyproject.toml names.
    assert "version" not in pyproject["project"]
    owner, _, attr = pyproject["tool"]["setuptools"]["dynamic"]["version"]["attr"].rpartition(".")
    assert proc.stdout.strip() == f"sliceforge {getattr(importlib.import_module(owner), attr)}"


def test_module_entry_point_runs_without_install(tmp_path):
    # `python -m sliceforge` with only src/ on the path, as the README shows
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sliceforge", "--help"], capture_output=True, text=True, timeout=60, env=env, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: sliceforge")


def test_perfbench_tracer_patches_names_that_exist(tmp_path):
    # perfbench/tracer.py wraps library functions by the module-level names
    # their callers look them up under; a rename under src/ would otherwise
    # surface only as an AttributeError in a traced benchmark run.
    script = (
        "import json, sys\n"
        "import tracer\n"
        "from sliceforge import cli\n"
        "t = tracer.Tracer()\n"
        "tracer.install(t)\n"
        "code = cli.run(sys.argv[1:])\n"
        "print(json.dumps({'code': code, 'spans': sorted({e[1] for e in t.snapshot()['edges']})}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")]))
    argv = ["solve", str(REFERENCE), "--out", str(tmp_path / "rep.json")]
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["code"] == 0
    assert {"inner.surrogate", "loss.kernel"} <= set(result["spans"])
