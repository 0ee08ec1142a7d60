import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceforge import (
    CapacityAllocation,
    Flow,
    LogicalEntity,
    LossSpec,
    NetworkModel,
    PhysicalEntity,
    diagnostics,
    inner_gradient,
    inner_objective,
    load_model,
    offered_vector,
    solve_fixed_point,
    surrogate,
)

from sliceforge.cli import _resolve_alloc

from conftest import random_small_instance, single_entity, symmetric_pair

DEMO_MODELS = Path(__file__).resolve().parents[1] / "demos" / "models"


def test_objective_at_zero_is_total_offered(small_instances):
    for model, alloc in small_instances[:10]:
        total = float(offered_vector(model).sum())
        got = inner_objective(model, alloc, np.zeros(model.m))
        assert got == pytest.approx(total, rel=1e-12)


def test_objective_no_flows_linear_clip():
    model = NetworkModel(
        physicals=(PhysicalEntity("p", "u", 10.0),),
        logicals=(
            LogicalEntity("a", ("p",), LossSpec("linear_clip")),
            LogicalEntity("b", ("p",), LossSpec("linear_clip")),
        ),
        flows=(),
    )
    alloc = CapacityAllocation([2.0, 3.0])
    y = np.array([0.7, 1.1])
    assert inner_objective(model, alloc, y) == pytest.approx(2.0 * 0.7 + 3.0 * 1.1, rel=1e-9)
    sol = surrogate(model, alloc)
    assert sol.converged
    assert sol.log_loss == pytest.approx([0.0, 0.0], abs=1e-12)
    assert sol.value == pytest.approx(0.0, abs=1e-12)


def test_linear_clip_single_closed_forms():
    nu, cap = 2.0, 1.0
    model = single_entity(nu, kind="linear_clip")
    alloc = CapacityAllocation([cap])
    for y in (0.0, 0.5, 1.3):
        expect = nu * math.exp(-y) + cap * y
        assert inner_objective(model, alloc, np.array([y])) == pytest.approx(expect, rel=1e-9)
        g = inner_gradient(model, alloc, np.array([y]))
        assert g[0] == pytest.approx(-nu * math.exp(-y) + cap, abs=1e-9)

    sol = surrogate(model, alloc)
    assert sol.converged
    assert sol.log_loss[0] == pytest.approx(math.log(2.0), abs=1e-6)
    assert sol.value == pytest.approx(1.0 + math.log(2.0), rel=1e-8)


def test_linear_clip_boundary_minimum_when_capacity_ample():
    model = single_entity(2.0, kind="linear_clip")
    sol = surrogate(model, CapacityAllocation([3.0]))
    assert sol.converged
    assert sol.log_loss[0] == pytest.approx(0.0, abs=1e-10)
    assert sol.value == pytest.approx(2.0, rel=1e-10)


def test_phi_closed_form_across_capacities():
    nu = 4.0
    model = single_entity(nu, kind="linear_clip")
    for cap in (0.5, 1.0, 2.0, 3.9):
        expect = cap + cap * math.log(nu / cap) if cap < nu else nu
        sol = surrogate(model, CapacityAllocation([cap]))
        assert sol.value == pytest.approx(expect, rel=1e-6)


def test_gradient_at_zero_erlang():
    model = single_entity(3.0, kind="erlang_b")
    g = inner_gradient(model, CapacityAllocation([2.0]), np.zeros(1))
    assert g[0] == pytest.approx(-3.0, abs=1e-9)


def test_gradient_matches_central_differences():
    model = NetworkModel(
        physicals=(PhysicalEntity("p", "u", 20.0),),
        logicals=(
            LogicalEntity("a", ("p",), LossSpec("erlang_b")),
            LogicalEntity("b", ("p",), LossSpec("exp_overflow")),
        ),
        flows=(
            Flow("f1", 2.0, {"a": 1, "b": 1}),
            Flow("f2", 1.5, {"b": 2}),
        ),
    )
    alloc = CapacityAllocation([3.0, 2.0])
    rng = np.random.default_rng(42)
    for _ in range(10):
        y = rng.uniform(0.05, 2.0, size=2)
        g = inner_gradient(model, alloc, y)
        for j in range(2):
            h = 1e-6 * (1.0 + abs(y[j]))
            up, dn = y.copy(), y.copy()
            up[j] += h
            dn[j] -= h
            fd = (inner_objective(model, alloc, up) - inner_objective(model, alloc, dn)) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def test_objective_is_convex_in_y(small_instances):
    rng = np.random.default_rng(3)
    for model, alloc in small_instances[:10]:
        scale = float(offered_vector(model).sum())
        for _ in range(5):
            y1 = rng.uniform(0.0, 2.0, size=model.m)
            y2 = rng.uniform(0.0, 2.0, size=model.m)
            mid = inner_objective(model, alloc, 0.5 * (y1 + y2))
            ends = 0.5 * (
                inner_objective(model, alloc, y1) + inner_objective(model, alloc, y2)
            )
            assert mid <= ends + 1e-9 * scale


def test_phi_nondecreasing_in_capacity():
    model = symmetric_pair(nu=4.0)
    prev = -np.inf
    for c0 in (0.5, 1.5, 3.0, 5.0, 8.0):
        val = surrogate(model, CapacityAllocation([c0, 2.0])).value
        assert val >= prev - 1e-9
        prev = val


def test_phi_equals_modified_objective_linear_clip():
    # dual route: surrogate minimization vs fixed point + measure
    for nu, cap in ((2.0, 1.0), (4.0, 2.5), (3.0, 3.5)):
        model = single_entity(nu, kind="linear_clip")
        alloc = CapacityAllocation([cap])
        sol = surrogate(model, alloc)
        state = solve_fixed_point(model, alloc)
        d = diagnostics(model, alloc, state)
        assert sol.value == pytest.approx(d.modified_objective, rel=1e-6)


def test_phi_equals_modified_objective_on_random_and_demo_models(small_instances):
    # The surrogate minimum and the fixed point's carried load plus
    # correction are two formulations of one value; with one route for H
    # they agree to the solvers' precision, not a quadrature tolerance.
    cases = list(small_instances)
    for path in sorted(DEMO_MODELS.glob("*.json")):
        model = load_model(path.read_text(encoding="utf-8"))
        cases.append((model, _resolve_alloc("proportional", model)[0]))
    checked = 0
    for model, alloc in cases:
        sol = surrogate(model, alloc)
        state = solve_fixed_point(model, alloc)
        assert sol.converged and state.converged
        q = diagnostics(model, alloc, state).modified_objective
        assert abs(sol.value - q) <= 1e-9 * (1.0 + abs(sol.value))
        checked += 1
    assert checked == len(cases)


def test_cold_solve_counts(small_instances, monkeypatch):
    # Newton converges in a handful of iterations, nearly all of them on
    # the full step; a regression in the step or its curvature shows here
    # first.
    import sliceforge.inner as inner

    cases = list(small_instances)
    for path in sorted(DEMO_MODELS.glob("*.json")):
        model = load_model(path.read_text(encoding="utf-8"))
        cases.append((model, _resolve_alloc("proportional", model)[0]))
    evaluations = [0]
    real_objective = inner.inner_objective

    def objective(*args, **kwargs):
        evaluations[0] += 1
        return real_objective(*args, **kwargs)

    monkeypatch.setattr(inner, "inner_objective", objective)
    for model, alloc in cases:
        evaluations[0] = 0
        sol = surrogate(model, alloc)
        assert sol.converged
        assert sol.iterations <= 25
        assert evaluations[0] <= sol.iterations + 10


@settings(max_examples=40)
@given(
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_hessian_vector_product_matches_gradient_differences(seed, data):
    from sliceforge.inner import _Batch

    model, alloc = random_small_instance(seed)
    m = model.m
    y = np.array(data.draw(st.lists(st.floats(0.05, 3.0), min_size=m, max_size=m)))
    v = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))
    batch = _Batch(model, alloc)
    grad = inner_gradient(model, alloc, y, batch)
    hv = batch.hessian_times(v, batch.hessian_diagonal(y))
    h = 1e-5
    fd = (inner_gradient(model, alloc, y + h * v) - inner_gradient(model, alloc, y - h * v)) / (2 * h)
    scale = 1.0 + float(np.abs(grad).max()) + float(offered_vector(model).sum())
    assert hv == pytest.approx(fd, rel=1e-5, abs=1e-7 * scale)


def test_solution_invariants(small_instances):
    for model, alloc in small_instances[:10]:
        sol = surrogate(model, alloc)
        assert sol.converged
        assert np.all(sol.log_loss >= 0.0)
        re_eval = inner_objective(model, alloc, sol.log_loss)
        assert sol.value == pytest.approx(re_eval, rel=1e-12)
        assert sol.grad_norm <= 1e-8 * (1.0 + abs(sol.value))


def test_warm_start_reaches_same_minimum():
    model = symmetric_pair(nu=8.0)
    alloc = CapacityAllocation([6.0, 4.0])
    cold = surrogate(model, alloc)
    warm = surrogate(model, alloc, warm_start=cold.log_loss)
    assert warm.converged
    assert warm.value == pytest.approx(cold.value, rel=1e-10)
    assert warm.iterations <= cold.iterations


def test_non_convergence_reported():
    model = single_entity(5.0, kind="erlang_b")
    sol = surrogate(model, CapacityAllocation([2.0]), max_iters=1)
    assert not sol.converged
    assert sol.iterations == 1


def test_errors_name_the_layer():
    model = single_entity(5.0, kind="erlang_b")
    alloc = CapacityAllocation([2.0])
    # no iteration means no gradient norm to report: refused, not returned as inf
    with pytest.raises(ValueError, match=r"^inner: max_iters must be at least 1, got 0$"):
        surrogate(model, alloc, max_iters=0)
    with pytest.raises(ValueError, match=r"^inner: allocation length 2 != m=1$"):
        surrogate(model, CapacityAllocation([2.0, 2.0]))
    with pytest.raises(ValueError, match=r"^inner: log-loss vector must have shape \(1,\)$"):
        inner_objective(model, alloc, np.zeros(2))
    with pytest.raises(ValueError, match=r"^inner: log-loss vector must be finite and non-negative$"):
        inner_gradient(model, alloc, np.array([-1.0]))
