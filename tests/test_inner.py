import math
import warnings
from pathlib import Path
from unittest import mock

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
    loss_groups,
    maximize_surrogate,
    offered_vector,
    solve_fixed_point,
    surrogate,
)

import sliceforge.outer
from sliceforge.cli import _resolve_alloc
from sliceforge.inner import TOL
from sliceforge.loss import utilization_measure

from conftest import flat_pair, random_small_instance, single_entity, symmetric_pair
from inner_oracle import NewtonBatch, projected_newton

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


@pytest.mark.parametrize("c_a", [0.05, 0.25, 0.31096392232854486, 0.5, 0.7])
def test_flat_direction_converges_to_closed_form(c_a):
    # CG once divided by the zero curvature along y_a - y_b, and at
    # C = (0.311, 0.689) a rounding-size curvature sent the step to
    # (5.5e30, -5.5e30), which the box clipped to phi = 0.75 unconverged.
    nu = 0.75
    model = flat_pair(nu)
    for c_b in (c_a, 1.0 - c_a, 0.02, 0.4, 0.74, 1.0):
        c = min(c_a, c_b)
        for solve in (surrogate, projected_newton):
            sol = solve(model, CapacityAllocation([c_a, c_b]))
            assert sol.converged
            assert sol.value == pytest.approx(c * (1.0 + math.log(nu / c)), rel=1e-12)


def test_flat_direction_is_followed_to_the_box():
    # A Frank-Wolfe probe near C_a = C_b, warm-started at a vertex's y*: a
    # step that stopped CG without moving along the flat direction crept
    # along it for all 5,000 iterations.
    caps = [0.5000005440018066, 0.4999994559981934]
    sol = projected_newton(flat_pair(0.75), CapacityAllocation(caps), warm_start=np.array([0.0, 50.0]))
    assert sol.converged and sol.iterations < 20
    assert sol.value == pytest.approx(caps[1] * (1.0 + math.log(0.75 / caps[1])), rel=1e-12)


# flat_pair's fixed point near its kink C_a = C_b (the second and third
# allocations are Frank-Wolfe probes): at the root the entity of larger
# capacity carries rho = min(C) just below its kink, and Newton steps cross
# it.  Without the kink step the damped fallback crept, unconverged after
# 10,000 evaluations of G at all three; landing on the kink takes 15, 15
# and 16.
@pytest.mark.parametrize(
    "caps", [(0.4999, 0.5001), (0.49998071, 0.50001929), (0.5000005440018066, 0.4999994559981934)]
)
def test_flat_pair_near_the_kink_converges(caps):
    sol = surrogate(flat_pair(0.75), CapacityAllocation(list(caps)))
    assert sol.converged
    assert sol.iterations <= 16
    c = min(caps)
    assert sol.value == pytest.approx(c * (1.0 + math.log(0.75 / c)), rel=1e-12)


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


def _random_and_demo_cases(small_instances):
    """The 200 random instances, then each demo model at the proportional allocation."""
    cases = list(small_instances)
    for path in sorted(DEMO_MODELS.glob("*.json")):
        model = load_model(path.read_text(encoding="utf-8"))
        cases.append((model, _resolve_alloc("proportional", model)[0]))
    return cases


def test_phi_equals_modified_objective_on_random_and_demo_models(small_instances):
    # The surrogate minimum and the fixed point's carried load plus
    # correction are two formulations of one value; with one route for H
    # they agree to the solvers' precision, not a quadrature tolerance.
    cases = _random_and_demo_cases(small_instances)
    checked = 0
    for model, alloc in cases:
        sol = surrogate(model, alloc)
        state = solve_fixed_point(model, alloc)
        assert sol.converged and state.converged
        q = diagnostics(model, alloc, state).modified_objective
        assert abs(sol.value - q) <= 1e-9 * (1.0 + abs(sol.value))
        checked += 1
    assert checked == len(cases)


def _measures_by_inversion(model, caps, state):
    """The correction's former route: H_j at y_j = -log(1 - B_j) by
    inverting the log-loss curve there (`utilization_measure`), 0 at zero
    capacity."""
    out = np.zeros(model.m)
    for spec, idx in loss_groups(model):
        idx = idx[caps[idx] != 0.0]
        out[idx] = utilization_measure(spec, state.blocking[idx], caps[idx])
    return out


def test_correction_matches_the_inversion_oracle(small_instances):
    # H read off the fixed point's load agrees with inverting at its
    # blocking, entity by entity, for every family, and with each case's
    # first capacity set to 0 as well.
    kinds, zero = set(), 0
    for model, alloc in _random_and_demo_cases(small_instances):
        for caps in (alloc.values, np.concatenate(([0.0], alloc.values[1:]))):
            at = CapacityAllocation(caps)
            state = solve_fixed_point(model, at)
            assert state.converged
            d = diagnostics(model, at, state)
            oracle = _measures_by_inversion(model, caps, state)
            assert np.all(np.abs(d.measures - oracle) <= 1e-13 * np.abs(oracle))
            assert abs(d.correction - oracle.sum()) <= 1e-13 * abs(oracle.sum())
            kinds.update(lg.loss.kind for lg in model.logicals)
            zero += int(np.count_nonzero(caps == 0.0))
    assert kinds == {"erlang_b", "linear_clip", "exp_overflow"} and zero > 0


@given(seed=st.integers(0, 199), scale=st.sampled_from([1.0, 15.0, 50.0]), data=st.data())
def test_fixed_point_phi_matches_projected_newton(seed, scale, data):
    # The two routes to phi at random instances under 1x to 50x load, cold
    # and warm-started from the optimum at a nearby allocation, as a
    # Frank-Wolfe probe is.
    model, alloc = random_small_instance(seed)
    flows = tuple(Flow(f.id, f.offered * scale, dict(f.demands)) for f in model.flows)
    model = NetworkModel(physicals=model.physicals, logicals=model.logicals, flows=flows)
    moved = data.draw(st.lists(st.floats(0.0, 2.0), min_size=model.m, max_size=model.m))
    nearby = CapacityAllocation(alloc.values * np.array(moved))
    warm = surrogate(model, nearby).log_loss
    # The oracle starts cold: warm-started, it can stop above the minimum
    # (test_warm_probe_matches_the_cold_oracle_minimum).
    oracle = projected_newton(model, alloc)
    assert oracle.converged
    for warm_start in (None, warm):
        sol = surrogate(model, alloc, warm_start=warm_start)
        assert sol.converged
        assert abs(sol.value - oracle.value) <= 1e-9 * (1.0 + abs(oracle.value))


def test_warm_probe_matches_the_cold_oracle_minimum():
    # A Frank-Wolfe probe of a 20-iteration solve of seed 27.  Warm-started
    # projected Newton stops "converged" here 2.6e-6 (1 + phi) above the
    # minimum, with the linear_clip l1 (C = 0) and the erlang_b l2 (C =
    # 0.0016, on its cusp) sharing the load.  The fixed point reads phi at
    # the minimum, cold or warm; warm, the zero-capacity l1 whose flows
    # carried nothing at the start keeps the least level at which they pass
    # at most inner.TOL (1 + phi) (`_least_levels`), which lifts phi by
    # 5e-9 (1 + phi), within that documented bound.
    model, _ = random_small_instance(27)
    alloc = CapacityAllocation([5.2749, 0.0, 0.0016377, 0.66258])
    warm = np.array([2.7e-4, 0.0, 46.05, 0.0])
    oracle = projected_newton(model, alloc)
    scale = 1.0 + abs(oracle.value)
    assert oracle.converged
    cold, lifted = surrogate(model, alloc), surrogate(model, alloc, warm_start=warm)
    assert cold.converged and lifted.converged
    assert abs(cold.value - oracle.value) <= 1e-9 * scale
    assert -1e-9 * scale <= lifted.value - oracle.value <= TOL * scale


def test_cold_solve_counts(small_instances, monkeypatch):
    # Projected Newton converges in a handful of iterations, nearly all of
    # them on the full step; a regression in the step or its curvature
    # shows here first.
    import sliceforge.inner as inner

    cases = _random_and_demo_cases(small_instances)
    evaluations = [0]
    real_objective = inner.inner_objective

    def objective(*args, **kwargs):
        evaluations[0] += 1
        return real_objective(*args, **kwargs)

    monkeypatch.setattr(inner, "inner_objective", objective)
    for model, alloc in cases:
        evaluations[0] = 0
        sol = projected_newton(model, alloc)
        assert sol.converged
        assert sol.iterations <= 25
        assert evaluations[0] <= sol.iterations + 10


@settings(max_examples=40)
@given(
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_hessian_vector_product_matches_gradient_differences(seed, data):
    model, alloc = random_small_instance(seed)
    m = model.m
    y = np.array(data.draw(st.lists(st.floats(0.05, 3.0), min_size=m, max_size=m)))
    v = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))
    batch = NewtonBatch(model, alloc)
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


def test_warm_start_at_the_fixed_point_is_already_the_minimum(small_instances):
    # At y = -log(1 - B) of the reduced-load fixed point, U_j = rho_j S_j
    # equals the flow term, so the inner gradient vanishes there: the
    # reports start the surrogate at that point.
    cases = _random_and_demo_cases(small_instances)
    for model, alloc in cases:
        state = solve_fixed_point(model, alloc)
        assert state.converged
        with np.errstate(divide="ignore"):
            warm = surrogate(model, alloc, warm_start=-np.log1p(-state.blocking))
        cold = surrogate(model, alloc)
        assert warm.converged and cold.converged
        assert warm.iterations <= 1
        assert abs(warm.value - cold.value) <= 1e-12 * (1.0 + abs(cold.value))


# A Frank-Wolfe line-search probe on the benchmark's erlang_m8 document.
# Entity 2 warm-starts on U's cusp (y = 2.6e-5, C = 62.4), where the Newton
# step predicted a decrease of 1.8e-14, about one ulp of phi = 119.2: every
# trial then read phi plus rounding noise, Armijo halved until y moved by
# an ulp and phi not at all, and took that step, 5000 times over.
_CUSP_ALLOC = [
    17.851004413210678, 20.954774631869203, 62.3774507237375, 4.45685450621955,
    25.58447101704558, 7.460750158198629, 23.060145273456346, 31.987584486497234,
]
_CUSP_WARM = [
    0.5486399440284401, 0.47899500281883983, 2.5621783904485037e-05, 0.5229155224263021,
    0.2807324576567406, 0.4700047159736661, 0.48403816472462946, 0.4661373180820303,
]


def test_warm_start_on_the_cusp_converges(ladder_model):
    model = ladder_model("erlang_m8")
    alloc = CapacityAllocation(_CUSP_ALLOC)
    cold = surrogate(model, alloc)
    assert cold.converged
    for solve in (surrogate, projected_newton):
        warm = solve(model, alloc, warm_start=np.array(_CUSP_WARM))
        assert warm.converged
        assert warm.iterations <= 20
        assert warm.value == pytest.approx(cold.value, rel=1e-13)


# Two Frank-Wolfe vertex probes of `solve` on the benchmark's erlang_m20
# document (allocation, then the warm start: the previous probe's y*).
# Warm-started projected Newton ends both unconverged at grad_norm 43: a
# coordinate on U's cusp near y = 0 takes a step whose predicted decrease
# of 5.7e-13 phi, at its rounding floor, does not show.
_M20_PROBES = (
    (  # probe 1
        [
            0.0, 0.0, 0.0, 0.0,
            2.4279999999999973, 0.0, 0.0, 0.0,
            0.0, 55.269, 0.0, 0.0,
            112.768, 0.0, 0.0, 106.89100000000002,
            0.0, 108.643, 0.0, 0.0,
        ],
        [
            0.5606437681093818, 0.00025928620413787816, 0.001356967502630496, 0.0003170670638619347,
            0.0016628836046996935, 0.5411960913480934, 0.00029974213812068007, 0.11382531864663871,
            1.6006081835178774e-09, 0.5269122067382396, 0.5569695870950354, 0.16147379929397981,
            0.17659195224930246, 0.1662644111991246, 0.5363962701242362, 0.002377175324300925,
            2.394879262407224e-10, 4.736815808374161e-19, 0.1669012660578354, 0.5667698774924933,
        ],
    ),
    (  # probe 2
        [
            0.0, 0.0, 0.0, 0.0,
            2.4279999999999973, 0.0, 0.0, 0.0,
            0.0, 55.269000000000005, 0.0, 0.0,
            112.768, 0.0, 0.0, 106.891,
            0.0, 108.643, 0.0, 0.0,
        ],
        [
            0.5685332760915043, 0.0002771293893285221, 0.0018028268636172517, 0.0003416117203624685,
            0.0017225328026513817, 0.5470453080049935, 0.0002958322102269912, 0.15345392231325522,
            1.632256770901664e-09, 0.5219096615733382, 0.5564563507087632, 0.15720024481886913,
            0.16426301094280998, 0.1656953771004524, 0.5406583558211369, 0.0020887049246713215,
            3.2682455350653816e-10, 1.1761307098170205e-19, 0.16030152182360052, 0.5593750902745969,
        ],
    ),
)


@pytest.mark.parametrize("probe", range(len(_M20_PROBES)))
def test_erlang_m20_vertex_probes_converge(ladder_model, probe):
    model = ladder_model("erlang_m20")
    caps, warm = _M20_PROBES[probe]
    alloc = CapacityAllocation(caps)
    sol = surrogate(model, alloc, warm_start=np.array(warm))
    assert sol.converged and sol.iterations <= 10
    cold = projected_newton(model, alloc)
    assert cold.converged
    assert sol.value == pytest.approx(cold.value, rel=1e-12)


@settings(max_examples=200)
@given(seed=st.integers(0, 10_000), scale=st.sampled_from([1.0, 10.0, 100.0]), data=st.data())
def test_every_counted_iteration_lowers_phi(seed, scale, data):
    # A warm start within 1e-3 of the minimizer puts the steps at the
    # rounding floor of phi, where Armijo can accept a step that phi does
    # not show.  Each counted iteration's point gets the next gradient, so
    # phi at the gradient points is phi after each counted iteration.
    import sliceforge.inner as inner

    model, alloc = random_small_instance(seed)
    flows = tuple(Flow(f.id, f.offered * scale, dict(f.demands)) for f in model.flows)
    model = NetworkModel(physicals=model.physicals, logicals=model.logicals, flows=flows)
    alloc = CapacityAllocation(alloc.values * scale)
    jitter = data.draw(st.lists(st.floats(-1e-3, 1e-3), min_size=model.m, max_size=model.m))
    warm = projected_newton(model, alloc).log_loss * (1.0 + np.array(jitter))
    seen, path = {}, []
    real_objective, real_gradient = inner.inner_objective, inner.inner_gradient

    def objective(model, alloc, y, batch=None):
        seen[y.tobytes()] = value = real_objective(model, alloc, y, batch)
        return value

    def gradient(model, alloc, y, batch=None):
        path.append(seen[y.tobytes()])
        return real_gradient(model, alloc, y, batch)

    with mock.patch.object(inner, "inner_objective", objective), mock.patch.object(inner, "inner_gradient", gradient):
        sol = projected_newton(model, alloc, warm_start=warm)
    assert len(path) == sol.iterations + 1
    assert all(later < earlier for earlier, later in zip(path, path[1:]))


def test_ladder_solve_raises_no_runtime_warning(ladder_model):
    # The second Frank-Wolfe iteration on erlang_m50 takes coordinates down
    # U's cusp arc toward 0, where a subnormal y (4.3e-322 was seen) would
    # overflow U's slope and the inversion's Newton slope.
    model = ladder_model("erlang_m50")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, trace = maximize_surrogate(model, max_iters=2)
    assert len(trace.values) == 2


def test_frank_wolfe_probes_converge_to_the_cold_minimum(ladder_model, monkeypatch):
    # closed_m50_x3 has linear_clip entities on shared flows, so the inner
    # Hessian is nearly singular.  An unbounded CG step once sent the 49th
    # solve (warm-started) out of the box, and the solve ended "converged"
    # at phi = 323.9, where the minimum is 111.6.
    model = ladder_model("closed_m50_x3")
    solves = []

    def recorded(model_, alloc, warm_start=None):
        solves.append((alloc, warm_start, surrogate(model_, alloc, warm_start=warm_start)))
        return solves[-1][2]

    monkeypatch.setattr(sliceforge.outer, "surrogate", recorded)
    maximize_surrogate(model, max_iters=10)
    assert len(solves) >= 49
    # A converged phi may sit above the minimum by grad_norm times the box
    # width along the Hessian's near-null directions: 1.3e-9 relative here.
    for alloc, warm_start, sol in solves:
        cold = surrogate(model, alloc)
        newton = projected_newton(model, alloc, warm_start=warm_start)
        assert sol.converged and cold.converged and newton.converged
        assert sol.value <= cold.value + 1e-6 * (1.0 + abs(cold.value))
        assert newton.value <= cold.value + 1e-6 * (1.0 + abs(cold.value))


def test_coordinate_just_above_the_cusp_is_not_pinned():
    # The first Newton step from this warm start takes y_a from its box end
    # to 0 and stops CG at the box width, which leaves y_b (exp_overflow,
    # C = 0.368) at 3.5e-18.  U's slope there is 6e13 and grows as y falls,
    # so with the Hessian taking it, each step moved y_b by ~1e-190 and
    # the solve ended "converged" at phi = 0.5557 with grad_norm 0.35.
    model = NetworkModel(
        physicals=tuple(PhysicalEntity(f"p{k}", "unit", 1.0) for k in range(3)),
        logicals=(
            LogicalEntity("a", ("p0", "p1", "p2"), LossSpec("erlang_b")),
            LogicalEntity("b", ("p0", "p2"), LossSpec("exp_overflow")),
            LogicalEntity("c", ("p0", "p1"), LossSpec("erlang_b")),
        ),
        flows=(
            Flow("f0", 0.5597828181442617, {"b": 1, "c": 1}),
            Flow("f1", 1.3978133120370133, {"b": 2, "c": 1}),
            Flow("f2", 1.1010671818926097, {"a": 1, "b": 1}),
        ),
    )
    alloc = CapacityAllocation([0.631906289039607, 0.368093710960393, 0.0])
    cold = surrogate(model, alloc)
    assert cold.converged
    for solve in (surrogate, projected_newton):
        warm = solve(model, alloc, warm_start=np.array([46.051701859880914, 0.0, 46.051701859880914]))
        assert warm.converged
        assert warm.value == pytest.approx(cold.value, rel=1e-12)
        assert warm.value == pytest.approx(0.4849542564535485, rel=1e-9)


def test_non_convergence_reported():
    model = single_entity(5.0, kind="erlang_b")
    sol = projected_newton(model, CapacityAllocation([2.0]), max_iters=1)
    assert not sol.converged
    assert sol.iterations == 1
    # max_iters bounds the surrogate's evaluations of G: one is not enough
    # where a flow crosses two blocking entities
    sol = surrogate(symmetric_pair(), CapacityAllocation([4.0, 6.0]), max_iters=1)
    assert sol.converged and sol.iterations == 1
    sol = surrogate(flat_pair(0.75), CapacityAllocation([0.25, 0.75]), max_iters=1)
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
