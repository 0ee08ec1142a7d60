import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sliceforge import (
    CapacityAllocation,
    Flow,
    LogicalEntity,
    LossSpec,
    NetworkModel,
    PhysicalEntity,
    carried_total,
    diagnostics,
    incidence,
    loss,
    no_blocking_loads,
    solve_fixed_point,
    surrogate,
)
from sliceforge.cli import _resolve_alloc
from sliceforge.fixedpoint import TOL, _flow_entries, _flow_pairs, _flow_survival

from conftest import random_small_instance, single_entity, symmetric_pair
from fixedpoint_oracle import dense_flow_survival, oracle_fixed_point

KINDS = ("erlang_b", "linear_clip", "exp_overflow")


def test_single_entity_offered_equals_input_load():
    # the (1 - F) factors cancel, so rho = nu for every family and capacity
    for kind in ("erlang_b", "linear_clip", "exp_overflow"):
        for cap in (0.5, 1.0, 3.7, 12.0):
            for nu in (0.3, 1.0, 6.0):
                model = single_entity(nu, kind=kind)
                state = solve_fixed_point(model, CapacityAllocation([cap]))
                assert state.converged
                assert state.offered[0] == pytest.approx(nu, abs=1e-8)


def test_linear_clip_double_demand_closed_form():
    # one flow holding two units on one clipped entity: rho = 2 nu / rho
    model = single_entity(1.0, kind="linear_clip", demand=2)
    state = solve_fixed_point(model, CapacityAllocation([1.0]))
    assert state.converged
    assert state.offered[0] == pytest.approx(math.sqrt(2.0), abs=1e-8)
    assert carried_total(model, state) == pytest.approx(0.5, abs=1e-8)


def test_zero_flows():
    model = NetworkModel(
        physicals=(PhysicalEntity("p", "u", 1.0),),
        logicals=(LogicalEntity("l", ("p",), LossSpec("erlang_b")),),
        flows=(),
    )
    state = solve_fixed_point(model, CapacityAllocation([1.0]))
    assert state.converged and state.iterations == 1
    assert state.offered.tolist() == [0.0]
    assert state.carried_per_flow.shape == (0,)
    d = diagnostics(model, CapacityAllocation([1.0]), state)
    assert d.carried_total == 0.0 and d.modified_objective == 0.0 and d.correction == 0.0


def test_blocking_is_recomputable(small_instances):
    for model, alloc in small_instances[:15]:
        state = solve_fixed_point(model, alloc)
        for i, lg in enumerate(model.logicals):
            expect = loss(lg.loss, float(state.offered[i]), float(alloc.values[i]))
            assert state.blocking[i] == pytest.approx(expect, abs=1e-12)


def test_carried_load_identity(small_instances):
    from sliceforge import demand_matrix, offered_vector

    for model, alloc in small_instances[:15]:
        state = solve_fixed_point(model, alloc)
        a = demand_matrix(model)
        nu = offered_vector(model)
        expect = nu * np.prod((1.0 - state.blocking)[:, None] ** a, axis=0)
        assert state.carried_per_flow == pytest.approx(expect.tolist(), rel=1e-10)
        assert np.all(state.carried_per_flow <= nu + 1e-12)
        assert carried_total(model, state) == pytest.approx(float(state.carried_per_flow.sum()))


def test_residual_meets_tolerance(small_instances):
    for model, alloc in small_instances[:15]:
        state = solve_fixed_point(model, alloc)
        assert state.converged
        assert state.residual <= 1e-9


def test_non_convergence_is_reported_not_raised():
    # the double-demand instance iterates from rho = 2 toward sqrt(2), so a
    # two-step budget cannot reach the 1e-9 residual
    model = single_entity(1.0, kind="linear_clip", demand=2)
    state = solve_fixed_point(model, CapacityAllocation([1.0]), max_iters=2)
    assert not state.converged
    assert state.iterations == 2
    assert state.residual > 1e-9


def test_fully_blocked_entity():
    # zero capacity on the only entity: B = 1, carried load 0, offered
    # pinned at the no-blocking load rather than dividing by 1 - F = 0
    model = single_entity(3.0, kind="erlang_b")
    state = solve_fixed_point(model, CapacityAllocation([0.0]))
    assert state.converged
    assert state.blocking[0] == 1.0
    assert state.offered[0] == pytest.approx(no_blocking_loads(model)[0])
    assert carried_total(model, state) == 0.0


def test_ample_capacity_carries_everything():
    model = symmetric_pair(nu=2.0, phys_cap=200.0)
    state = solve_fixed_point(model, CapacityAllocation([100.0, 100.0]))
    assert np.all(state.blocking < 1e-12)
    assert carried_total(model, state) == pytest.approx(4.0, rel=1e-9)


def test_diagnostics_linear_clip_worked_example():
    model = single_entity(2.0, kind="linear_clip")
    alloc = CapacityAllocation([1.0])
    state = solve_fixed_point(model, alloc)
    d = diagnostics(model, alloc, state)
    assert state.blocking[0] == pytest.approx(0.5, abs=1e-9)
    assert d.carried_total == pytest.approx(1.0, abs=1e-8)
    assert d.correction == pytest.approx(math.log(2.0), rel=1e-6)
    assert d.modified_objective == pytest.approx(1.0 + math.log(2.0), rel=1e-6)
    assert d.correction_bound == pytest.approx(1.0, abs=1e-8)
    assert d.correction <= d.correction_bound


def test_weighted_carried_and_route_length():
    # one flow of length 2 (demands two entities), one of length 1
    model = NetworkModel(
        physicals=(PhysicalEntity("p", "u", 50.0),),
        logicals=(
            LogicalEntity("a", ("p",), LossSpec("erlang_b")),
            LogicalEntity("b", ("p",), LossSpec("erlang_b")),
        ),
        flows=(Flow("f1", 1.0, {"a": 1, "b": 1}), Flow("f2", 2.0, {"b": 1})),
    )
    alloc = CapacityAllocation([20.0, 20.0])
    state = solve_fixed_point(model, alloc)
    d = diagnostics(model, alloc, state)
    assert d.max_route_length == 2.0
    c1, c2 = state.carried_per_flow
    assert d.weighted_carried == pytest.approx(2.0 * c1 + 1.0 * c2, rel=1e-12)


def test_correction_bounds_on_random_instances(small_instances):
    for model, alloc in small_instances[:40]:
        state = solve_fixed_point(model, alloc)
        assert state.converged
        d = diagnostics(model, alloc, state)
        assert 0.0 <= d.correction <= d.correction_bound + 1e-12


def test_carried_load_monotone_in_capacity():
    # raising one logical capacity never hurts total carried load; with a
    # non-unique fixed point this could in principle fail, so any hit is
    # reported loudly rather than silently tolerated
    violations = []
    for seed in range(30):
        model, alloc = random_small_instance(seed)
        base = carried_total(model, solve_fixed_point(model, alloc))
        rng = np.random.default_rng(1000 + seed)
        i = int(rng.integers(0, model.m))
        bumped = alloc.values.copy()
        bumped[i] += float(rng.uniform(0.1, 1.0))
        t2 = carried_total(model, solve_fixed_point(model, CapacityAllocation(bumped)))
        if t2 < base - 1e-9:
            violations.append((seed, i, base, t2))
    assert violations == []


def test_infeasible_allocation_still_solvable():
    # feasibility is not a precondition of the load system
    model = symmetric_pair(phys_cap=10.0)
    state = solve_fixed_point(model, CapacityAllocation([50.0, 50.0]))
    assert state.converged
    assert np.all(state.blocking < 1e-10)


def test_rejects_an_empty_budget_and_a_wrong_allocation():
    model = single_entity(1.0)
    with pytest.raises(ValueError, match=r"^fixedpoint: max_iters must be at least 1, got 0$"):
        solve_fixed_point(model, CapacityAllocation([1.0]), max_iters=0)
    with pytest.raises(ValueError, match=r"^fixedpoint: allocation length 2 != m=1$"):
        solve_fixed_point(model, CapacityAllocation([1.0, 1.0]))


def test_diagnostics_error_names_the_layer():
    model, alloc = random_small_instance(0)
    state = solve_fixed_point(model, alloc, max_iters=1)
    assert not state.converged
    with pytest.raises(ValueError, match=r"^fixedpoint: diagnostics requires a converged state$"):
        diagnostics(model, alloc, state)


def test_start_at_the_solution_converges_at_once(small_instances):
    # A start at the solution: `surrogate` warm-started at its own cold
    # optimum starts the fixed point at G's load there, and one evaluation
    # of G confirms it.  That load is within the fixed point's TOL of the
    # cold one, and so is the blocking it gives.
    for model, alloc in small_instances[:20]:
        cold = surrogate(model, alloc)
        warm = surrogate(model, alloc, warm_start=cold.log_loss)
        assert warm.converged and warm.iterations == 1
        assert -np.expm1(-warm.log_loss) == pytest.approx(-np.expm1(-cold.log_loss), abs=TOL)
        assert warm.value == pytest.approx(cold.value, rel=1e-12)


def _scaled(model, factor):
    flows = tuple(Flow(fl.id, fl.offered * factor, dict(fl.demands)) for fl in model.flows)
    return NetworkModel(physicals=model.physicals, logicals=model.logicals, flows=flows)


def test_converges_wherever_the_damped_oracle_does():
    # random instances at their own loads and overloaded 15x and 50x; the
    # Newton solver must converge wherever damped Jacobi does, to the same
    # blocking.  Its evaluations of G: 2,556 in all over the 299 cases the
    # oracle solves (2,619 before the kink step; Anderson acceleration took
    # 4,124), median 5 (12), and at most 154 (183), where the damped
    # fallback creeps with no kink in the way.
    misses, worst, counts = [], 0.0, []
    for seed in range(100):
        model, alloc = random_small_instance(seed)
        for factor in (1.0, 15.0, 50.0):
            loaded = _scaled(model, factor)
            expect = oracle_fixed_point(loaded, alloc)
            if not expect.converged:
                continue
            state = solve_fixed_point(loaded, alloc)
            if not state.converged:
                misses.append((seed, factor, state.iterations, state.residual))
                continue
            worst = max(worst, float(np.max(np.abs(state.blocking - expect.blocking))))
            counts.append((state.iterations, expect.iterations))
    assert misses == []
    assert worst <= 1e-7
    ours, theirs = np.array(counts).T
    assert np.median(ours) < np.median(theirs)
    assert ours.sum() <= 2750 and ours.max() <= 183


def closed_form_instance(m, overload, seed):
    """m logicals alternating exp_overflow / linear_clip over m / 2 shared
    physicals, 1.5 m flows over 1-3 logicals with demands of 1-2 units,
    and no-blocking loads `overload` times a feasible allocation that
    makes some physical tight."""
    rng = np.random.default_rng(seed)
    n = m // 2
    physicals = tuple(PhysicalEntity(f"p{k}", "unit", float(rng.uniform(50.0, 150.0))) for k in range(n))
    logicals = tuple(
        LogicalEntity(
            f"l{i}",
            tuple(f"p{k}" for k in sorted(rng.choice(n, size=int(rng.integers(1, 4)), replace=False))),
            LossSpec(("exp_overflow", "linear_clip")[i % 2]),
        )
        for i in range(m)
    )
    flows = []
    for r in range(3 * m // 2):
        hops = [int(h) for h in rng.choice(m, size=int(rng.integers(1, 4)), replace=False)]
        if r < m and r not in hops:
            hops[0] = r  # every logical carries some flow
        demands = {f"l{i}": int(rng.integers(1, 3)) for i in hops}
        flows.append(Flow(f"f{r}", float(rng.uniform(0.5, 1.5)), demands))
    model = NetworkModel(physicals=physicals, logicals=logicals, flows=tuple(flows))
    rho0 = no_blocking_loads(model)
    usage = incidence(model).T @ rho0
    busy = usage > 0.0
    scale = float(np.min(model.physical_capacities()[busy] / usage[busy]))
    return _scaled(model, overload), CapacityAllocation(rho0 * scale)


def test_overloaded_closed_form_evaluation_count():
    # m = 50 at 10x overload: damped Jacobi takes 219 evaluations of G,
    # Anderson acceleration took 47, the Newton solver 11
    model, alloc = closed_form_instance(50, 10.0, seed=1)
    state = solve_fixed_point(model, alloc)
    assert state.converged
    assert state.iterations <= 13


def test_linear_clip_kink_evaluation_count():
    # offered 15x, the linear_clip entity l2 settles at rho = 5.69 just
    # above its kink at C = 5.61; steps across the corner pass the line
    # search only at t = 1/8 or not at all, and the damped fallback crept:
    # 116 evaluations of G without the kink step, 38 with it (Anderson
    # acceleration took 183, damped Jacobi 1,683)
    model, alloc = random_small_instance(81)
    state = solve_fixed_point(_scaled(model, 15.0), alloc)
    assert state.converged
    assert state.iterations <= 42


@pytest.mark.parametrize(
    "name, evaluations",
    [
        ("erlang_m8", 8),
        ("erlang_m20", 8),
        ("erlang_m50", 8),
        ("closed_m50_x3", 15),
        ("closed_m50_x10", 17),
        ("closed_m200_x3", 19),
        ("closed_m200_x10", 16),
    ],
)
def test_ladder_documents_converge_within_their_counts(ladder_model, name, evaluations):
    # The benchmark's ladder documents at `--alloc proportional`, where the
    # closed-form ones' linear_clip entities sit on both sides of their
    # kinks: a kink step that lands too eagerly took closed_m50_x10 from 17
    # evaluations of G to 26, and one tried before the full step left
    # closed_m200_x10 unconverged after 10,000.
    model = ladder_model(name)
    state = solve_fixed_point(model, _resolve_alloc("proportional", model)[0])
    assert state.converged
    assert state.iterations <= evaluations


@st.composite
def _stressed_instances(draw):
    """Up to 5 entities of mixed families with capacities 0, below 1 and
    above, flows of demand 1-2, loaded 3-10x."""
    m = draw(st.integers(1, 5))
    logicals = tuple(
        LogicalEntity(f"l{i}", ("p",), LossSpec(draw(st.sampled_from(KINDS)))) for i in range(m)
    )
    flows = []
    for r in range(draw(st.integers(1, 6))):
        route = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
        flows.append(Flow(f"f{r}", draw(st.floats(0.1, 2.0)), {f"l{i}": draw(st.integers(1, 2)) for i in route}))
    caps = np.array(
        draw(st.lists(st.just(0.0) | st.floats(0.05, 0.99) | st.floats(1.0, 20.0), min_size=m, max_size=m))
    )
    model = NetworkModel(physicals=(PhysicalEntity("p", "unit", 1.0),), logicals=logicals, flows=tuple(flows))
    rho0 = no_blocking_loads(model)
    open_ = (caps > 0.0) & (rho0 > 0.0)
    if open_.any():
        model = _scaled(model, draw(st.floats(3.0, 10.0)) / float(np.max(rho0[open_] / caps[open_])))
    budget = draw(st.just(10000) | st.integers(1, 40))
    return model, CapacityAllocation(caps), budget


@given(_stressed_instances())
def test_stressed_states_are_sound(case):
    model, alloc, budget = case
    state = solve_fixed_point(model, alloc, max_iters=budget)
    assert 1 <= state.iterations <= budget
    if state.converged:
        assert state.residual <= TOL
    assert np.all(np.isfinite(state.offered)) and np.all(state.offered >= 0.0)
    assert np.all((state.blocking >= 0.0) & (state.blocking <= 1.0))
    # pinned entities (B = 1) keep their no-blocking load exactly, and
    # zero capacity under load is always pinned
    rho0 = no_blocking_loads(model)
    pinned = state.blocking == 1.0
    assert np.array_equal(state.offered[pinned], rho0[pinned])
    assert np.all(pinned[(alloc.values == 0.0) & (rho0 > 0.0)])
    assert np.all(np.isfinite(state.carried_per_flow)) and np.all(state.carried_per_flow >= 0.0)


@st.composite
def _demands_and_survival(draw):
    """A demand matrix of 0-2 units with every column non-empty, and a
    survival vector with some exact zeros and full-mantissa values."""
    m, flows = draw(st.integers(1, 12)), draw(st.integers(0, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    demands = rng.choice([0.0, 1.0, 2.0], size=(m, flows), p=[0.5, 0.3, 0.2])
    for r in np.flatnonzero(~demands.any(axis=0)):
        demands[rng.integers(0, m), r] = 1.0
    survival = np.where(rng.random(m) < 0.15, 0.0, rng.random(m))
    return demands, survival


@given(_demands_and_survival())
def test_sparse_flow_survival_matches_dense_product(case):
    demands, survival = case
    got = _flow_survival(survival, _flow_entries(demands))
    want = dense_flow_survival(survival, demands)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@given(_demands_and_survival())
def test_flow_pairs_assemble_the_dense_product(case):
    # A diag(w) A^T from one bincount over the within-flow pairs, with the
    # survival vector standing in for the flow weights
    demands, survival = case
    m, flows = demands.shape
    weights = np.resize(survival, flows)
    rows, cols, products, flow = _flow_pairs(_flow_entries(demands))
    got = np.bincount(rows * m + cols, weights=products * weights[flow], minlength=m * m).reshape(m, m)
    assert np.allclose(got, (demands * weights) @ demands.T, rtol=1e-14, atol=0.0)
    assert rows.size == int(np.sum(np.count_nonzero(demands, axis=0) ** 2))


def test_sparse_flow_survival_edges():
    # no flows at all; demand 2 on a zero-survival entity; a flow whose
    # only entity is the last one
    assert _flow_survival(np.array([0.5, 0.25]), _flow_entries(np.zeros((2, 0)))).shape == (0,)
    demands = np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 2.0]])
    survival = np.array([0.0, 0.5, 0.3])
    got = _flow_survival(survival, _flow_entries(demands))
    assert got.tobytes() == dense_flow_survival(survival, demands).tobytes()
    assert got.tolist() == [0.0, 0.0, 0.3**2]
