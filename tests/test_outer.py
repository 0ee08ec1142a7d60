import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

import sliceforge.outer
from sliceforge import (
    CapacityAllocation,
    Flow,
    LogicalEntity,
    LossSpec,
    NetworkModel,
    PhysicalEntity,
    Polytope,
    ReconfigProblem,
    SimplexError,
    capacity_polytope,
    incidence,
    load_model,
    lp_solve,
    maximize_surrogate,
    solve_reconfig,
    supergradient,
    surrogate,
)
from sliceforge.fixedpoint import TOL as FIXED_POINT_TOL
from sliceforge.fixedpoint import Y_CAP as INNER_Y_CAP
from sliceforge.loss import (
    _FD_STEP_FLOOR,
    _FD_STEP_REL,
    LossFamily,
    get_family,
    log_loss_ceiling,
    register_family,
    utilization_integral,
)
from sliceforge.model import loss_groups
from sliceforge.outer import GAP_TOL, LINE_SEARCH_EVALS, LINE_SEARCH_TOL, _slope_search

from conftest import flat_pair, random_small_instance, single_entity, symmetric_pair, three_potentials
from test_loss import _GenericErlang, _GenericExpOverflow

MODELS = Path(__file__).resolve().parent.parent / "demos" / "models"
DEMOS = ("reference_2x3", "symmetric_pair", "three_potentials")


def demo_model(name):
    return load_model((MODELS / f"{name}.json").read_text())


# --- polytope ---------------------------------------------------------------


def test_polytope_basics():
    poly = Polytope(np.array([[1.0, 1.0]]), np.array([1.0]))
    assert poly.dimension == 2
    assert poly.contains(np.array([0.5, 0.5]))
    assert poly.contains(np.array([0.0, 0.0]))
    assert not poly.contains(np.array([0.8, 0.5]))
    assert not poly.contains(np.array([-0.1, 0.0]))


def test_unbounded_polytope_rejected():
    # x2 unconstrained from above
    with pytest.raises(Exception, match="positive coefficient"):
        Polytope(np.array([[1.0, 0.0]]), np.array([1.0]))


def test_capacity_polytope_matches_model():
    model = symmetric_pair(phys_cap=10.0)
    poly = capacity_polytope(model)
    assert poly.dimension == model.m
    assert poly.contains(np.array([5.0, 5.0]))
    assert not poly.contains(np.array([6.0, 5.0]))


# --- LP ---------------------------------------------------------------------


def test_lp_worked_examples():
    poly = Polytope(np.array([[1.0, 1.0]]), np.array([1.0]))
    x, val = lp_solve(np.array([1.0, 1.0]), poly)
    assert val == pytest.approx(1.0)
    assert x.tolist() == [1.0, 0.0]  # Bland's rule enters x1 first

    poly2 = Polytope(np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([3.0, 5.0]))
    x2, val2 = lp_solve(np.array([1.0, 0.0]), poly2)
    assert x2.tolist() == [3.0, 0.0]
    assert val2 == pytest.approx(3.0)

    x3, val3 = lp_solve(np.zeros(2), poly2)
    assert x3.tolist() == [0.0, 0.0]
    assert val3 == 0.0


def test_lp_returns_vertex():
    poly = Polytope(np.array([[1.0, 2.0, 1.0], [2.0, 1.0, 3.0]]), np.array([4.0, 6.0]))
    x, _ = lp_solve(np.array([3.0, 2.0, 1.0]), poly)
    rows = poly.A_ub @ x - poly.b_ub
    tight = int(np.sum(np.abs(rows) <= 1e-9)) + int(np.sum(np.abs(x) <= 1e-9))
    assert tight >= poly.dimension


def test_lp_against_linprog_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, 5))
        a = rng.uniform(0.0, 2.0, size=(k, d))
        a[rng.integers(0, k), :] += 0.5  # keep every column bounded
        b = rng.uniform(0.5, 4.0, size=k)
        c = rng.uniform(-1.0, 2.0, size=d)
        poly = Polytope(a, b)
        x, val = lp_solve(c, poly)
        ref = linprog(-c, A_ub=a, b_ub=b, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert val == pytest.approx(-ref.fun, abs=1e-8)
        assert poly.contains(x)


# --- supergradient ----------------------------------------------------------


def test_supergradient_closed_form():
    model = single_entity(2.0, kind="linear_clip")
    g = supergradient(model, CapacityAllocation([1.0]))
    assert g[0] == pytest.approx(math.log(2.0), rel=1e-3)
    g_flat = supergradient(model, CapacityAllocation([3.0]))
    assert g_flat[0] == pytest.approx(0.0, abs=1e-6)


def test_supergradient_matches_full_finite_difference():
    model = symmetric_pair(nu=6.0, phys_cap=8.0)
    alloc = CapacityAllocation([5.0, 3.0])
    g = supergradient(model, alloc)
    for j in range(2):
        h = 1e-4
        up = alloc.values.copy()
        dn = alloc.values.copy()
        up[j] += h
        dn[j] -= h
        full = (
            surrogate(model, CapacityAllocation(up)).value
            - surrogate(model, CapacityAllocation(dn)).value
        ) / (2 * h)
        assert g[j] == pytest.approx(full, rel=1e-3, abs=1e-6)


def _inverting_supergradient(model, caps, log_loss, scale=1.0):
    """The supergradient as the library computed it before it read the
    fixed point's load: per coordinate a central difference of H_j(y_j, .)
    over [max(0, C - h), C + h] with h = scale * max(_FD_STEP_FLOOR,
    _FD_STEP_REL * C), both ends inverted, and y_j clipped to the log-loss
    ceiling of C + h."""
    h = scale * np.maximum(_FD_STEP_FLOOR, _FD_STEP_REL * caps)
    lo, hi = np.maximum(0.0, caps - h), caps + h
    grad = np.zeros(model.m)
    for spec, idx in loss_groups(model):
        y = np.minimum(log_loss[idx], log_loss_ceiling(spec, hi[idx]))
        both = utilization_integral(spec, np.concatenate([y, y]), np.concatenate([hi[idx], lo[idx]]))
        grad[idx] = (both[: idx.size] - both[idx.size :]) / (hi[idx] - lo[idx])
    return grad


def _check_against_the_inverting_route(model, caps, sol):
    g = supergradient(model, CapacityAllocation(caps), inner=sol)
    ref = _inverting_supergradient(model, caps, sol.log_loss)
    half = _inverting_supergradient(model, caps, sol.log_loss, 0.5)
    erlang = np.array([lg.loss.kind == "erlang_b" for lg in model.logicals])
    err = np.abs(g - ref)
    # Closed families: H is linear in C at fixed y, so the difference is
    # exact up to rounding.
    assert np.all((err <= 1e-11 * np.maximum(1.0, np.abs(ref)))[~erlang])
    # C > 0: both are central differences with the same h, but the
    # inverting one differences H at fixed y, which curves in C on the scale
    # of C, so its own error grows like (h / C)^2 (0.6 % at C = 0.002 on
    # seed 141, where the load-based one is within 1e-7 of the derivative;
    # see test_capacity_slope_beats_the_inverting_difference_at_small_capacity).
    # 2 |D(h) - D(h/2)| bounds that error; it is below 1e-9 at C >= 1.
    # Prices below 1e-15 are rounding noise.
    own = 2.0 * np.abs(ref - half)
    assert np.all((err <= 1e-7 * np.abs(ref) + own + 1e-15)[erlang & (caps > 0.0)])
    # C = 0: the price is the level itself, whether the level sits at the
    # box end (B = 1 under load) or was lifted to the least level at which
    # the entity passes almost nothing (inner._least_levels).
    zero = erlang & (caps == 0.0)
    assert np.array_equal(g[zero], sol.log_loss[zero])
    box_end = zero & (sol.log_loss == np.minimum(log_loss_ceiling(LossSpec("erlang_b"), 0.0), INNER_Y_CAP))
    lifted = zero & ~box_end
    return int(np.count_nonzero(erlang & (caps > 0.0))), int(np.count_nonzero(box_end)), int(np.count_nonzero(lifted))


def _checked_probes(monkeypatch, counts):
    """Check every supergradient Frank-Wolfe reads against the inverting
    route; `counts` collects (positive, box-end zero, lifted zero) Erlang sizes."""
    library = sliceforge.outer.supergradient

    def checked(model, alloc, inner=None):
        counts.append(_check_against_the_inverting_route(model, np.asarray(alloc.values, dtype=float), inner))
        return library(model, alloc, inner=inner)

    monkeypatch.setattr(sliceforge.outer, "supergradient", checked)


def test_supergradient_matches_the_inverting_route_on_demo_probes(monkeypatch):
    counts = []
    _checked_probes(monkeypatch, counts)
    for name in DEMOS:
        maximize_surrogate(demo_model(name))
    solve_reconfig(ReconfigProblem(demo_model("three_potentials"), 2.0))
    positive, box_end, lifted = np.sum(counts, axis=0)
    assert len(counts) == 14 and positive > 0 and box_end > lifted == 0


def test_supergradient_matches_the_inverting_route_on_random_iterates(monkeypatch):
    counts = []
    _checked_probes(monkeypatch, counts)
    for seed in range(1, 200, 10):  # seed 141 is among them
        model, _ = random_small_instance(seed)
        maximize_surrogate(model, max_iters=12)
    positive, box_end, lifted = np.sum(counts, axis=0)
    assert positive > 100 and box_end > 0 and lifted > 0


def test_supergradient_matches_the_inverting_route_at_a_ladder_iterate(ladder_model):
    model = ladder_model("erlang_m20")
    alloc, _ = maximize_surrogate(model, max_iters=15)
    positive, _, _ = _check_against_the_inverting_route(model, alloc.values, surrogate(model, alloc))
    assert positive == model.m


@pytest.mark.parametrize("cap, y", [(0.0020474, 4.4289), (0.047003, 3.5816), (0.5, 2.0)])
def test_capacity_slope_beats_the_inverting_difference_at_small_capacity(cap, y):
    # The derivative itself, by Richardson extrapolation of differences at
    # fixed load with steps h / 4 and h / 8.  Both differences at step h
    # err by O((h / C)^2), but the load-based one stays within 1e-7 of it
    # while the inverting one drifts to 0.6 % at C = 0.002.  (From C ~ 5 up
    # both are within 3e-10, and neither is reliably the closer.)
    family = get_family("erlang_b")
    ys, cs = np.array([y]), np.array([cap])
    rho = family.offered_at(ys, cs)

    def at_load(step):
        ends = family.integral_at_load(np.repeat(ys, 2), np.array([cap + step, cap - step]), np.repeat(rho, 2))
        return (ends[0] - ends[1]) / (2.0 * step)

    step = _FD_STEP_FLOOR
    exact = (4.0 * at_load(step / 8.0) - at_load(step / 4.0)) / 3.0
    library = family.capacity_slope(ys, cs, rho)[0]
    inverting = _inverting_supergradient(single_entity(1.0), cs, ys)[0]
    assert abs(library - exact) <= 1e-7 * exact
    assert abs(library - exact) <= abs(inverting - exact)


def _supergradient_slack(g, caps, other, phi_other):
    """What the inequality may miss by: the difference's error (1e-7 of each
    |g_j (C'_j - C_j)|, the bound the oracle checks hold it to) plus the fixed
    point's tolerance in phi."""
    return 1e-7 * float(np.abs(g) @ np.abs(other - caps)) + FIXED_POINT_TOL * (1.0 + abs(phi_other))


def _supergradient_excess(model, caps, other):
    sol = surrogate(model, CapacityAllocation(caps))
    g = supergradient(model, CapacityAllocation(caps), inner=sol)
    phi_other = surrogate(model, CapacityAllocation(other)).value
    return phi_other - sol.value - float(g @ (other - caps)), _supergradient_slack(g, caps, other, phi_other)


@given(
    source=st.sampled_from(DEMOS + tuple(range(200))),
    data=st.data(),
)
def test_supergradient_inequality(source, data):
    # phi(C') <= phi(C) + <g, C' - C> is what makes the Frank-Wolfe gap a
    # bound.  Every C_j > 0: at C_j = 0 g_j is the level y_j, a rule, not a
    # supergradient.  On the random models Erlang capacities are drawn at
    # 1 or more: below that phi is not concave on some of them (the xfail
    # case below); the demo models hold across their whole capacity box.
    if isinstance(source, str):
        model = demo_model(source)
        member_caps = np.where(incidence(model) > 0.0, model.physical_capacities()[None, :], np.inf)
        top, floor = member_caps.min(axis=1), np.zeros(model.m)
    else:
        model, alloc = random_small_instance(source)
        top = 2.0 * alloc.values
        floor = np.array([1.0 if lg.loss.kind == "erlang_b" else 0.0 for lg in model.logicals])
    shares = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=2 * model.m, max_size=2 * model.m)))
    caps, other = np.maximum(floor, top * shares[: model.m]), np.maximum(floor, top * shares[model.m :])
    excess, slack = _supergradient_excess(model, caps, other)
    assert excess <= slack


@pytest.mark.xfail(strict=True, reason="phi is not concave here: Erlang capacities below 1 on a shared flow")
def test_supergradient_inequality_below_unit_erlang_capacity():
    # seed 19: erlang_b l0, l1 and linear_clip l2; along this segment phi's
    # second differences turn positive while C_1 is below 0.3, and phi(C')
    # ends 2.2e-4 above the tangent.  g agrees there with phi's directional
    # derivative to 1e-8: it is phi, not g, that fails.
    model, _ = random_small_instance(19)
    caps = np.array([2.32614585, 0.18093376, 2.52312187])
    other = np.array([1.15180636, 0.3107133, 1.19932245])
    excess, slack = _supergradient_excess(model, caps, other)
    assert excess <= slack


def test_outer_loop_inverts_nothing(monkeypatch):
    # The supergradient reads H's capacity slope at the fixed point's load,
    # and zero-capacity entities invert nothing, so Frank-Wolfe on the demo
    # models never calls a family's inversion.  Iterations and probes are
    # those of the inverting supergradient it replaced.
    inversions = []
    for kind in ("erlang_b", "exp_overflow", "linear_clip"):
        family = get_family(kind)

        def counted(y, cap, invert=family.offered_at):
            inversions.append(y.size)
            return invert(y, cap)

        monkeypatch.setattr(family, "offered_at", counted)
    probes = {name: maximize_surrogate(demo_model(name))[1].probes for name in DEMOS}
    assert probes == {"reference_2x3": (1, 0), "symmetric_pair": (1, 2, 0), "three_potentials": (1, 0)}
    res = solve_reconfig(ReconfigProblem(demo_model("three_potentials"), 2.0))
    assert (res.trace_joint.probes, res.trace_final.probes) == ((1, 2, 0), (1, 0))
    assert res.trace_joint.converged and res.trace_final.converged
    assert inversions == []


def test_supergradient_names_the_entity_of_a_slope_that_is_not_finite(monkeypatch):
    model = demo_model("reference_2x3")
    family = get_family("erlang_b")
    monkeypatch.setattr(family, "capacity_slope", lambda y, cap, rho: np.where(np.arange(y.size) == 1, np.inf, 1.0))
    with pytest.raises(ValueError, match=r"^outer: erlang_b capacity slope at entity 'b' is inf, not finite$"):
        supergradient(model, CapacityAllocation([1.0, 1.0]))


def test_no_solver_path_calls_a_family_hook_on_an_empty_array(monkeypatch):
    # LossFamily's calling contract: the solvers call a hook only on its
    # family's entities, never with an empty array.  Each hook is wrapped on
    # the instance, as perfbench/tracer.py wraps them.
    family, sizes = get_family("erlang_b"), []

    def recording(name, hook):
        def wrapped(*args):
            sizes.append((name, min(np.size(a) for a in args)))
            return hook(*args)

        return wrapped

    for name in [name for name, attr in vars(LossFamily).items() if callable(attr) and not name.startswith("__")]:
        monkeypatch.setattr(family, name, recording(name, getattr(family, name)))
    model = three_potentials()
    maximize_surrogate(model)
    surrogate(model, CapacityAllocation(np.zeros(model.m)))
    assert {name for name, _ in sizes} >= {"blocking", "integral_at_load", "capacity_slope", "kink_load"}
    assert [call for call in sizes if call[1] == 0] == []


# --- line search ------------------------------------------------------------


def _search(phi, dphi):
    """Run the slope search on an analytic phi; returns (gamma, payload, probed gammas)."""
    probed = []

    def probe(gamma):
        probed.append(gamma)
        return phi(gamma), dphi(gamma), gamma

    gamma, payload, count = _slope_search(probe, phi(0.0), dphi(0.0))
    assert count == len(probed)
    return gamma, payload, probed


@pytest.mark.parametrize(
    "phi, dphi",
    [
        (lambda g: -((g - 0.3) ** 2), lambda g: -2.0 * (g - 0.3)),
        (lambda g: math.log1p(g) - g / 1.3, lambda g: 1.0 / (1.0 + g) - 1.0 / 1.3),
        (lambda g: -math.cosh(3.0 * (g - 0.3)), lambda g: -3.0 * math.sinh(3.0 * (g - 0.3))),
    ],
    ids=["quadratic", "log", "cosh"],
)
def test_slope_search_interior_maximizer(phi, dphi):
    gamma, payload, probed = _search(phi, dphi)
    assert abs(gamma - 0.3) <= LINE_SEARCH_TOL
    assert payload == gamma
    assert probed[0] == 1.0
    assert len(probed) <= 6


@pytest.mark.parametrize("peak", [1.0, 1.5])
def test_slope_search_full_step_takes_one_probe(peak):
    gamma, payload, probed = _search(lambda g: -((g - peak) ** 2), lambda g: -2.0 * (g - peak))
    assert probed == [1.0]
    assert gamma == payload == 1.0


def test_slope_search_without_improvement_stalls():
    # phi'(0) claims ascent, but every probe is worse than the start
    gamma, payload, probed = _search(lambda g: -g, lambda g: 1.0 if g == 0.0 else -1.0)
    assert gamma == 0.0
    assert payload == probed[-1]  # the last probe, for the caller's re-solve
    assert 1 <= len(probed) <= LINE_SEARCH_EVALS


def test_slope_search_trusts_values_over_a_wrong_slope():
    # the slope claims ascent everywhere, but phi peaks at 0.2; probes that
    # fall below phi(0) must still narrow the bracket from the right
    gamma, payload, probed = _search(lambda g: min(g, 0.4 - g), lambda g: 1.0)
    assert 0.0 < gamma < 0.4
    assert payload == gamma
    assert len(probed) <= LINE_SEARCH_EVALS


def test_slope_search_stops_at_a_kink():
    # phi' falls smoothly from 0.3 to 1.5e-4 and then jumps to -1.5 at a
    # kink, as on random_small_instance(7); regula falsi alone moves the
    # right end in slowly and spends the whole 40-probe budget there.
    kink, left, right, slope0 = 0.9314, 1.5e-4, -1.5, 0.3
    c = (slope0 - left) / kink

    def dphi(g):
        return left + c * (kink - g) if g < kink else right

    def phi(g):
        t = min(g, kink)
        return left * t + c * (kink * t - 0.5 * t * t) + right * max(g - kink, 0.0)

    gamma, payload, probed = _search(phi, dphi)
    assert payload == gamma
    assert len(probed) <= 16
    # the concavity bound the stop rests on
    assert phi(kink) - phi(gamma) <= LINE_SEARCH_TOL * min(slope0, 1.0 + phi(kink))


def test_frank_wolfe_never_certifies_an_unconverged_inner_solve(monkeypatch):
    model = single_entity(5.0, kind="erlang_b", phys_cap=10.0)
    _, trace = maximize_surrogate(model)
    assert trace.status == "converged" and trace.unconverged_inner == 0
    solves = [0]

    def unconverged(*args, **kwargs):
        solves[0] += 1
        return dataclasses.replace(surrogate(*args, **kwargs), converged=False)

    monkeypatch.setattr(sliceforge.outer, "surrogate", unconverged)
    _, trace = maximize_surrogate(model)
    assert trace.status == "inner_unconverged"
    assert not trace.converged
    assert trace.unconverged_inner == solves[0] > 0


def test_frank_wolfe_reports_stall(monkeypatch):
    # no load: phi is flat, so a supergradient that claims ascent finds no better probe
    model = single_entity(0.0, kind="linear_clip", phys_cap=4.0)
    monkeypatch.setattr(sliceforge.outer, "supergradient", lambda model, alloc, **_: np.ones(model.m))
    alloc, trace = maximize_surrogate(model)
    assert trace.status == "stalled"
    assert trace.steps == (0.0, 0.0)  # one re-solve at the iterate, then the stall
    assert trace.probes == (1, 1)
    assert alloc.values.tolist() == [0.0]


@pytest.mark.parametrize("seed, max_iters, floor", [(6, 500, 1.93), (7, 40, 1.33)])
def test_frank_wolfe_leaves_zero_capacity_kinks(seed, max_iters, floor):
    # Mixed loss families with entities at zero capacity: the supergradient
    # there claims an ascent phi lacks, and without the re-solve the search
    # stalls (seed 6 at phi = 0, seed 7 at 0.7077).  Golden section reached
    # 1.3371 on seed 7 after 240 iterations and stalled on seed 6.
    model, _ = random_small_instance(seed)
    _, trace = maximize_surrogate(model, max_iters=max_iters)
    assert trace.status != "stalled"
    assert 0.0 in trace.steps[:-1]
    assert trace.final_value >= floor


@pytest.mark.parametrize("seed, floor", [(9, 1.8932), (10, 0.35146)])
def test_frank_wolfe_converges_past_zero_capacity_kinks(seed, floor):
    # The slope at a zero capacity reads H_j at y_j, which phi leaves free
    # up to TOL there.  With every such y_j at the box end, seed 9 ran out
    # of iterations and seed 10 stalled at phi = 8e-45.
    model, _ = random_small_instance(seed)
    _, trace = maximize_surrogate(model)
    assert trace.converged
    assert trace.final_value >= floor


def _with_kind(model, kind):
    logicals = tuple(dataclasses.replace(lg, loss=LossSpec(kind)) for lg in model.logicals)
    return NetworkModel(physicals=model.physicals, logicals=logicals, flows=model.flows)


@pytest.mark.parametrize("name", ["reference_2x3", "symmetric_pair"])
def test_custom_families_solve(name):
    # A family that brings only blocking and survival takes every default
    # route, the zero-capacity price included, which must invert nothing:
    # at a small capacity such a family's load leaves the inversion
    # bracket.  The generic Erlang family solves as erlang_b does.
    model = demo_model(name)
    shipped, shipped_trace = maximize_surrogate(model)
    for generic in (_GenericErlang(), _GenericExpOverflow()):
        register_family(generic)
        alloc, trace = maximize_surrogate(_with_kind(model, generic.name))
        assert trace.converged
        if isinstance(generic, _GenericErlang):
            assert alloc.values == pytest.approx(shipped.values, rel=0.0, abs=GAP_TOL)
            assert trace.final_value == pytest.approx(shipped_trace.final_value, rel=GAP_TOL, abs=0.0)


@pytest.mark.parametrize("name", ["reference_2x3", "three_potentials"])
def test_demo_solve_takes_one_probe_per_step(name):
    _, trace = maximize_surrogate(load_model((MODELS / f"{name}.json").read_text()))
    assert trace.converged
    assert trace.probes == (1,) * (trace.iterations - 1) + (0,)


def test_symmetric_pair_probe_count():
    _, trace = maximize_surrogate(load_model((MODELS / "symmetric_pair.json").read_text()))
    assert trace.converged
    assert len(trace.probes) == trace.iterations
    assert sum(trace.probes) <= 8


def test_flat_pair_probes_converge_without_creeping(monkeypatch):
    # Frank-Wolfe zigzags across phi's kink at C_a = C_b, and its probes
    # there put a linear_clip entity's load just below its kink, with the
    # two capacities as little as 3.5e-9 apart.  Newton steps on the fixed
    # point cross that kink; with the damped fallback alone they crept, and
    # the 20 iterations took 10,525 evaluations of G and projected-Newton
    # steps over 261 probes.  Landing on the kink: 2,244 over 207.
    evaluations = []

    def counted(model, alloc, warm_start=None):
        sol = surrogate(model, alloc, warm_start=warm_start)
        evaluations.append(sol.iterations)
        return sol

    monkeypatch.setattr(sliceforge.outer, "surrogate", counted)
    _, trace = maximize_surrogate(flat_pair(0.75), max_iters=20)
    assert trace.unconverged_inner == 0
    assert sum(evaluations) <= 2244


# --- Frank-Wolfe ------------------------------------------------------------


def test_single_entity_takes_all_capacity():
    model = single_entity(5.0, kind="erlang_b", phys_cap=10.0)
    alloc, trace = maximize_surrogate(model)
    assert trace.status == "converged"
    assert alloc.values[0] == pytest.approx(10.0, rel=1e-6)


def test_symmetric_split_linear_clip():
    model = symmetric_pair(nu=8.0, phys_cap=10.0, kind="linear_clip")
    alloc, trace = maximize_surrogate(model)
    assert trace.status == "converged"
    assert alloc.values == pytest.approx([5.0, 5.0], rel=0.02)
    # phi = 2 (c + c log(nu/c)) at c = 5
    expect = 2.0 * (5.0 + 5.0 * math.log(8.0 / 5.0))
    assert trace.final_value == pytest.approx(expect, rel=1e-4)


def test_idle_entity_gets_nothing():
    model = NetworkModel(
        physicals=(PhysicalEntity("p", "u", 10.0),),
        logicals=(
            LogicalEntity("a", ("p",), LossSpec("linear_clip")),
            LogicalEntity("b", ("p",), LossSpec("linear_clip")),
        ),
        flows=(Flow("fa", 8.0, {"a": 1}), Flow("fb", 0.0, {"b": 1})),
    )
    alloc, trace = maximize_surrogate(model)
    assert alloc.values[0] == pytest.approx(10.0, rel=1e-4)
    assert alloc.values[1] == pytest.approx(0.0, abs=1e-3)
    assert trace.status == "converged"


def test_trace_invariants():
    model = symmetric_pair(nu=8.0, phys_cap=10.0, kind="linear_clip")
    alloc, trace = maximize_surrogate(model)
    vals = np.array(trace.values)
    scale = 1.0 + abs(trace.final_value)
    assert np.all(np.diff(vals) >= -1e-12 * scale)  # monotone with line search
    assert trace.certificate <= 1e-5 * scale
    assert trace.iterations == len(trace.values)
    assert trace.converged
    # iterates stay inside the polytope by construction; check the last one
    assert capacity_polytope(model).contains(alloc.values)


def test_gap_certificate_bounds_suboptimality():
    # concavity: optimum within certificate of the returned value; check
    # against a fine 1-D grid on the shared-capacity line
    model = symmetric_pair(nu=8.0, phys_cap=10.0, kind="linear_clip")
    alloc, trace = maximize_surrogate(model)
    nu = 8.0

    def phi_line(c1):
        total = 0.0
        for c in (c1, 10.0 - c1):
            total += c + c * math.log(nu / c) if 0 < c < nu else min(c, nu)
        return total

    best = max(phi_line(c) for c in np.linspace(0.01, 9.99, 999))
    assert best <= trace.final_value + trace.certificate + 1e-9


def test_budget_exhaustion_status():
    model = symmetric_pair(nu=8.0, phys_cap=10.0)
    alloc, trace = maximize_surrogate(model, max_iters=1)
    assert trace.status in ("max_iters", "stalled")
    assert len(trace.values) == 1
    assert capacity_polytope(model).contains(alloc.values)


def test_errors_name_the_layer():
    model = load_model((MODELS / "reference_2x3.json").read_text())
    # no iteration means no gap: refused, not certified as 0
    with pytest.raises(ValueError, match=r"^outer: max_iters must be at least 1, got 0$"):
        maximize_surrogate(model, max_iters=0)
    with pytest.raises(ValueError, match=r"^outer: polytope dimension 1 != m=2$"):
        maximize_surrogate(model, polytope=Polytope(np.ones((1, 1)), np.ones(1)))
    with pytest.raises(ValueError, match=r"^outer: allocation length 1 != m=2$"):
        supergradient(model, CapacityAllocation([1.0]))


def test_polytope_lp_and_reconfig_errors_name_the_layer(monkeypatch):
    cases = [
        ((np.ones(2), np.ones(2)), r"^outer: A_ub must be 2-D with one b_ub entry per row$"),
        ((np.full((1, 1), math.nan), np.ones(1)), r"^outer: polytope data must be finite$"),
        ((np.ones((1, 1)), -np.ones(1)), r"^outer: b_ub must be non-negative \(origin must be feasible\)$"),
        ((-np.ones((1, 1)), np.ones(1)), r"^outer: every variable needs a positive coefficient in some row$"),
    ]
    for data, message in cases:
        with pytest.raises(ValueError, match=message):
            Polytope(*data)
    square = Polytope(np.ones((1, 1)), np.ones(1))
    with pytest.raises(ValueError, match=r"^outer: objective must have shape \(1,\)$"):
        lp_solve(np.ones(2), square)
    with pytest.raises(ValueError, match=r"^outer: objective must be finite$"):
        lp_solve(np.array([math.inf]), square)
    # an unbounded polytope, past the checks that rule it out
    unbounded = Polytope(np.ones((1, 1)), np.ones(1))
    object.__setattr__(unbounded, "A_ub", -np.ones((1, 1)))
    with pytest.raises(SimplexError, match=r"^outer: unbounded direction; polytope invariant violated$"):
        lp_solve(np.ones(1), unbounded)
    # a cap of no pivot at all: `range` is the cap's loop
    with monkeypatch.context() as patched, pytest.raises(SimplexError, match=r"^outer: simplex iteration cap exceeded$"):
        patched.setattr(sliceforge.outer, "range", lambda *args: (), raising=False)
        lp_solve(np.ones(1), square)
    with pytest.raises(ValueError, match=r"^outer: reconfigurable substrate requires unit physical capacities$"):
        ReconfigProblem(load_model((MODELS / "reference_2x3.json").read_text()), 1.0)
    for budget in (0.0, 4.0):
        with pytest.raises(ValueError, match=r"^outer: budget must lie in \(0, 3\]$"):
            ReconfigProblem(three_potentials(), budget)


# --- reconfigurable substrate -----------------------------------------------


def test_reconfig_budget_validation():
    model = three_potentials()
    with pytest.raises(Exception):
        ReconfigProblem(model, 0.0)
    with pytest.raises(Exception):
        ReconfigProblem(model, 4.0)


def test_reconfig_full_budget_is_plain_solve():
    model = three_potentials(loads=(0.8, 0.5, 0.3))
    res = solve_reconfig(ReconfigProblem(model, 3.0))
    assert res.active.tolist() == [1.0, 1.0, 1.0]
    assert set(np.unique(res.active)) <= {0.0, 1.0}
    plain_alloc, plain = maximize_surrogate(model)
    assert res.value_rounded == pytest.approx(plain.final_value, rel=1e-4)


def test_reconfig_zero_load_tie_break():
    model = three_potentials(loads=(0.0, 0.0, 0.0))
    res = solve_reconfig(ReconfigProblem(model, 1.0))
    assert res.active.tolist() == [1.0, 0.0, 0.0]


def test_reconfig_selects_loaded_potential():
    # mirrors the enumeration-oracle case at unit scale but with the fast
    # family so this stays a quick check; the full oracle runs in acceptance
    model = NetworkModel(
        physicals=tuple(PhysicalEntity(f"p{i}", "unit", 1.0) for i in range(3)),
        logicals=tuple(
            LogicalEntity(f"l{i}", (f"p{i}",), LossSpec("linear_clip")) for i in range(3)
        ),
        flows=tuple(
            Flow(f"f{i}", nu, {f"l{i}": 1}) for i, nu in enumerate((3.0, 1.0, 1.0))
        ),
    )
    res = solve_reconfig(ReconfigProblem(model, 1.0))
    assert res.active.tolist() == [1.0, 0.0, 0.0]
    assert res.rounding_loss == pytest.approx(
        res.value_fractional - res.value_rounded, rel=1e-12
    )
    assert res.value_rounded <= res.value_fractional + 1e-9
    # selected-potential solve puts everything on the kept entity
    assert res.alloc.values[0] == pytest.approx(1.0, rel=1e-4)
    assert res.alloc.values[1] == pytest.approx(0.0, abs=1e-6)
    assert res.alloc.values[2] == pytest.approx(0.0, abs=1e-6)


class _Captured(Exception):
    pass


def _lifted_polytope(usage_map, budget):
    """The (C, P) relaxation: usage rows S^T C - P <= 0, P <= 1, 1^T P <= budget."""
    n, m = usage_map.shape
    a_ub = np.block(
        [
            [usage_map, -np.eye(n)],
            [np.zeros((n, m)), np.eye(n)],
            [np.zeros((1, m)), np.ones((1, n))],
        ]
    )
    return Polytope(a_ub, np.concatenate([np.zeros(n), np.ones(n), [budget]]))


def test_relaxed_polytope_is_the_projection_of_the_lifted_one(monkeypatch):
    # phi ignores P, and P = S^T C is the least lift of a feasible C, so an
    # LP over solve_reconfig's C-only polytope has the lifted LP's value.
    def capture(model_, polytope, max_iters):
        raise _Captured(polytope)

    monkeypatch.setattr(sliceforge.outer, "_frank_wolfe", capture)
    rng = np.random.default_rng(12)
    for _ in range(300):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        members = rng.random((m, n)) < 0.4
        members[np.arange(m), rng.integers(0, n, size=m)] = True
        model = NetworkModel(
            physicals=tuple(PhysicalEntity(f"p{k}", "unit", 1.0) for k in range(n)),
            logicals=tuple(
                LogicalEntity(f"l{i}", tuple(f"p{k}" for k in np.flatnonzero(row)), LossSpec("linear_clip"))
                for i, row in enumerate(members)
            ),
            flows=(Flow("f", 1.0, {"l0": 1}),),
        )
        budget = float(rng.uniform(0.5, n))
        with pytest.raises(_Captured) as caught:
            solve_reconfig(ReconfigProblem(model, budget))
        projected = caught.value.args[0]
        assert projected.A_ub.shape == (n + 1, m)
        lifted = _lifted_polytope(incidence(model).T, budget)
        objective = rng.normal(size=m) * (rng.random(m) < 0.7)  # zero and negative entries
        _, value = lp_solve(objective, projected)
        vertex, lifted_value = lp_solve(np.concatenate([objective, np.zeros(n)]), lifted)
        assert abs(value - lifted_value) <= 1e-12 * (1.0 + abs(lifted_value))
        assert projected.contains(vertex[:m])


@pytest.mark.parametrize(
    "budget, active, relaxed, alloc",
    [
        (1.0, [0.0, 0.0, 1.0], [0.294752354064679, 0.038474693105722275, 0.3335459056591974], [0.0, 0.0, 1.0]),
        (2.0, [1.0, 1.0, 0.0], [0.6989626944799571, 0.06882009700279275, 0.46443441703450045], [1.0, 0.0, 0.0]),
    ],
)
def test_reconfig_with_shared_members(budget, active, relaxed, alloc):
    # l0 spans p0 and p1, l1 spans p1 and p2: S != I, so the relaxation over
    # C alone is not a box with a budget row.  The expected values are those
    # of the lifted (C, P) relaxation that solve_reconfig used before; the
    # relaxed allocation is held only to the accuracy GAP_TOL leaves it.
    model = NetworkModel(
        physicals=tuple(PhysicalEntity(f"p{i}", "unit", 1.0) for i in range(3)),
        logicals=(
            LogicalEntity("l0", ("p0", "p1"), LossSpec("erlang_b")),
            LogicalEntity("l1", ("p1", "p2"), LossSpec("linear_clip")),
            LogicalEntity("l2", ("p2",), LossSpec("exp_overflow")),
        ),
        flows=(
            Flow("f0", 3.0, {"l0": 1}),
            Flow("f1", 0.6, {"l1": 1, "l2": 1}),
            Flow("f2", 0.8, {"l2": 1}),
        ),
    )
    res = solve_reconfig(ReconfigProblem(model, budget))
    assert res.trace_joint.converged and res.trace_final.converged
    assert res.active.tolist() == active
    assert res.trace_joint.final_alloc == pytest.approx(relaxed, rel=1e-6)
    assert res.alloc.values == pytest.approx(alloc, rel=1e-9, abs=1e-12)


def test_reconfig_budget_two_keeps_lowest_tied_index():
    # p1 and p2 carry equal loads, so their relaxed usages tie
    res = solve_reconfig(ReconfigProblem(three_potentials(), 2.0))
    assert res.active.tolist() == [1.0, 1.0, 0.0]


@pytest.mark.parametrize(
    "u1, u2, active",
    [
        (0.5 + 1e-9, 0.5 - 1e-9, [1.0, 1.0, 0.0]),
        (0.5 - 1e-9, 0.5 + 1e-9, [1.0, 1.0, 0.0]),
        (0.5000014, 0.5000016, [1.0, 1.0, 0.0]),  # straddles a half-step of a 1e-6 grid
        (0.5, 0.51, [1.0, 0.0, 1.0]),
    ],
)
def test_reconfig_rounding_ties_within_tolerance(monkeypatch, u1, u2, active):
    # usages within 1e-6 * max(1, max usage) of each other tie: lowest index wins
    model = three_potentials()
    solve = sliceforge.outer._frank_wolfe

    relaxed = []

    def perturbed(model_, polytope, max_iters):
        trace = solve(model_, polytope, max_iters)
        if polytope.A_ub.shape[0] == model_.n + 1:  # the relaxed solve; usage of p_i is C_i here
            relaxed.append(trace)
            trace = dataclasses.replace(trace, final_alloc=np.array([1.0, u1, u2]))
        return trace

    monkeypatch.setattr(sliceforge.outer, "_frank_wolfe", perturbed)
    res = solve_reconfig(ReconfigProblem(model, 2.0))
    assert len(relaxed) == 1  # the restricted re-solve (n rows) kept its answer
    assert res.active.tolist() == active
