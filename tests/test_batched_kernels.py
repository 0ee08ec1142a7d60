"""The batched utilization kernels: accuracy against an mpmath oracle,
batch/scalar agreement, inversion cost, and the one-call-per-family routes."""

import importlib
import json
import math
import os

import numpy as np
import pytest

import sliceforge as sf
from sliceforge import CapacityAllocation, LossSpec, utilization, utilization_integral, utilization_terms
from sliceforge.loss import get_family

from conftest import single_entity, symmetric_pair
from inner_oracle import NewtonBatch, projected_newton

erlang_module = importlib.import_module("sliceforge.erlang")
ERLANG = LossSpec("erlang_b")
EXP = LossSpec("exp_overflow")

with open(os.path.join(os.path.dirname(__file__), "erlang_oracle.json"), encoding="utf-8") as _fh:
    ORACLE = json.load(_fh)["rows"]
CAPS = np.array([float(row["cap"]) for row in ORACLE])
LEVELS = np.array([float(row["y"]) for row in ORACLE])

# Vectorised kernel evaluations one Erlang inversion takes, for any batch:
# one probe of the least normal load and the bracket cap together, then at
# most 63 bisection steps over the float bit patterns between them.
INVERSION_KERNEL_CALLS = 64


def test_erlang_terms_match_mpmath_oracle():
    h, _ = utilization_terms(ERLANG, LEVELS, CAPS)
    rho = get_family("erlang_b").offered_at(LEVELS, CAPS)
    bad = []
    for row, got_h, got_rho in zip(ORACLE, h, rho):
        want_h, want_rho = float(row["H"]), float(row["rho"])
        if not abs(got_h - want_h) <= max(2e-11 * abs(want_h), 1e-15):
            bad.append(f"H at C={row['cap']}, y={row['y']}: {got_h!r} vs {want_h!r}")
        # rho below 1e-300 (tiny caps at small y) resolves to 0 or thereabouts
        if not abs(got_rho - want_rho) <= max(1e-12 * want_rho, 1e-300):
            bad.append(f"rho at C={row['cap']}, y={row['y']}: {got_rho!r} vs {want_rho!r}")
    assert not bad, "\n".join(bad)


def test_batched_and_scalar_values_agree_bit_for_bit():
    h, u = utilization_terms(ERLANG, LEVELS, CAPS)
    for j, (y, cap) in enumerate(zip(LEVELS, CAPS)):
        assert utilization_integral(ERLANG, float(y), float(cap)) == h[j]
        assert utilization(ERLANG, float(y), float(cap)) == u[j]
    # a batch's values do not depend on its other members
    order = np.arange(LEVELS.size)[::-1]
    h_rev, u_rev = utilization_terms(ERLANG, LEVELS[order], CAPS[order])
    assert np.array_equal(h_rev, h[order]) and np.array_equal(u_rev, u[order])


def _count_kernel_calls(monkeypatch):
    calls = [0]
    kernel = erlang_module._erlang_log_rest

    def counted(rho, cap):
        calls[0] += 1
        return kernel(rho, cap)

    monkeypatch.setattr(erlang_module, "_erlang_log_rest", counted)
    return calls


def test_inversion_converges_within_fixed_kernel_calls(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    family = get_family("erlang_b")
    family.offered_at(LEVELS, CAPS)
    assert 0 < calls[0] <= INVERSION_KERNEL_CALLS
    # a dense 67 x 60 sweep of cap in [1e-3, 300] and y in [1e-8, ceiling]
    # as one batch: each element takes the steps it takes alone
    caps = np.concatenate([np.logspace(-3, math.log10(300.0), 60), [1.0, 2.0, 3.0, 5.0, 10.0, 50.0, 150.0]])
    ys = np.logspace(-8, np.log10(family.log_loss_ceiling(caps)), 60)
    calls[0] = 0
    family.offered_at(ys.ravel(), np.broadcast_to(caps, ys.shape).ravel())
    assert 0 < calls[0] <= INVERSION_KERNEL_CALLS


def test_inversion_is_exact_on_the_log_loss_curve():
    # -log(1 - B(rho(y))) == y to rounding, from low load to deep saturation
    family = get_family("erlang_b")
    for cap in (0.05, 0.7, 1.05, 3.0, 10.0, 150.0):
        for y in (1e-4, 0.3, 4.0, 0.99 * family.log_loss_ceiling(cap)):
            rho = family.offered_at(np.array([y]), np.array([cap]))
            back = -math.log(family.survival(rho, np.array([cap]))[0])
            assert back == pytest.approx(y, rel=1e-13)


def test_exp_overflow_tiny_levels_stay_finite():
    family = get_family("exp_overflow")
    for y in (1e-17, 1e-300):
        rho = family.offered_at(np.array([y]), np.array([2.0]))[0]
        for value in (rho, utilization(EXP, y, 2.0), utilization_integral(EXP, y, 2.0)):
            assert math.isfinite(value) and value >= 0.0
    # large levels keep their precision: rho = C / -log(1 - e^-y) ~ C e^y
    assert family.offered_at(np.array([50.0]), np.array([2.0]))[0] == pytest.approx(2.0 * math.exp(50.0), rel=1e-12)
    model = single_entity(3.0, kind="exp_overflow")
    sol = sf.surrogate(model, CapacityAllocation(np.array([2.0])), warm_start=np.array([1e-17]))
    assert sol.converged and math.isfinite(sol.value)


def test_fixed_point_calls_loss_once_per_family(monkeypatch):
    calls = []
    for kind in ("erlang_b", "linear_clip", "exp_overflow"):
        family = type(get_family(kind))

        def counted(self, rho, cap, real=family.blocking, kind=kind):
            calls.append(kind)
            return real(self, rho, cap)

        monkeypatch.setattr(family, "blocking", counted)
    model = sf.NetworkModel(
        physicals=(sf.PhysicalEntity("p", "unit", 20.0),),
        logicals=tuple(
            sf.LogicalEntity(f"l{i}", ("p",), LossSpec(kind))
            for i, kind in enumerate(("erlang_b", "linear_clip", "erlang_b", "exp_overflow"))
        ),
        flows=(sf.Flow("f", 4.0, {"l0": 1, "l1": 1, "l2": 1, "l3": 2}),),
    )
    state = sf.solve_fixed_point(model, CapacityAllocation(np.array([3.0, 4.0, 5.0, 6.0])))
    assert state.converged
    # one blocking-kernel call per family for every evaluation of G, the
    # last of which also gives the state's blocking
    assert len(calls) == 3 * state.iterations
    assert calls[:3] == ["erlang_b", "linear_clip", "exp_overflow"]


def test_gradient_reuses_the_objective_inversion(monkeypatch):
    family = get_family("erlang_b")
    inversions = [0]
    objectives = [0, 0]  # calls, inversions inside them
    gradient_inversions = [0]
    real_offered, real_objective, real_gradient = family.offered_at, NewtonBatch.objective, NewtonBatch.gradient

    def offered(*args, **kwargs):
        inversions[0] += 1
        return real_offered(*args, **kwargs)

    def objective(*args, **kwargs):
        before = inversions[0]
        value = real_objective(*args, **kwargs)
        objectives[0] += 1
        objectives[1] += inversions[0] - before
        return value

    def gradient(*args, **kwargs):
        before = inversions[0]
        grad = real_gradient(*args, **kwargs)
        gradient_inversions[0] += inversions[0] - before
        return grad

    monkeypatch.setattr(family, "offered_at", offered)
    monkeypatch.setattr(NewtonBatch, "objective", objective)
    monkeypatch.setattr(NewtonBatch, "gradient", gradient)
    sol = projected_newton(symmetric_pair(), CapacityAllocation(np.array([4.0, 6.0])))
    assert sol.converged and sol.iterations > 0 and objectives[0] > 0
    # one batched inversion per objective evaluation, none for the gradients
    # (the Hessian's reading of U at 1e-12 for coordinates at y = 0 is its own)
    assert objectives[1] == objectives[0]
    assert gradient_inversions[0] == 0


def test_measure_batches_like_scalar_calls():
    blocking = np.array([0.0, 1e-6, 0.05, 0.4, 0.9, 0.3])
    caps = np.array([2.0, 0.7, 3.0, 12.0, 1.05, 0.0])
    for kind in ("erlang_b", "linear_clip", "exp_overflow"):
        spec = LossSpec(kind)
        batch = sf.utilization_measure(spec, blocking, caps)
        singles = [sf.utilization_measure(spec, float(b), float(c)) for b, c in zip(blocking, caps)]
        assert batch.tolist() == singles
        assert batch[0] == 0.0 and batch[-1] == 0.0
