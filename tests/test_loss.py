import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import sliceforge
from sliceforge import (
    InversionError,
    LossDomainError,
    LossSpec,
    log_loss_ceiling,
    loss,
    loss_kinds,
    register_family,
    utilization,
    utilization_integral,
    utilization_measure,
    utilization_terms,
)
from sliceforge.fixedpoint import Y_CAP
from sliceforge.loss import _HEAD_T, _HEAD_W, _TAIL_T, _TAIL_W, RHO_BRACKET_CAP, LossFamily, _erlang_headroom, get_family

from conftest import erlang_recursion
from inner_oracle import utilization_slope
from quad_oracle import oracle_measure

ERLANG = LossSpec("erlang_b")
LINEAR = LossSpec("linear_clip")
EXP = LossSpec("exp_overflow")
ALL = (ERLANG, LINEAR, EXP)


def test_registry_lists_shipped_kinds():
    assert set(loss_kinds()) >= {"erlang_b", "linear_clip", "exp_overflow"}
    with pytest.raises(Exception):
        LossSpec("no_such_family")


def test_pinned_values():
    assert loss(ERLANG, 1.0, 1.0) == pytest.approx(0.5, abs=1e-9)
    assert loss(LINEAR, 2.0, 1.0) == 0.5
    assert loss(LINEAR, 1.0, 2.0) == 0.0
    assert loss(EXP, 2.0, 2.0) == pytest.approx(math.exp(-1.0))
    for spec in ALL:
        assert loss(spec, 0.0, 3.0) == 0.0
    assert loss(ERLANG, 2.0, 0.0) == 1.0


def test_erlang_matches_integer_recursion():
    for nu in (0.5, 2.0, 10.0):
        for c in (1, 5, 20):
            assert loss(ERLANG, nu, float(c)) == pytest.approx(
                erlang_recursion(nu, c), abs=1e-6
            )


def test_axiom_grid():
    rhos = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
    caps = np.array([0.5, 1.0, 2.5, 7.0, 15.0, 30.0])
    for spec in ALL:
        b = loss(spec, rhos[:, None], caps[None, :])
        assert np.all(b >= 0.0) and np.all(b <= 1.0)
        # nondecreasing in load, nonincreasing in capacity
        assert np.all(np.diff(b, axis=0) >= -1e-12)
        assert np.all(np.diff(b, axis=1) <= 1e-12)


def test_blocking_broadcasts_like_scalars():
    rhos = np.linspace(0.2, 8.0, 7)
    for spec in ALL:
        vec = loss(spec, rhos, 3.0)
        scalars = [loss(spec, float(r), 3.0) for r in rhos]
        assert vec == pytest.approx(scalars, rel=1e-13)


def test_survival_scalar_agrees_with_vector_path():
    for spec in ALL:
        fam = get_family(spec.kind)
        for rho in (0.3, 1.0, 4.0, 40.0, 400.0):
            for cap in (0.5, 2.0, 10.0):
                vec = fam.survival(np.array([rho]), np.array([cap]))[0]
                assert fam.survival_scalar(rho, cap) == pytest.approx(vec, rel=1e-9, abs=1e-300)


def test_domain_errors():
    # every message names the layer, and the family where one is known
    with pytest.raises(LossDomainError, match=r"^loss: erlang_b load and capacity must be >= 0$"):
        loss(ERLANG, -1.0, 1.0)
    with pytest.raises(LossDomainError, match=r"^loss: erlang_b load and capacity must be finite$"):
        loss(ERLANG, float("nan"), 1.0)
    with pytest.raises(LossDomainError, match=r"^loss: erlang_b log-loss level must be finite and >= 0$"):
        utilization(ERLANG, -0.1, 1.0)
    with pytest.raises(LossDomainError, match=r"^loss: exp_overflow capacity must be finite and >= 0$"):
        utilization_terms(EXP, 0.1, -1.0)
    with pytest.raises(LossDomainError, match=r"^loss: erlang_b blocking must lie in \[0, 1\)$"):
        utilization_measure(ERLANG, 1.0, 1.0)
    with pytest.raises(LossDomainError, match=r"^loss: linear_clip blocking must lie in \[0, 1\)$"):
        utilization_measure(LINEAR, -0.2, 1.0)
    with pytest.raises(LossDomainError, match=r"^loss: unknown loss kind 'pareto'$"):
        LossSpec("pareto")
    with pytest.raises(LossDomainError, match=r"^loss: a loss family must carry a non-empty name$"):
        register_family(type("Nameless", (LossFamily,), {"name": ""})())
    with pytest.raises(InversionError, match=r"^loss: erlang_b offered load above 1e\+12 at this log-loss level$"):
        utilization(ERLANG, 40.0, 1.0)


def test_log_loss_round_trip():
    # -log(1 - F(rho(y), C)) == y wherever F is strictly increasing
    for spec, caps in ((ERLANG, (1.0, 5.0)), (EXP, (1.0, 4.0))):
        fam = get_family(spec.kind)
        for cap in caps:
            for y in (0.1, 0.7, 1.5, 3.0):
                rho = fam.offered_at(np.array([y]), np.array([cap]))[0]
                back = -math.log(fam.survival_scalar(rho, cap))
                assert back == pytest.approx(y, abs=1e-8)


def test_utilization_closed_forms():
    for y in (0.0, 0.3, 1.0, 5.0):
        assert utilization(LINEAR, y, 3.5) == pytest.approx(3.5, rel=1e-8)
    assert utilization(ERLANG, 0.0, 4.0) == 0.0
    # exp_overflow at y = log 2: rho = C / log 2, so U = C / (2 log 2)
    for cap in (1.0, 2.0, 7.0):
        assert utilization(EXP, math.log(2.0), cap) == pytest.approx(
            cap / (2.0 * math.log(2.0)), rel=1e-8
        )


def test_linear_clip_rejects_a_level_whose_load_overflows():
    # H = C y and U = C hold exactly while rho = C e^y is a float; past
    # that the level has no load, and the terms raise rather than return
    # U = inf * 0.  Zero capacity keeps rho = 0 at every level.
    assert utilization_terms(LINEAR, 700.0, 1.0) == (700.0, 1.0)
    assert utilization_terms(LINEAR, 800.0, 0.0) == (0.0, 0.0)
    with pytest.raises(InversionError, match="overflows"):
        utilization_terms(LINEAR, 800.0, 1.0)
    with pytest.raises(InversionError, match="overflows"):
        utilization_integral(LINEAR, np.array([1.0, 800.0]), 2.0)


def test_exp_overflow_rejects_a_level_whose_load_overflows():
    # rho = -C / log(1 - e^-y) ~ C e^y is no float past y ~ 709.8, and past
    # y ~ 745 e^-y rounds to 0, so the division would be by -0.0.  There the
    # terms raise instead of warning and returning (inf, nan).
    # H = E1(e^-y) = y - Euler's gamma to rounding at C = 1
    h, u = utilization_terms(EXP, 700.0, 1.0)
    assert h == pytest.approx(700.0 - 0.5772156649015329, rel=1e-12)
    assert u == pytest.approx(1.0, rel=1e-12)
    assert utilization_terms(EXP, 800.0, 0.0) == (0.0, 0.0)
    for y in (710.0, 745.0, 800.0):
        with pytest.raises(InversionError, match="^loss: exp_overflow offered load overflows"):
            utilization_terms(EXP, y, 1.0)
    with pytest.raises(InversionError, match="overflows"):
        utilization_integral(EXP, np.array([1.0, 800.0]), 2.0)


def test_erlang_inversion_at_subnormal_log_loss():
    # y = 4.3e-322 came out of the inner solver's cusp arc.  There
    # rest = S/B ~ 1/y overflows exp(), so the inversion must not form it.
    # At this load B ~ rho^C / C!, and y carries only a few digits.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for cap in (2.0, 10.0):
            low_load = math.exp((math.log(4.3e-322) + math.lgamma(cap + 1.0)) / cap)
            assert utilization(ERLANG, 4.3e-322, cap) == pytest.approx(low_load, rel=2e-3)


def test_erlang_inversion_resolves_loads_below_its_floor_to_zero():
    # At these (y, cap) rho(y) lies far below the least normal load the
    # inversion probes (about 5e-406 at cap = 1e-3), though the bound
    # rho <= cap e^y does not show it.  A load floor is no load of level
    # y, and taken as one gave H = -1.1e-301.
    family = get_family("erlang_b")
    rho = family.offered_at(np.array([0.5, 1.0, 0.5]), np.array([1e-3, 1e-20, 1.0]))
    assert rho[:2].tolist() == [0.0, 0.0]
    assert rho[2] == pytest.approx(math.expm1(0.5), rel=1e-12)  # B = rho / (1 + rho) at cap = 1
    for y, cap in ((0.5, 1e-3), (1.0, 1e-20)):
        assert utilization_terms(ERLANG, y, cap) == (0.0, 0.0)


def test_erlang_levels_past_the_bracket_raise_the_one_bracket_error():
    # A level resolves exactly where its load is at most RHO_BRACKET_CAP,
    # that is up to the log-loss there (28.6 at C = 0.4, 27.6 at C = 1,
    # 25.2 at C = 11); every level past it raises the one bracket error.
    family = get_family("erlang_b")
    ys = np.arange(24.0, 80.0, 0.5)
    for cap in (0.4, 1.0, 11.0):
        top = -math.log(family.survival_scalar(RHO_BRACKET_CAP, cap))
        inside = ys <= top
        assert 100 <= np.count_nonzero(~inside) < ys.size
        assert np.all(utilization(ERLANG, ys[inside], cap) * np.exp(ys[inside]) <= RHO_BRACKET_CAP)
        for y in ys[~inside]:
            with pytest.raises(InversionError, match=r"^loss: erlang_b offered load above 1e\+12 at this log-loss level$"):
                utilization(ERLANG, float(y), cap)


def test_erlang_inversion_keeps_digits_at_subnormal_y():
    # A subnormal log-loss l keeps few digits, so the inversion compares
    # log-odds, log(B / S) <= log(e^y - 1), never l itself; U then follows
    # the low-load form (y Gamma(C+1))^(1/C), exact here to far below 1e-12.
    for y in (5e-324, 4.3e-322):
        for cap in (2.0, 10.0):
            low_load = math.exp((math.log(y) + math.lgamma(cap + 1.0)) / cap)
            assert utilization(ERLANG, y, cap) == pytest.approx(low_load, rel=1e-12, abs=0.0)


def test_utilization_monotone_in_capacity():
    for spec in ALL:
        for y in (0.2, 1.0, 2.5):
            vals = [utilization(spec, y, c) for c in (0.5, 1.0, 2.0, 4.0, 8.0)]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_measure_boundaries_and_monotonicity():
    for spec in ALL:
        assert utilization_measure(spec, 0.0, 3.0) == 0.0
        vals = [utilization_measure(spec, b, 3.0) for b in (0.05, 0.2, 0.5, 0.9)]
        assert vals[0] >= 0.0
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_measure_linear_clip_closed_form():
    # constant integrand U = C gives -C log(1 - B)
    for cap in (0.5, 2.0, 9.0):
        for b in (0.1, 0.5, 0.8):
            assert utilization_measure(LINEAR, b, cap) == pytest.approx(
                -cap * math.log1p(-b), rel=1e-6
            )
    assert utilization_measure(LINEAR, 0.5, 2.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-6)


def test_measure_matches_integral_parameterization():
    # same quantity through B = 1 - e^(-y).  The oracle is the loose
    # z-space quadrature whose panel acceptance is judged against a global
    # tolerance, so its total error is ~(accepted panels) x rel_tol; the
    # integral route is the tight per-family path (verified to 1e-13
    # against scipy.quad on the exp_overflow closed form).
    for spec in ALL:
        for cap in (0.8, 3.0):
            for y in (0.2, 1.0, 2.0):
                via_b = oracle_measure(spec, -math.expm1(-y), cap)
                via_y = utilization_integral(spec, y, cap)
                assert via_y == pytest.approx(via_b, rel=5e-5, abs=5e-8)


def test_integral_against_trapezoid_of_pointwise_utilization():
    # independent route: sample U(z) by bisection inversion, one batch per
    # case (test_batched_and_scalar_values_agree_bit_for_bit pins a batch to
    # its scalar calls), and integrate crudely
    for spec, cap, y in (
        (ERLANG, 4.0, 1.2),
        (ERLANG, 0.7, 0.8),
        (EXP, 2.0, 1.5),
        (LINEAR, 3.0, 2.0),
    ):
        zs = np.linspace(1e-9, y, 4001)
        us = utilization(spec, zs, cap)
        crude = float(np.trapezoid(us, zs))
        assert utilization_integral(spec, y, cap) == pytest.approx(crude, rel=5e-3)


def test_ceiling_is_usable():
    assert math.isinf(log_loss_ceiling(LINEAR, 5.0))
    ceil = log_loss_ceiling(ERLANG, 5.0)
    assert math.isfinite(ceil) and ceil > 0.0
    # just below the ceiling the inversion still works
    assert utilization(ERLANG, 0.99 * ceil, 5.0) >= 0.0


def test_ceiling_of_a_capacity_array_is_the_scalar_formula_bit_for_bit():
    caps = np.array([0.0, 1e-12, 0.3, 5.0, 1e9])
    want = [max(1e-3, math.log(1e10 / max(c, 1e-10))) for c in caps.tolist()]
    assert log_loss_ceiling(ERLANG, caps).tolist() == want
    assert [log_loss_ceiling(ERLANG, c) for c in caps.tolist()] == want
    assert log_loss_ceiling(ERLANG, caps.reshape(5, 1)).shape == (5, 1)
    for spec in (LINEAR, EXP):
        assert np.isinf(log_loss_ceiling(spec, caps)).all()


@pytest.mark.parametrize("spec", ALL, ids=lambda spec: spec.kind)
@pytest.mark.parametrize("cap", [-1.0, math.nan, math.inf, np.array([5.0, -1e-300])], ids=["neg", "nan", "inf", "array"])
def test_ceiling_rejects_a_capacity_outside_its_domain(spec, cap):
    with pytest.raises(LossDomainError, match=rf"^loss: {spec.kind} capacity must be finite and >= 0$"):
        log_loss_ceiling(spec, cap)


@pytest.mark.parametrize("spec", ALL, ids=lambda spec: spec.kind)
def test_utilization_slope_matches_central_differences(spec):
    eps = np.finfo(float).eps
    for cap in (0.0, 0.4, 2.5, 11.0):
        top = min(log_loss_ceiling(spec, cap), Y_CAP) - 1e-3
        for y in (1e-12, 1e-6, 0.3, 3.0, top):
            h = 1e-4 * y  # relative, so the y^(1/cap) cusp is resolved
            fd = (utilization(spec, y + h, cap) - utilization(spec, y - h, cap)) / (2 * h)
            slope = utilization_slope(spec, y, cap)
            assert slope >= 0.0
            # In saturation cap - U cancels: the closed forms are then good
            # to U's rounding, amplified by rho = U e^y.
            rho = utilization(spec, y, cap) * math.exp(y)
            assert slope == pytest.approx(fd, rel=1e-6, abs=64 * eps * cap * rho)


class _Capped(LossFamily):
    """Deliberately non-saturating: F never reaches 1."""

    name = "capped_test_only"

    def blocking(self, rho, cap):
        rho = np.asarray(rho, dtype=float)
        return np.minimum(0.5, rho / (1.0 + rho + cap))


def test_custom_family_registration_and_saturation_contract():
    register_family(_Capped())
    spec = LossSpec("capped_test_only")
    assert loss(spec, 3.0, 1.0) <= 0.5
    # y above the family's reachable log-loss: inversion must refuse,
    # alone or as one element of a batch that is otherwise reachable
    with pytest.raises(InversionError, match=r"^loss: capped_test_only offered load above 1e\+12 at this log-loss level$"):
        utilization(spec, 2.0, 1.0)
    assert np.all(np.isfinite(utilization(spec, np.array([0.1, 0.3]), np.array([1.0, 4.0]))))
    with pytest.raises(InversionError, match="offered load above 1e"):
        utilization(spec, np.array([0.1, 2.0, 0.3]), np.array([1.0, 1.0, 4.0]))


class _GenericExpOverflow(LossFamily):
    """exp_overflow's formula with no inversion or integral of its own."""

    name = "generic_exp_overflow_test_only"

    def blocking(self, rho, cap):
        rho, cap = np.broadcast_arrays(np.asarray(rho, dtype=float), np.asarray(cap, dtype=float))
        with np.errstate(divide="ignore"):
            return np.where(rho > 0.0, np.exp(-cap / np.where(rho > 0.0, rho, 1.0)), 0.0)

    def survival(self, rho, cap):
        rho, cap = np.broadcast_arrays(np.asarray(rho, dtype=float), np.asarray(cap, dtype=float))
        return np.where(rho > 0.0, -np.expm1(-cap / np.where(rho > 0.0, rho, 1.0)), 1.0)


class _GenericErlang(LossFamily):
    """Erlang-B kernels with no inversion or integral of their own."""

    name = "generic_erlang_b_test_only"

    def blocking(self, rho, cap):
        return get_family("erlang_b").blocking(rho, cap)

    def survival(self, rho, cap):
        return get_family("erlang_b").survival(rho, cap)


def test_default_capacity_slope_matches_shipped_families():
    # The default dH/dcap: a difference of the H quadrature at fixed load
    # at cap > 0, the level y itself at cap = 0 (the slope of the bound
    # H(y, cap) <= cap y), which inverts nothing.  exp_overflow's closed
    # forms hold the difference to the quadrature's accuracy (3e-7 at
    # cap = 0.4: e^(-cap/s) is not the s^cap head the default rules are
    # built for), and its exact slope at cap = 0 lies below y; erlang_b
    # uses the default.
    levels = {EXP: [0.0, 0.01, 0.3, 1.0, 3.0, 8.0, 15.0], ERLANG: [0.0, 0.01, 0.3, 1.0, 3.0, 8.0, 15.0, 25.0, 32.0]}
    for generic, shipped in ((_GenericExpOverflow(), EXP), (_GenericErlang(), ERLANG)):
        y, cap = (a.ravel() for a in np.meshgrid(levels[shipped], [0.0, 0.4, 1.5, 11.0]))
        family = get_family(shipped.kind)
        y = np.minimum(y, family.log_loss_ceiling(cap))
        rho = family.offered_at(y, cap)
        ref = family.capacity_slope(y, cap, rho)
        got = generic.capacity_slope(y, cap, rho)
        assert np.all(got[y == 0.0] == 0.0)
        positive = cap > 0.0
        assert got[positive] == pytest.approx(ref[positive], rel=1e-6, abs=1e-300)
        assert got[~positive].tolist() == y[~positive].tolist()
        assert np.all(ref[~positive] <= got[~positive])


def test_default_utilization_terms_match_shipped_families():
    # The default route (bisection inversion, then fixed rules over the
    # blocking curve) must reproduce the shipped closed form and the
    # inversion on erlang_b's own log-odds, from the s^cap head at tiny y
    # to deep saturation, with y = 0 and C = 0 elements in the same batch.
    y, cap = (a.ravel() for a in np.meshgrid([0.0, 1e-6, 0.01, 0.3, 1.0, 3.0, 8.0], [0.0, 0.01, 0.032, 0.4, 1.5, 2.0, 11.0]))
    zero = y == 0.0
    for generic, shipped in ((_GenericExpOverflow(), EXP), (_GenericErlang(), ERLANG)):
        register_family(generic)
        h, u = utilization_terms(LossSpec(generic.name), y, cap)
        h_ref, u_ref = utilization_terms(shipped, y, cap)
        assert h == pytest.approx(h_ref, rel=1e-12, abs=0.0)
        assert u[~zero] == pytest.approx(u_ref[~zero], rel=1e-8, abs=0.0)
        # Both curves rise from 0, so rho(0) = 0 as in the closed forms,
        # not the load where the log-loss rounds to 0.
        assert u[zero].tolist() == u_ref[zero].tolist()


def test_default_inversion_keeps_a_zero_loss_plateau():
    # linear_clip's formula on the default route: F = 0 on [0, C], so the
    # sup convention puts rho(0) at C, as the closed form does, while a
    # zero capacity blocks everything and gives rho = 0 at every level.
    class GenericClip(LossFamily):
        name = "generic_linear_clip_test_only"

        def blocking(self, rho, cap):
            return get_family("linear_clip").blocking(rho, cap)

        def survival(self, rho, cap):
            return get_family("linear_clip").survival(rho, cap)

    register_family(GenericClip())
    y, cap = (a.ravel() for a in np.meshgrid([0.0, 0.3, 2.0], [0.0, 0.4, 2.0, 11.0]))
    u = utilization(LossSpec(GenericClip.name), y, cap)
    assert u == pytest.approx(cap, rel=1e-12, abs=0.0)


def test_default_inversion_batches_survival_calls():
    # Each bisection step makes one survival() call for every unfinished
    # element, so a batch costs what its costliest element costs alone,
    # plus one call for the integral's tail rule; and each element's
    # values are those it gets alone, bit for bit.
    calls = [0]

    class Counted(_GenericErlang):
        name = "counted_erlang_b_test_only"

        def survival(self, rho, cap):
            calls[0] += 1
            return super().survival(rho, cap)

    register_family(Counted())
    spec = LossSpec(Counted.name)
    y, cap = np.linspace(0.05, 6.0, 50), np.tile([0.4, 1.5, 2.0, 5.0, 11.0], 10)
    alone, h_alone, u_alone = [], [], []
    for j in range(y.size):
        calls[0] = 0
        h, u = utilization_terms(spec, y[j : j + 1], cap[j : j + 1])
        alone.append(calls[0])
        h_alone.append(h[0])
        u_alone.append(u[0])
    calls[0] = 0
    h, u = utilization_terms(spec, y, cap)
    batch = calls[0]
    assert batch <= max(alone) + 1
    assert h.tolist() == h_alone and u.tolist() == u_alone
    # A zero capacity, and y = 0 on a curve rising from 0, resolve to
    # rho = 0 without bisecting: neither costs the batch more than a call.
    for extra_y, extra_cap in ((0.5, 0.0), (0.0, 0.4)):
        calls[0] = 0
        h, u = utilization_terms(spec, np.append(y, extra_y), np.append(cap, extra_cap))
        assert calls[0] <= batch + 1
        assert (h[-1], u[-1]) == (0.0, 0.0)
        assert h[:-1].tolist() == h_alone and u[:-1].tolist() == u_alone


def test_default_inversion_makes_at_most_64_survival_calls():
    # One call probes the least normal load and the bracket cap, then each
    # of at most 63 bisection steps over the float bit patterns between
    # them makes one call for the whole batch, whatever its size and its
    # mix of levels and capacities (zero capacities, y = 0 and loads
    # down to 1e-300 included).
    calls = [0]

    class Counted(_GenericErlang):
        def survival(self, rho, cap):
            calls[0] += 1
            return super().survival(rho, cap)

    rng = np.random.default_rng(3)
    cap = 10.0 ** rng.uniform(-3.0, 2.5, 1000)
    y = np.minimum(30.0, log_loss_ceiling(ERLANG, cap) * 10.0 ** rng.uniform(-10.0, 0.0, cap.size))
    cap[:50], y[50:100] = 0.0, 0.0
    for n in (1, 7, cap.size):
        calls[0] = 0
        Counted().offered_at(y[-n:], cap[-n:])
        assert calls[0] <= 64
    calls[0] = 0
    rho = Counted().offered_at(y, cap)
    assert calls[0] <= 64
    assert rho[:100].tolist() == [0.0] * 100


def _log_odds_at(family, rho, cap):
    with np.errstate(over="ignore"):  # cap / rho overflows at the least normal load
        return float(family.log_odds(np.array([rho]), np.array([cap]))[0])


@settings(max_examples=400)
@given(
    family=st.sampled_from([_GenericErlang(), _GenericExpOverflow()]),
    log_cap=st.floats(-3.0, math.log10(300.0)),
    log_frac=st.floats(-300.0, 0.0),
)
def test_default_inversion_is_the_largest_float_at_or_below_the_level(family, log_cap, log_frac):
    # The default inverse is exact in the comparison it makes,
    # log(F / (1 - F)) <= log(e^y - 1), taken as y + log(1 - e^(-y)): where
    # rho > 0 the log-odds is at or below that level at rho and above it
    # one float up; rho = 0 only where the least normal load is already
    # above it.  (The same statement in log-loss form fails by one float
    # at C = 1, y = log(1e10), where -log(1 - F) rounds differently.)
    cap = 10.0**log_cap
    y = min(30.0, log_loss_ceiling(ERLANG, cap)) * 10.0**log_frac
    level = y + math.log(-math.expm1(-y))
    rho = family.offered_at(np.array([y]), np.array([cap]))[0]
    if rho > 0.0:
        assert _log_odds_at(family, rho, cap) <= level < _log_odds_at(family, np.nextafter(rho, np.inf), cap)
    else:
        assert _log_odds_at(family, np.finfo(float).tiny, cap) > level


# Capacities on every branch of the head's power p = ceil(5 / (1 + cap)):
# p = 5, 4, 3, 2 below cap = 4, and p = 1 at integer cap and at cap >= 4.
HEAD_CAPS = np.array([1e-4, 0.2, 0.3, 0.7, 1.0, 1.5, 2.0, 2.5, 3.0, 3.7, 4.0, 4.5, 10.0, 150.0])


def test_blocking_head_is_one_rule_of_64_nodes_per_entity():
    # Every head is the one 64-node rule under s = x t^p: a single
    # blocking() call of 64 n nodes for n entities, at any mix of
    # capacities.
    sizes = []

    class Spied(_GenericErlang):
        name = "spied_erlang_b_test_only"

        def blocking(self, rho, cap):
            sizes.append(rho.size)
            return super().blocking(rho, cap)

    family = Spied()
    for cap in (HEAD_CAPS[:1], HEAD_CAPS[1:2], HEAD_CAPS[4:6], HEAD_CAPS, HEAD_CAPS[::-1]):
        sizes.clear()
        family._blocking_head(np.maximum(1.0, cap), cap)
        assert sizes == [_TAIL_T.size * cap.size]


def test_blocking_head_at_integer_and_large_caps_is_the_plain_rule():
    # At integer cap and at cap >= 4 the head's power is 1, and its table
    # row is the rule itself, not renormalized: each head there is
    # x (B(x T) W).sum() bit for bit, alone or batched with the other
    # branches.
    assert _HEAD_T[0].tolist() == _TAIL_T.tolist() and _HEAD_W[0].tolist() == _TAIL_W.tolist()
    family = get_family("erlang_b")
    x = np.maximum(1.0, HEAD_CAPS)
    head = family._blocking_head(x, HEAD_CAPS)
    plain = (HEAD_CAPS == np.floor(HEAD_CAPS)) | (HEAD_CAPS >= 4.0)
    assert plain.sum() == 7
    for j in np.flatnonzero(plain):
        b = family.blocking(x[j] * _TAIL_T, np.full(_TAIL_T.size, HEAD_CAPS[j]))
        assert head[j] == x[j] * (b * _TAIL_W).sum()


def test_head_weight_rows_sum_to_one():
    # Rows p >= 2 are renormalized: the head is subtracted from rho B, and
    # at small cap that cancellation magnifies a weight sum's error by
    # ~1/cap (unnormalized rows sum to 1 +- 1.3e-15).  Nodes are t^p.
    assert _HEAD_T.shape == _HEAD_W.shape == (5, _TAIL_T.size)
    for p, (nodes, weights) in enumerate(zip(_HEAD_T, _HEAD_W), start=1):
        assert abs(math.fsum(weights) - 1.0) <= np.spacing(1.0)
        assert nodes.tolist() == (_TAIL_T**p).tolist()


def test_default_utilization_slope_matches_shipped_families():
    # The default forward difference of the bisection inversion against the
    # closed forms, where the Newton solver reads them.
    y, cap = (a.ravel() for a in np.meshgrid([0.01, 0.3, 1.0, 3.0], [0.4, 2.5, 11.0]))
    for generic, shipped in ((_GenericExpOverflow(), EXP), (_GenericErlang(), ERLANG)):
        register_family(generic)
        slope = utilization_slope(LossSpec(generic.name), y, cap)
        assert slope == pytest.approx(utilization_slope(shipped, y, cap), rel=1e-4, abs=0.0)


def _mp_erlang(mp, rho, cap):
    """B and dB/drho at (rho, cap) in mpmath: 1/B = e^rho rho^-cap
    Gamma(cap + 1, rho), and dB/drho = B (cap - rho (1 - B)) / rho."""
    b = 1 / (mp.exp(rho) * rho ** (-cap) * mp.gammainc(cap + 1, rho))
    return b, b * (cap - rho * (1 - b)) / rho


def test_erlang_slopes_keep_their_digits_in_saturation():
    # Near log_loss_ceiling rho S is within ~cap / rho of cap, which the
    # slopes divide by or subtract from.  The references solve
    # B(rho) = 1 - e^-y and differentiate in mpmath at 60 digits.  Without
    # the series dU/dy kept 5 to 6 digits here, and dB/drho none.
    mp = pytest.importorskip("mpmath")
    family = get_family("erlang_b")
    with mp.workdps(60):
        for y, cap in ((20.6, 11.0), (22.1, 2.5), (23.9, 0.4)):
            c = mp.mpf(cap)
            level = mp.log(-mp.expm1(-mp.mpf(y)))
            rho = mp.exp(mp.findroot(lambda u: mp.log(_mp_erlang(mp, mp.exp(u), c)[0]) - level, mp.log(c) + y))
            b, db = _mp_erlang(mp, rho, c)
            survival = 1 - b
            # dU/dy = e^-y (drho/dy - rho) with drho/dy = S / B'
            want = float(survival * (survival / db - rho))
            assert utilization_slope(ERLANG, y, cap) == pytest.approx(want, rel=1e-10, abs=0.0)
            # dB/drho at a float load, against mpmath at that same load
            r = float(rho)
            b, db = _mp_erlang(mp, mp.mpf(r), c)
            got = family.blocking_slope(np.array([r]), np.array([cap]), np.array([loss(ERLANG, r, cap)]))[0]
            assert got == pytest.approx(float(db), rel=1e-10, abs=0.0)


def test_erlang_headroom_sums_the_series_in_saturation():
    # For integer cap the series is finite: cap = 2 gives 1/B = 1 + 2/rho
    # + 2/rho^2 and cap - rho S = B (2/rho + 4/rho^2), 12/61 at rho = 10;
    # rho = 40 and 1e9 are past the series gate, and at 1e9 rho S rounds
    # to cap.
    for rho in (10.0, 40.0, 1e9):
        b = 1.0 / (1.0 + 2.0 / rho + 2.0 / rho**2)
        got = _erlang_headroom(np.array([rho]), np.array([2.0]), np.array([b]))[0]
        assert got == pytest.approx(b * (2.0 / rho + 4.0 / rho**2), rel=1e-14, abs=0.0)


@st.composite
def _slope_points(draw):
    """A family, a capacity (0, below 1 or up to 200) and a load from 1e-3
    to 1e6 times max(1, cap): low load to deep saturation."""
    kind = draw(st.sampled_from([spec.kind for spec in ALL]))
    cap = draw(st.just(0.0) | st.floats(0.01, 0.99) | st.floats(1.0, 200.0))
    rho = max(1.0, cap) * 10.0 ** draw(st.floats(-3.0, 6.0))
    return kind, rho, cap


@given(_slope_points())
def test_blocking_slope_matches_central_differences(point):
    # The difference is taken of B where B < 1/2 and of S = 1 - B above,
    # whichever keeps the digits; linear_clip is tested off its kink.
    kind, rho, cap = point
    assume(kind != "linear_clip" or abs(rho - cap) > 1e-4 * rho)
    spec, family = LossSpec(kind), get_family(kind)
    b = loss(spec, rho, cap)
    slope = family.blocking_slope(np.array([rho]), np.array([cap]), np.array([b]))[0]
    h = 1e-6 * rho
    if b < 0.5:
        fd = (loss(spec, rho + h, cap) - loss(spec, rho - h, cap)) / (2 * h)
    else:
        fd = (family.survival_scalar(rho - h, cap) - family.survival_scalar(rho + h, cap)) / (2 * h)
    assert slope >= 0.0
    assert slope == pytest.approx(fd, rel=1e-6, abs=1e-300)


@given(st.just(0.0) | st.floats(0.01, 0.99) | st.floats(1.0, 200.0), st.floats(0.2, 20.0))
def test_default_blocking_slope_is_a_forward_difference(cap, ratio):
    # A family with only blocking and survival falls back to one more
    # blocking() call; exp_overflow's formula, at loads from 1/5 to 20
    # times max(1, cap), against a central difference of its loss
    generic = _GenericExpOverflow()
    register_family(generic)
    spec = LossSpec(generic.name)
    rho = max(1.0, cap) * ratio
    b = loss(spec, rho, cap)
    slope = get_family(generic.name).blocking_slope(np.array([rho]), np.array([cap]), np.array([b]))[0]
    h = 1e-6 * rho
    fd = (loss(spec, rho + h, cap) - loss(spec, rho - h, cap)) / (2 * h)
    assert slope >= 0.0
    assert slope == pytest.approx(fd, rel=1e-4, abs=1e-300)


SHIPPED = ("erlang_b", "linear_clip", "exp_overflow")


@st.composite
def _family_points(draw):
    """A shipped family, two capacities (0, subnormal to tiny, below 1 or up
    to 200) in order, two loads from 1e-3 to 1e6 times max(1, cap) in
    order, and a level from 0 to the box end at the lesser capacity."""
    kind = draw(st.sampled_from(SHIPPED))
    caps = st.just(0.0) | st.sampled_from([1e-310, 1e-20, 1e-17]) | st.floats(0.01, 0.99) | st.floats(1.0, 200.0)
    c1, c2 = sorted((draw(caps), draw(caps)))
    r1, r2 = sorted(max(1.0, c1) * 10.0 ** draw(st.floats(-3.0, 6.0)) for _ in range(2))
    y = draw(st.floats(0.0, 1.0)) * min(Y_CAP, log_loss_ceiling(LossSpec(kind), c1))
    return kind, (c1, c2), (r1, r2), y


@given(_family_points())
def test_shipped_families_keep_the_axioms_and_the_capacity_bound(point):
    # The module axioms: 0 <= F <= 1, nondecreasing in load, nonincreasing
    # in capacity (to the 1e-12 of test_axiom_grid), and saturation.  At
    # rho = rho(y, cap) the hook keeps 0 <= H <= cap y, since carried load
    # is at most cap: the bound the zero-capacity slope g = y rests on.
    # The default hook forms H as rho B - Int_0^rho B, so it is held to
    # that only up to the rounding of rho B (at cap = 1e-20 and y = 46,
    # rho is ~0.4 and H keeps none of its ~5e-19).
    kind, (c1, c2), (r1, r2), y = point
    family = get_family(kind)
    f = family.blocking(np.array([r1, r2, r1]), np.array([c1, c1, c2]))
    assert np.all((f >= 0.0) & (f <= 1.0))
    assert f[1] >= f[0] - 1e-12 and f[2] <= f[0] + 1e-12
    assert family.survival(np.array([1e10 * (1.0 + c1)]), np.array([c1]))[0] <= 1e-9
    rho = family.offered_at(np.array([y]), np.array([c1]))
    if y > 0.0 and rho[0] > 0.0:
        h = family.integral_at_load(np.array([y]), np.array([c1]), rho)[0]
        slack = 8.0 * np.finfo(float).eps * rho[0]
        assert -slack <= h <= c1 * y + slack


def _names_loss_family(node):
    return (isinstance(node, ast.Name) and node.id == "LossFamily") or (
        isinstance(node, ast.Attribute) and node.attr == "LossFamily"
    )


def test_only_the_loss_module_reaches_into_families():
    # Each family's H has one owner, its integral_at_load hook: outside
    # loss.py no code touches a LossFamily private or asks which methods a
    # family overrides, and no family, the base class included, restates
    # its H through a utilization_terms method: that is a public function.
    classes = {LossFamily, *(type(get_family(kind)) for kind in SHIPPED)}
    private = {name for cls in classes for name in vars(cls) if name.startswith("_") and not name.startswith("__")}
    assert "_blocking_head" in private
    found = []
    for path in sorted(Path(sliceforge.__file__).parent.glob("*.py")):
        if path.name == "loss.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                found.append(f"{path.name}:{node.lineno} reads .{node.attr}")
            if isinstance(node, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
                sides = (node.left, *node.comparators)
                if any(isinstance(side, ast.Attribute) and _names_loss_family(side.value) for side in sides):
                    found.append(f"{path.name}:{node.lineno} compares a method with LossFamily's")
    assert found == []
    assert [cls.__name__ for cls in classes if hasattr(cls, "utilization_terms")] == []
