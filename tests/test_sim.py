import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from sliceforge import (
    CapacityAllocation,
    Flow,
    LogicalEntity,
    LossSpec,
    NetworkModel,
    PhysicalEntity,
    SimConfig,
    carried_total,
    load_model,
    simulate,
    solve_fixed_point,
)
from sliceforge import sim as sim_module

from conftest import erlang_recursion, single_entity
from sim_oracle import CHUNK, flow_stream, oracle_simulate

REFERENCE = Path(__file__).resolve().parent.parent / "demos" / "models" / "reference_2x3.json"


def test_config_validation():
    with pytest.raises(ValueError, match="warmup"):
        SimConfig(seed=1, horizon=10.0, warmup=10.0)
    with pytest.raises(ValueError, match="need at least 2 batches"):
        SimConfig(seed=1, horizon=10.0, batches=1)
    # a non-integer count is caught here, not as a TypeError inside simulate
    for bad in (2.5, 20.0, "20", True):
        with pytest.raises(ValueError, match="batches must be an integer, got"):
            SimConfig(seed=1, horizon=10.0, batches=bad)
    assert SimConfig(seed=1, horizon=10.0, batches=np.int64(4)).batches == 4
    with pytest.raises(ValueError, match="horizon"):
        SimConfig(seed=1, horizon=0.0)
    for bad in (-1, 2**64, np.int64(-1), 7.0, True):
        with pytest.raises(ValueError, match="seed must be an integer"):
            SimConfig(seed=bad, horizon=10.0)


def test_numpy_seed_matches_int_seed():
    model = load_model(REFERENCE.read_text())
    alloc = CapacityAllocation([8.0, 6.0])
    runs = [simulate(model, alloc, SimConfig(seed=seed, horizon=2e3)) for seed in (7, np.int64(7), np.uint64(7))]
    for res in runs[1:]:
        for field in ("arrivals", "admitted", "blocked", "blocking"):
            assert np.array_equal(getattr(res, field), getattr(runs[0], field))
        assert res.events == runs[0].events


def test_preconditions():
    model = single_entity(1.0, kind="linear_clip")
    with pytest.raises(ValueError, match="erlang_b"):
        simulate(model, CapacityAllocation([2.0]), SimConfig(seed=1, horizon=100.0))
    model = single_entity(1.0, kind="erlang_b")
    with pytest.raises(ValueError, match="integer") as err:
        simulate(model, CapacityAllocation([2.5]), SimConfig(seed=1, horizon=100.0))
    assert str(err.value) == "simulate: capacity 2.5 of logical 'l' is not an integer"
    with pytest.raises(ValueError, match=r"^simulate: allocation length 2 != m=1$"):
        simulate(model, CapacityAllocation([2.0, 2.0]), SimConfig(seed=1, horizon=100.0))


def test_horizon_too_short_for_batches():
    model = single_entity(1.0)
    with pytest.raises(ValueError, match="too short"):
        simulate(model, CapacityAllocation([2.0]), SimConfig(seed=1, horizon=0.5, batches=20))


def test_single_server_blocking():
    # M/M/1/1: blocking 0.5
    model = single_entity(1.0)
    res = simulate(model, CapacityAllocation([1.0]), SimConfig(seed=11, horizon=4e4, warmup=2e3))
    oracle = erlang_recursion(1.0, 1)
    assert abs(res.blocking[0] - oracle) <= 3.0 * res.blocking_se[0]


def test_ten_server_blocking():
    model = single_entity(5.0)
    res = simulate(model, CapacityAllocation([10.0]), SimConfig(seed=11, horizon=4e4, warmup=2e3))
    oracle = erlang_recursion(5.0, 10)
    assert abs(res.blocking[0] - oracle) <= 3.0 * res.blocking_se[0]


def test_ample_capacity():
    model = single_entity(2.0)
    res = simulate(model, CapacityAllocation([20.0]), SimConfig(seed=5, horizon=2e4, warmup=1e3))
    assert res.blocking[0] <= 0.001
    assert res.carried[0] == pytest.approx(2.0, rel=0.05)


def test_determinism_bit_identical():
    model = load_model(REFERENCE.read_text())
    alloc = CapacityAllocation([8.0, 6.0])
    cfg = SimConfig(seed=99, horizon=5e3, warmup=500.0)
    a = simulate(model, alloc, cfg)
    b = simulate(model, alloc, cfg)
    for field in ("blocking", "blocking_se", "carried", "carried_se", "arrivals", "admitted", "blocked"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert a.events == b.events

    c = simulate(model, alloc, SimConfig(seed=100, horizon=5e3, warmup=500.0))
    assert not np.array_equal(a.blocking, c.blocking)


def test_conservation_and_ranges():
    model = load_model(REFERENCE.read_text())
    res = simulate(model, CapacityAllocation([8.0, 6.0]), SimConfig(seed=3, horizon=1e4, warmup=1e3))
    assert np.array_equal(res.arrivals, res.admitted + res.blocked)
    assert np.all(res.blocking >= 0.0) and np.all(res.blocking <= 1.0)
    nu = np.array([f.offered for f in model.flows])
    assert np.all(res.carried >= 0.0) and np.all(res.carried <= nu + 1e-12)


def test_debug_capacity_sweep():
    # occupancy invariant asserted at every event
    model = load_model(REFERENCE.read_text())
    res = simulate(
        model, CapacityAllocation([8.0, 6.0]), SimConfig(seed=17, horizon=2e3, warmup=200.0, debug=True)
    )
    assert res.events > 0


def test_checked_loop_checks_after_every_release_and_arrival():
    # One entity of capacity 1 and calls of demand 1: width 2, base 2, so
    # the field holds units in use and the guard is 2.  Arrival 0's call is
    # released at slot 1; arrival 1 refills the server and arrival 2 is
    # blocked.
    states, flags = [], bytearray(3)
    used = sim_module._serve_checked([0, 0, 0, 0], [1, 1, 1], [1, 3, 3], flags, 0, 2, states.append)
    assert (used, list(flags), states) == (1, [1, 1, 0], [1, 0, 1, 1])
    plain = bytearray(3)
    assert sim_module._serve([0, 0, 0, 0], [1, 1, 1], [1, 3, 3], plain, 0, 2) == 1 and plain == flags


@pytest.mark.parametrize(
    "corruption, message",
    [
        # capacities 8 and 6 give fields of width 5 (base 16): one unit past
        # the second field, and 7 more units in use on a 6-unit entity
        (1 << 10, "occupancy carried past the last field"),
        (7 << 5, "occupancy out of range"),
    ],
)
def test_debug_invariant_rejects_a_corrupt_occupancy(corruption, message):
    model = load_model(REFERENCE.read_text())
    real = sim_module._serve_checked

    def corrupted(pending, demands, release, flags, used, guard, check):
        return real(pending, demands, release, flags, used + corruption, guard, check)

    config = SimConfig(seed=17, horizon=200.0, debug=True)
    with mock.patch.object(sim_module, "_serve_checked", corrupted):
        with pytest.raises(AssertionError, match=message):
            simulate(model, CapacityAllocation([8.0, 6.0]), config)
        # without debug the unchecked loop runs, and the corruption never enters
        simulate(model, CapacityAllocation([8.0, 6.0]), SimConfig(seed=17, horizon=200.0))


def test_oversized_demand_never_admitted():
    model = single_entity(1.0, demand=2)
    res = simulate(model, CapacityAllocation([1.0]), SimConfig(seed=4, horizon=2e3, warmup=100.0))
    assert res.admitted[0] == 0
    assert res.blocking[0] == 1.0
    assert res.carried[0] == 0.0


def test_multi_entity_gap_on_reference_instance():
    # quantifies the independence approximation on the shipped instance
    model = load_model(REFERENCE.read_text())
    alloc = CapacityAllocation([8.0, 6.0])
    res = simulate(model, alloc, SimConfig(seed=7, horizon=2e5, warmup=1e4))
    sim_total = float(res.carried.sum())
    analytic = carried_total(model, solve_fixed_point(model, alloc))
    assert abs(sim_total - analytic) / sim_total <= 0.05


def test_rng_identity_recorded():
    model = single_entity(1.0)
    res = simulate(model, CapacityAllocation([1.0]), SimConfig(seed=1, horizon=200.0))
    assert "philox" in res.rng
    assert "seed" in res.rng and "flow" in res.rng


_FIELDS = ("blocking", "blocking_se", "carried", "carried_se", "arrivals", "admitted", "blocked")


def _mixed_model():
    """A zero-rate flow, a zero-capacity entity (z) and a two-entity route."""
    return NetworkModel(
        physicals=(PhysicalEntity("p", "unit", 10.0), PhysicalEntity("q", "unit", 10.0)),
        logicals=(
            LogicalEntity("a", ("p",), LossSpec("erlang_b")),
            LogicalEntity("b", ("q",), LossSpec("erlang_b")),
            LogicalEntity("z", ("p", "q"), LossSpec("erlang_b")),
        ),
        flows=(
            Flow("f_ab", 1.5, {"a": 1, "b": 2}),
            Flow("f_idle", 0.0, {"a": 1}),
            Flow("f_z", 2.0, {"z": 1}),
            Flow("f_b", 3.0, {"b": 1}),
        ),
    )


# Recorded from the whole-run simulator (now tests/sim_oracle.py) before it
# streamed.  "long" crosses a 65,536-draw gap chunk on flow fa (79,770
# arrivals) and several merge windows.
GOLDEN = {
    "reference": (
        "reference", [8.0, 6.0], dict(seed=3, horizon=1e4, warmup=1e3),
        ([39990, 30123, 19852], [35940, 24833, 14881], [4050, 5290, 4971], 165609),
        {
            "blocking": ["0.10223245326810322", "0.17688175184213936", "0.25012414930127796"],
            "blocking_se": ["0.0022333773953794943", "0.0025632450848270226", "0.003628910121914893"],
            "carried": ["3.5910701869275874", "2.4693547444735815", "1.4997517013974437"],
            "carried_se": ["0.00893350958151797", "0.007689735254481076", "0.0072578202438297905"],
        },
    ),
    "long": (
        "reference", [8.0, 6.0], dict(seed=21, horizon=2e4, warmup=2e3),
        ([79770, 59536, 39819], [71853, 49005, 29985], [7917, 10531, 9834], 329960),
        {
            "blocking": ["0.09885524053174657", "0.17697040201961814", "0.24725564323991328"],
            "blocking_se": ["0.0015163151040888073", "0.002809764573567624", "0.002901379869451036"],
            "carried": ["3.6045790378730147", "2.469088793941145", "1.5054887135201735"],
            "carried_se": ["0.006065260416355233", "0.008429293720702858", "0.0058027597389020726"],
        },
    ),
    "mixed": (
        "mixed", [3.0, 4.0, 0.0], dict(seed=8, horizon=2e3, warmup=100.0, batches=10),
        ([3010, 0, 3889, 6004], [1001, 0, 0, 3758], [2009, 0, 3889, 2246], 17661),
        {
            "blocking": ["0.6630343264167737", "0.0", "1.0", "0.37390139118198257"],
            "blocking_se": ["0.005141473395035735", "0.0", "0.0", "0.008120046974493467"],
            "carried": ["0.5054485103748393", "0.0", "0.0", "1.8782958264540526"],
            "carried_se": ["0.007712210092553597", "0.0", "0.0", "0.02436014092348041"],
        },
    ),
}


def _assert_golden(case, debug):
    which, caps, config, counts, estimates = GOLDEN[case]
    model = load_model(REFERENCE.read_text()) if which == "reference" else _mixed_model()
    res = simulate(model, CapacityAllocation(caps), SimConfig(**config, debug=debug))
    assert (res.arrivals.tolist(), res.admitted.tolist(), res.blocked.tolist(), res.events) == counts
    for name, expected in estimates.items():
        assert [repr(float(x)) for x in getattr(res, name)] == expected, name


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_output(case):
    _assert_golden(case, debug=False)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_checked_event_loop_gives_golden_output(case):
    # debug runs a second event loop, which checks every field after every
    # release and arrival; it must walk the same events as the first
    _assert_golden(case, debug=True)


@pytest.mark.parametrize(
    "rate, horizon, delta",
    [(4.0, 2e4, 1820.0), (4.0, 2e4, 5.0), (2.5, 300.0, 0.9), (0.01, 50.0, 5.0)],
)
def test_replayed_stream_is_the_whole_run_stream(rate, horizon, delta):
    # Arrival times reach the results only through comparisons, so a slip of
    # one ulp would pass every output check: compare the streams themselves.
    # Pieces and holding blocks of 1 + 4 rate delta draws (29121, 81, 10, 1)
    # cross the 65,536-draw chunk boundary in the first two cases.
    reader = sim_module._flow(12, 3, rate, SimConfig(seed=12, horizon=horizon), delta)
    next(reader)
    windows = list(reader)
    times, holds = flow_stream(12, 3, rate, horizon, CHUNK)
    assert np.concatenate([w[0] for w in windows]).tobytes() == times.tobytes()
    assert np.concatenate([w[1] for w in windows]).tobytes() == holds.tobytes()


def _assert_bit_identical(a, b):
    for name in _FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert a.events == b.events


@st.composite
def _small_erlang_cases(draw):
    m = draw(st.integers(1, 4))
    flows = []
    for r in range(draw(st.integers(0, 5))):
        rate = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]) | st.floats(0.05, 4.0))
        route = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
        flows.append(Flow(f"f{r}", rate, {f"l{j}": draw(st.integers(1, 2)) for j in route}))
    model = NetworkModel(
        physicals=(PhysicalEntity("p", "unit", 1.0),),
        logicals=tuple(LogicalEntity(f"l{j}", ("p",), LossSpec("erlang_b")) for j in range(m)),
        flows=tuple(flows),
    )
    caps = draw(st.lists(st.integers(0, 6), min_size=m, max_size=m))
    horizon = float(draw(st.integers(1, 40)))
    config = SimConfig(
        seed=draw(st.integers(0, 2**64 - 1)),
        horizon=horizon,
        warmup=horizon * draw(st.sampled_from([0.0, 0.1, 0.5])),
        batches=draw(st.integers(2, 5)),
        debug=draw(st.booleans()),
    )
    return model, CapacityAllocation([float(c) for c in caps]), config


class _GridGenerator(np.random.Generator):
    """Philox draws rounded to multiples of 1/4: arrival times, departure
    times and batch edges then coincide often, which exact draws never do."""

    def exponential(self, scale=1.0, size=None):
        return np.round(super().exponential(scale, size) * 4.0) / 4.0


@settings(max_examples=300)
@given(
    case=_small_erlang_cases(),
    window=st.integers(1, 40),
    per_flow=st.integers(0, 8),
    chunk=st.integers(1, 40),
    grid=st.booleans(),
)
def test_streaming_matches_whole_run_oracle(case, window, per_flow, chunk, grid):
    # Small windows and gap chunks put many window edges and chunk
    # boundaries inside a short run; the oracle draws with the same chunk.
    model, alloc, config = case
    generator = _GridGenerator if grid else np.random.Generator
    with (
        mock.patch.object(sim_module, "_WINDOW", window),
        mock.patch.object(sim_module, "_PER_FLOW", per_flow),
        mock.patch.object(sim_module, "_CHUNK", chunk),
        mock.patch.object(np.random, "Generator", generator),
    ):
        try:
            expected = oracle_simulate(model, alloc, config, chunk=chunk)
        except ValueError as exc:
            assert "too short" in str(exc)
            event("horizon too short")
            with pytest.raises(ValueError, match="too short"):
                simulate(model, alloc, config)
            return
        res = simulate(model, alloc, config)
    _assert_bit_identical(res, expected)
    assert np.array_equal(res.arrivals, res.admitted + res.blocked)
    assert res.arrivals.sum() <= res.events <= 2 * res.arrivals.sum()
    assert np.all((res.blocking >= 0.0) & (res.blocking <= 1.0))


def test_ties_zero_holds_and_long_calls_match_whole_run_oracle():
    # On the quarter grid a call can depart exactly when a later call
    # arrives, and can hold for 0.  A heap frees every departure <= t
    # before the arrival at t, and frees a call no earlier than the arrival
    # after its own.  Windows of about 4 arrivals (1 time unit at rate 4)
    # leave some calls in service across several windows.  One server of
    # capacity 2 is full often enough that each rule changes admissions.
    model, alloc = single_entity(4.0), CapacityAllocation([2.0])
    config = SimConfig(seed=1, horizon=30.0, warmup=3.0, batches=4)
    with (
        mock.patch.object(sim_module, "_WINDOW", 4),
        mock.patch.object(sim_module, "_PER_FLOW", 1),
        mock.patch.object(np.random, "Generator", _GridGenerator),
    ):
        times, holds = flow_stream(config.seed, 0, 4.0, config.horizon, CHUNK)
        expected = oracle_simulate(model, alloc, config)
        res = simulate(model, alloc, config)
    departures = times + holds
    assert np.isin(departures[holds > 0.0], times).any()
    assert (holds == 0.0).any()
    assert (holds > 3.0).any()
    _assert_bit_identical(res, expected)


class _RecordingGenerator(np.random.Generator):
    """Philox draws as they are, with the (scale, size) of each logged."""

    made = []

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.draws = []
        _RecordingGenerator.made.append(self)

    def exponential(self, scale=1.0, size=None):
        self.draws.append((scale, size))
        return super().exponential(scale, size)


@pytest.mark.parametrize(
    "window, piece_windows, chunk, config, skipped",
    [
        (2, 1, 50, SimConfig(seed=1, horizon=40.0, warmup=6.3, batches=4), set()),
        # the shipped piece of 4 windows, cut short by 23-draw gap chunks
        (5, 4, 23, SimConfig(seed=3, horizon=60.0, warmup=2.9, batches=3), {"hold block larger than a piece"}),
    ],
)
def test_window_pieces_and_blocks_match_whole_run_oracle(window, piece_windows, chunk, config, skipped):
    # One flow at rate 3, so a window is (k - 1) delta .. k delta with
    # delta = window / 3.  Which of the streaming paths a run takes follows
    # from the whole-run arrival times and the logged draw sizes: pieces of
    # arrival times from the replaying generator, blocks of holding times
    # (scale 1) from the counting one.  Each case takes every path it does
    # not list as skipped.
    rate = 3.0
    model, alloc = single_entity(rate), CapacityAllocation([2.0])
    _RecordingGenerator.made = []
    with (
        mock.patch.object(sim_module, "_WINDOW", window),
        mock.patch.object(sim_module, "_PER_FLOW", 0),
        mock.patch.object(sim_module, "_PIECE", piece_windows),
        mock.patch.object(sim_module, "_CHUNK", chunk),
        mock.patch.object(np.random, "Generator", _RecordingGenerator),
    ):
        res = simulate(model, alloc, config)
        counting, replaying = _RecordingGenerator.made
        expected = oracle_simulate(model, alloc, config, chunk=chunk)
    _assert_bit_identical(res, expected)

    times, _ = flow_stream(config.seed, 0, rate, config.horizon, chunk)
    delta = window / rate
    k = np.arange(1, math.ceil(config.horizon / delta) + 1)
    ends = np.searchsorted(times, np.minimum(k * delta, config.horizon), side="right")
    starts = np.concatenate(([0], ends[:-1]))
    ends, starts = ends[ends > starts], starts[ends > starts]
    piece = 1 + int(rate * delta * piece_windows)
    piece_ends = np.cumsum([size for _, size in replaying.draws])
    blocks = [size for scale, size in counting.draws if scale == 1.0]
    assert sum(blocks) == times.size  # no holding time drawn past the last arrival
    edges = np.linspace(config.warmup, config.horizon, config.batches + 1)
    first = np.searchsorted(edges, times[starts], side="left")
    last = np.searchsorted(edges, times[ends - 1], side="left")

    def inside(bounds):
        return bool(np.any((starts[:, None] < bounds) & (bounds < ends[:, None])))

    taken = {
        "hold block runs out inside a window": inside(np.cumsum(blocks)),
        "hold block larger than a piece": max(blocks) > piece,
        "piece ends inside a window": inside(piece_ends),
        "window ends at a piece end": bool(np.isin(ends, piece_ends).any()),
        "window inside one batch": bool(np.any(first == last)),
        "window across a batch edge": bool(np.any((first > 0) & (first != last))),
        "window across the warmup edge": bool(np.any((first == 0) & (last > 0))),
    }
    missed = {name for name, hit in taken.items() if not hit}
    assert missed == skipped, missed


def test_empty_flow_set():
    model = NetworkModel(
        physicals=(PhysicalEntity("p", "unit", 1.0),),
        logicals=(LogicalEntity("l", ("p",), LossSpec("erlang_b")),),
        flows=(),
    )
    res = simulate(model, CapacityAllocation([3.0]), SimConfig(seed=1, horizon=10.0))
    assert res.events == 0
    for name in _FIELDS:
        assert getattr(res, name).shape == (0,)
    _assert_bit_identical(res, oracle_simulate(model, CapacityAllocation([3.0]), SimConfig(seed=1, horizon=10.0)))


def test_many_flows_match_whole_run_oracle():
    # 40 flows set the window at 40 x 512 arrivals, above _WINDOW; the run
    # holds about 60,000 arrivals, so it crosses several of those windows
    model = NetworkModel(
        physicals=(PhysicalEntity("p", "unit", 1.0),),
        logicals=tuple(LogicalEntity(f"l{j}", ("p",), LossSpec("erlang_b")) for j in range(4)),
        flows=tuple(Flow(f"f{r}", 1.0, {f"l{r % 4}": 1, f"l{(r + 1) % 4}": 1 + r % 2}) for r in range(40)),
    )
    assert 40 * sim_module._PER_FLOW > sim_module._WINDOW
    alloc = CapacityAllocation([12.0, 14.0, 16.0, 18.0])
    config = SimConfig(seed=11, horizon=1500.0, warmup=100.0)
    res = simulate(model, alloc, config)
    assert res.arrivals.sum() > 2 * 40 * sim_module._PER_FLOW
    _assert_bit_identical(res, oracle_simulate(model, alloc, config))


def _packed_case(caps, flows):
    """Entities l0, l1, ... with these capacities; flows as (rate, {j: demand})."""
    model = NetworkModel(
        physicals=(PhysicalEntity("p", "unit", 1.0),),
        logicals=tuple(LogicalEntity(f"l{j}", ("p",), LossSpec("erlang_b")) for j in range(len(caps))),
        flows=tuple(
            Flow(f"f{r}", rate, {f"l{j}": units for j, units in route.items()}) for r, (rate, route) in enumerate(flows)
        ),
    )
    return model, CapacityAllocation([float(c) for c in caps])


# Each case puts values of very different sizes into the packed occupancy,
# or a demand that would borrow from the next entity's field if the fields
# were too narrow.  (caps, flows, flows never admitted)
_PACKED_CASES = {
    # one field width holds a 0 and a 2^20 capacity, on one route
    "zero_and_wide": ([0, 2**20, 3], [(2.0, {0: 1, 1: 1}), (5.0, {1: 2}), (1.5, {1: 1, 2: 1})], [0]),
    # demand 9 exceeds every capacity; its neighbours keep their own counts
    "oversized": ([2, 3, 1], [(1.0, {1: 9}), (2.0, {0: 1, 2: 1}), (3.0, {0: 2})], [0]),
    # demand 3 on capacity 2, next to an entity kept full by heavy load
    "beside_full": ([2, 1], [(0.7, {0: 3}), (40.0, {1: 1}), (0.5, {0: 1, 1: 1})], [0]),
    "single_entity": ([4], [(3.0, {0: 1}), (1.0, {0: 2})], []),
}


@pytest.mark.parametrize("debug", [False, True])
@pytest.mark.parametrize("case", sorted(_PACKED_CASES))
def test_packed_occupancy_edges_match_whole_run_oracle(case, debug):
    caps, flows, never = _PACKED_CASES[case]
    model, alloc = _packed_case(caps, flows)
    config = SimConfig(seed=5, horizon=400.0, warmup=20.0, batches=5, debug=debug)
    res = simulate(model, alloc, config)
    _assert_bit_identical(res, oracle_simulate(model, alloc, config))
    assert res.admitted[never].sum() == 0
    assert np.all(np.delete(res.admitted, never) > 0)


def test_memory_does_not_grow_with_horizon():
    # H = 2e3 at total rate 9 already fills one merge window (about
    # 16,384 arrivals); 10 H would hold some 180,000 arrivals if built whole.
    model = load_model(REFERENCE.read_text())
    alloc = CapacityAllocation([8.0, 6.0])

    def peak(horizon):
        tracemalloc.start()
        try:
            simulate(model, alloc, SimConfig(seed=7, horizon=horizon, warmup=100.0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short = peak(2e3)
    assert peak(2e4) <= 1.5 * short
