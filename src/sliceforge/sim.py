"""Discrete-event admission simulator for validating the analytic model.

Poisson arrivals per flow, unit-mean exponential holding times, and
atomic all-or-nothing admission: an arrival takes its full demand on
every entity of its route or is blocked outright.  Entities hold
integer capacities and blocked work is lost (no retries, no queueing),
which is exactly the regime the erlang_b loss family describes, so
only erlang_b models are accepted.  The event loop packs every entity's
free units into one integer, a fixed-width field per entity with a guard
bit at its top, so that an arrival is one subtraction and one mask.

Determinism: each flow owns a counter-based Philox stream keyed by
(seed, flow index), so results are bit-identical for a given seed and
independent of scheduling or platform.  Stream layout of a flow with
rate nu > 0: gap chunks ``exponential(1/nu, size=65536)``, each turned
into times ``last + cumsum(gaps)`` (``last``: the previous chunk's final
time, first 0), until a chunk ends past the horizon; then one unit-mean
holding draw per arrival <= horizon, in order, admitted or not.

Memory is O(_CHUNK + max(_WINDOW, _PER_FLOW flows) + calls in service),
whatever the horizon.  A first pass per flow counts its arrivals, one gap
chunk at a time, and keeps the generator where the holding draws start.
The event pass replays each flow's arrival times from its key in pieces
of about its share of a window, draws the holding times piecewise, and
merges the flows by time windows of about max(_WINDOW, _PER_FLOW flows)
arrivals, so that the fixed cost every active flow pays per window is
spread over at least _PER_FLOW arrivals.  Piecewise draws equal one big
draw, and piecewise sequential sums equal one whole cumsum.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from .model import CapacityAllocation, NetworkModel, demand_matrix, offered_vector

__all__ = ["SimConfig", "SimResult", "simulate"]

_CHUNK = 65536  # gap draws per chunk: part of the stream layout
_WINDOW = 16384  # expected arrivals merged per window: bounds memory only
_PER_FLOW = 512  # ... or this many per active flow, if that is more

RNG_DESCRIPTION = "philox4x64 per-flow streams, key=(seed, flow_index)"


@dataclass(frozen=True)
class SimConfig:
    seed: int
    horizon: float
    warmup: float = 0.0
    batches: int = 20
    debug: bool = False  # verify occupancy invariants after every event

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an integer in [0, 2^64)")
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError("horizon must be finite and > 0")
        if not (0.0 <= self.warmup < self.horizon):
            raise ValueError("warmup must lie in [0, horizon)")
        if isinstance(self.batches, bool) or not isinstance(self.batches, numbers.Integral):
            raise ValueError(f"batches must be an integer, got {self.batches!r}")
        if self.batches < 2:
            raise ValueError("need at least 2 batches for standard errors")


@dataclass(frozen=True)
class SimResult:
    """Batch-means estimates (post-warmup) plus whole-run event counts."""

    blocking: np.ndarray = field(repr=False)  # per-flow blocking estimate
    blocking_se: np.ndarray = field(repr=False)
    carried: np.ndarray = field(repr=False)  # nu_r * admitted fraction
    carried_se: np.ndarray = field(repr=False)
    arrivals: np.ndarray = field(repr=False)  # whole-run counts per flow
    admitted: np.ndarray = field(repr=False)
    blocked: np.ndarray = field(repr=False)
    events: int
    rng: str = RNG_DESCRIPTION


def _arrival_times(gen: np.random.Generator, rate: float, piece: int):
    """One flow's arrival times without end, at most `piece` at a time.

    A piece never straddles two gap chunks, and its times are bit for bit
    those of the whole chunk: the draws and the sequential cumulative sum
    resume where the previous piece stopped."""
    last = 0.0
    while True:
        partial = 0.0
        for start in range(0, _CHUNK, piece):
            gaps = gen.exponential(1.0 / rate, size=min(piece, _CHUNK - start))
            sums = np.cumsum(np.concatenate(([partial], gaps)))[1:]
            partial = float(sums[-1])
            yield last + sums
        last += partial


def _flow(seed: int, index: int, rate: float, config: SimConfig, delta: float):
    """One flow's stream, in two passes.  The first counts the arrivals in
    (warmup, horizon] and yields that count; it leaves `gen` where the
    holding draws start.  The second replays the arrival times from the key,
    about one window's worth at a time, and yields them window by window,
    (.., min(k delta, horizon)] for k = 1, 2, ..., each with its holding
    times drawn on from `gen`."""
    key = np.array([seed, index], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    post_warmup = 0
    for times in _arrival_times(gen, rate, _CHUNK):
        post_warmup += int(np.searchsorted(times, config.horizon, side="right"))
        post_warmup -= int(np.searchsorted(times, config.warmup, side="right"))
        if times[-1] > config.horizon:
            break
    times, pos = np.empty(0), 0  # let the last chunk go while the other flows count
    yield post_warmup

    piece = 1 + int(rate * delta)  # the flow's share of a window
    pieces = _arrival_times(np.random.Generator(np.random.Philox(key=key)), rate, piece)
    for k in itertools.count(1):
        edge = min(k * delta, config.horizon)
        parts = []
        while True:
            if pos == times.size:
                times, pos = next(pieces), 0
            stop = int(np.searchsorted(times, edge, side="right"))
            parts.append(times[pos:stop])
            pos = stop
            if pos < times.size:  # an arrival past the edge; the stream has no end
                break
        window = np.concatenate(parts)
        yield window, gen.exponential(1.0, size=window.size)
        if edge == config.horizon:
            return


def _serve(arrivals, demand_of, free, guard, heap, admitted_in, check) -> int:
    """Admit or block each (time, departure, cell) of `arrivals` in turn,
    after releasing every call that departs by its time; returns `free`.
    A call fits when `free - demand_of[cell]` keeps every guard bit.
    Releases at equal times commute, so the heap orders them by
    (departure, packed demand) alone."""
    next_departure = heap[0][0]
    for t, departure, cell in arrivals:
        while next_departure <= t:
            free += heappop(heap)[1]
            next_departure = heap[0][0]
            if check:
                check(free)
        demand = demand_of[cell]
        trial = free - demand
        if (trial & guard) == guard:
            free = trial
            heappush(heap, (departure, demand))
            if departure < next_departure:
                next_departure = departure
            admitted_in[cell] += 1
        if check:
            check(free)
    return free


def simulate(model: NetworkModel, alloc: CapacityAllocation, config: SimConfig) -> SimResult:
    for lg in model.logicals:
        if lg.loss.kind != "erlang_b":
            raise ValueError(f"simulate: requires erlang_b loss on every logical entity (got '{lg.loss.kind}' on '{lg.id}')")
    raw = np.asarray(alloc.values, dtype=float)
    if raw.size != model.m:
        raise ValueError(f"simulate: allocation length {raw.size} != m={model.m}")
    rounded = np.rint(raw)
    for lg, value, cap in zip(model.logicals, raw.tolist(), rounded.tolist()):
        if abs(value - cap) > 1e-9:
            raise ValueError(f"simulate: capacity {value!r} of logical '{lg.id}' is not an integer")
    caps = [int(c) for c in rounded]

    nu = offered_vector(model)
    demands = demand_matrix(model).astype(np.int64)
    num_flows = model.num_flows
    active = [r for r in range(num_flows) if nu[r] > 0.0]
    delta = max(_WINDOW, _PER_FLOW * len(active)) / float(nu.sum()) if active else config.horizon
    readers = [_flow(config.seed, r, float(nu[r]), config, delta) for r in active]
    if active and sum(next(reader) for reader in readers) < config.batches:
        raise ValueError("simulate: horizon too short for requested batches")

    # A cell is (flow, slot): slot 0 takes arrivals <= warmup, slot b + 1 batch b.
    slots = config.batches + 1
    edges = np.linspace(config.warmup, config.horizon, slots)
    # Entity j's field, bits [j width, (j + 1) width), holds base + its free
    # units: taking a demand leaves it >= 0, and a full field stays < 2 base.
    width = max(caps + [int(demands.max(initial=0))]).bit_length() + 1
    base, shifts = 1 << (width - 1), [j * width for j in range(model.m)]
    guard, free = sum(base << s for s in shifts), sum((base + cap) << s for s, cap in zip(shifts, caps))
    packed = [sum(int(d) << s for s, d in zip(shifts, demands[:, r].tolist())) for r in range(num_flows)]
    demand_of = [demand for demand in packed for _ in range(slots)]
    arrived, admitted_in = np.zeros(num_flows * slots, dtype=np.int64), [0] * (num_flows * slots)
    heap: list[tuple[float, int]] = [(math.inf, 0)]  # (departure time, packed demand); the sentinel never leaves

    def invariant(free: int) -> None:
        units = [(free >> s & (2 * base - 1)) - base for s in shifts]
        assert free >> (model.m * width) == 0, "occupancy carried past the last field"
        assert all(0 <= u <= c for u, c in zip(units, caps)), "occupancy out of range"

    check = invariant if config.debug else None
    active_ids = np.array(active, dtype=np.int64)
    for window in zip(*readers):
        times = np.concatenate([w[0] for w in window])
        order = np.argsort(times, kind="stable")
        times = times[order]
        departures = times + np.concatenate([w[1] for w in window])[order]
        flows = np.repeat(active_ids, [w[0].size for w in window])[order]
        cells = flows * slots + np.searchsorted(edges, times, side="left")
        arrived += np.bincount(cells, minlength=arrived.size)
        free = _serve(zip(times.tolist(), departures.tolist(), cells.tolist()), demand_of, free, guard, heap, admitted_in, check)
    while heap[0][0] <= config.horizon:
        free += heappop(heap)[1]
        if check:
            check(free)

    arrived = arrived.reshape(num_flows, slots)
    admitted_cells = np.array(admitted_in, dtype=np.int64).reshape(num_flows, slots)
    blocking, blocking_se, carried, carried_se = (np.zeros(num_flows) for _ in range(4))
    arrivals, admitted = arrived.sum(axis=1), admitted_cells.sum(axis=1)
    root_batches = math.sqrt(config.batches)
    for r in range(num_flows):
        arr_b, adm_b = arrived[r, 1:].astype(float), admitted_cells[r, 1:].astype(float)
        # empty batch: no arrivals to block, so its blocking sample is 0
        block_b = np.where(arr_b > 0, (arr_b - adm_b) / np.maximum(arr_b, 1.0), 0.0)
        blocking[r] = float(block_b.mean())
        blocking_se[r] = float(block_b.std(ddof=1) / root_batches)
        carried_b = nu[r] * (1.0 - block_b)
        carried[r] = float(carried_b.mean())
        carried_se[r] = float(carried_b.std(ddof=1) / root_batches)

    # every arrival is one event, and so is every departure: all admitted calls
    # but those still in service at the horizon (the heap less its sentinel)
    events = int(arrivals.sum() + admitted.sum()) - (len(heap) - 1)
    return SimResult(
        blocking=blocking,
        blocking_se=blocking_se,
        carried=carried,
        carried_se=carried_se,
        arrivals=arrivals,
        admitted=admitted,
        blocked=arrivals - admitted,
        events=events,
    )
