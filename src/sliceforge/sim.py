"""Discrete-event admission simulator for validating the analytic model.

Poisson arrivals per flow, unit-mean exponential holding times, and
atomic all-or-nothing admission: an arrival takes its full demand on
every entity of its route or is blocked outright.  Entities hold
integer capacities and blocked work is lost (no retries, no queueing),
which is exactly the regime the erlang_b loss family describes, so
only erlang_b models are accepted.

The event loop packs the occupancy of every entity into one integer, a
field of fixed width per entity with a guard bit (base) at its top.
Entity j's field holds (base - 1 - cap_j) + used_j, so a call fits
exactly when adding its packed demand sets no guard bit: an arrival is
one addition and one mask test, and a release one subtraction.  Fields
are wide enough that a trial addition never carries into the next one.

Determinism: each flow owns a counter-based Philox stream keyed by
(seed, flow index), so results are bit-identical for a given seed and
independent of scheduling or platform.  Stream layout of a flow with
rate nu > 0: gap chunks ``exponential(1/nu, size=65536)``, each turned
into times ``last + cumsum(gaps)`` (``last``: the previous chunk's final
time, first 0), until a chunk ends past the horizon; then one unit-mean
holding draw per arrival <= horizon, in order, admitted or not.

Memory is O(_CHUNK + _PIECE max(_WINDOW, _PER_FLOW flows) + calls in
service), whatever the horizon.  A first pass per flow counts its
arrivals, one gap chunk at a time, and keeps the generator where the
holding draws start.  The event pass replays each flow's arrival times
from its key, up to the first past the horizon, in pieces of about its
share of _PIECE windows, draws the holding times of each piece right
after it (the arrival past the horizon gets none), and merges the flows
by time windows of about max(_WINDOW, _PER_FLOW flows) arrivals, so that
the fixed cost every active flow pays per window is spread over at least
_PER_FLOW arrivals.  A window is a slice of a piece and of its holding
times, taken by one cursor, and is copied only where it crosses into the
next piece.  Piecewise draws equal one big draw, and piecewise sequential
sums equal one whole cumsum.  With the shipped constants each flow keeps
a piece of about 4 windows' share of arrival times and as many holding
times: 1 MB of floats over all flows at 16,384-arrival windows.

Each window becomes one merged event list, built in numpy: every call's
departure is placed at a release slot, the first later arrival of the
window at or after its departure time, so that a departure at time t
goes before an arrival at t.  One Python loop then walks the arrivals.
Before arrival k it frees slot k, the sum of the packed demands armed
there; an admitted arrival arms its own slot.  Calls that outlive the
window's last arrival are carried, as (departure, flow) arrays, into the
next window's slots.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .model import CapacityAllocation, NetworkModel, _capacities, demand_matrix, offered_vector

__all__ = ["SimConfig", "SimResult", "simulate"]

_CHUNK = 65536  # gap draws per chunk: part of the stream layout
_WINDOW = 16384  # expected arrivals merged per window: bounds memory only
_PER_FLOW = 512  # ... or this many per active flow, if that is more
_PIECE = 4  # windows' worth of arrival times and holding times drawn at once

RNG_DESCRIPTION = "philox4x64 per-flow streams, key=(seed, flow_index)"


@dataclass(frozen=True)
class SimConfig:
    seed: int
    horizon: float
    warmup: float = 0.0
    batches: int = 20

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) or not 0 <= self.seed < 2**64:
            raise ValueError("simulate: seed must be an integer in [0, 2^64)")
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError("simulate: horizon must be finite and > 0")
        if not (0.0 <= self.warmup < self.horizon):
            raise ValueError("simulate: warmup must lie in [0, horizon)")
        if isinstance(self.batches, bool) or not isinstance(self.batches, numbers.Integral):
            raise ValueError(f"simulate: batches must be an integer, got {self.batches!r}")
        if self.batches < 2:
            raise ValueError("simulate: need at least 2 batches for standard errors")


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


def _arrival_times(gen: np.random.Generator, rate: float, piece: int, total=math.inf):
    """One flow's first `total` arrival times (without end by default), at
    most `piece` at a time.

    A piece never straddles two gap chunks, and its times are bit for bit
    those of the whole chunk: the draws and the sequential cumulative sum
    resume where the previous piece stopped."""
    last = 0.0
    while True:
        partial = 0.0
        for start in range(0, _CHUNK, piece):
            if total <= 0:
                return
            times = gen.exponential(1.0 / rate, size=min(piece, _CHUNK - start, total))
            total -= times.size
            times[0] += partial
            np.cumsum(times, out=times)
            partial = float(times[-1])
            times += last
            yield times
        last += partial


def _flow(seed: int, index: int, rate: float, config: SimConfig, delta: float):
    """One flow's stream, in two passes.  The first counts the arrivals in
    (warmup, horizon] and yields that count; it leaves `gen` where the
    holding draws start.  The second replays the arrival times from the key,
    up to the first past the horizon and about _PIECE windows' worth at a
    time, and yields them window by window, (.., min(k delta, horizon)] for
    k = 1, 2, ..., each with its holding times.  Those are drawn on from
    `gen` right after each piece, as many as its arrivals but none for the
    one past the horizon, so one cursor slices a piece and its holding
    times alike."""
    key = np.array([seed, index], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    undrawn = post_warmup = 0  # holding times still to draw, one per arrival <= horizon
    for times in _arrival_times(gen, rate, _CHUNK):
        inside = int(np.searchsorted(times, config.horizon, side="right"))
        undrawn += inside
        post_warmup += inside - int(np.searchsorted(times, config.warmup, side="right"))
        if times[-1] > config.horizon:
            break
    times = holds = np.empty(0)  # let the last chunk go while the other flows count
    pos = 0  # next arrival time, and its holding time, to hand out
    yield post_warmup

    piece = 1 + int(rate * delta * _PIECE)  # the flow's share of _PIECE windows
    # the first arrival past the horizon ends the last window: no later one
    # is drawn, and it needs no holding time
    pieces = _arrival_times(np.random.Generator(np.random.Philox(key=key)), rate, piece, undrawn + 1)
    for k in itertools.count(1):
        edge = min(k * delta, config.horizon)
        # `window` and `hold` are the last names on a spent piece, so
        # rebinding them lets it go
        stop = int(times.searchsorted(edge, side="right"))
        window, hold = times[pos:stop], holds[pos:stop]
        while stop == times.size:  # no arrival past the edge yet
            times = next(pieces)
            holds = gen.exponential(1.0, size=min(times.size, undrawn))
            undrawn -= holds.size
            stop = int(times.searchsorted(edge, side="right"))
            window, hold = np.concatenate((window, times[:stop])), np.concatenate((hold, holds[:stop]))
        pos = stop
        yield window, hold
        if edge == config.horizon:
            return


def _release_slots(times, departures):
    """Release slot of each call in a window: the index of the first
    arrival at or after its departure, so a departure at t goes before an
    arrival at t, but never at or before its own arrival; times.size, past
    the last arrival, if there is none.  One stable sort merges the
    departures, sorted, with the arrivals, each departure ahead of the
    arrivals at its time; ties between departures commute."""
    n = times.size
    by_time = np.argsort(departures)
    merged = np.argsort(np.concatenate((departures[by_time], times)), kind="stable")
    release = np.empty(n, dtype=np.int64)
    release[by_time] = np.flatnonzero(merged < n) - np.arange(n)
    return np.maximum(release, np.arange(1, n + 1), out=release)


def _serve(pending, demands, release, flags, used, guard) -> int:
    """Walk one window's arrivals in time order; returns `used`.

    Arrival k first frees pending[k], the packed demands of the admitted
    calls released at slot k.  Its own call fits when `used + demands[k]`
    sets no guard bit; then it arms its release slot, release[k] > k, with
    its demand and sets flags[k].  So the iterator over `pending` reads
    each entry after its last write."""
    for k, released, demand, slot in zip(itertools.count(), pending, demands, release):
        if released:
            used -= released
        trial = used + demand
        if not trial & guard:
            used = trial
            pending[slot] += demand
            flags[k] = 1
    return used


def simulate(model: NetworkModel, alloc: CapacityAllocation, config: SimConfig) -> SimResult:
    for lg in model.logicals:
        if lg.loss.kind != "erlang_b":
            raise ValueError(f"simulate: requires erlang_b loss on every logical entity (got '{lg.loss.kind}' on '{lg.id}')")
    raw = _capacities(model, alloc, "simulate")
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
    # Entity j's field, bits [j width, (j + 1) width), holds base - 1 - cap_j
    # + its units in use, so a call fits exactly when adding its demand sets
    # no guard bit (base); a field never exceeds base - 1 + max demand < 2 base.
    width = max(caps + [int(demands.max(initial=0))]).bit_length() + 1
    base, shifts = 1 << (width - 1), [j * width for j in range(model.m)]
    guard = sum(base << s for s in shifts)
    used = sum((base - 1 - cap) << s for s, cap in zip(shifts, caps))
    packed = [sum(int(d) << s for s, d in zip(shifts, demands[:, r].tolist())) for r in range(num_flows)]
    demand_of = np.array(packed, dtype=object)
    arrived, admitted_in = (np.zeros(num_flows * slots, dtype=np.int64) for _ in range(2))
    # admitted calls that depart after the last arrival of their window, in no order
    carried_times, carried_flows = np.empty(0), np.empty(0, dtype=np.int64)

    active_ids = np.array(active, dtype=np.int64)
    for window in zip(*readers):
        times = np.concatenate([w[0] for w in window])
        holds = np.concatenate([w[1] for w in window])
        sizes = [w[0].size for w in window]
        # zip refills its tuple only if nothing else holds it; else it
        # builds a new one, and every other window outlives the next,
        # holding a spent piece and block of every flow
        del window
        n = times.size
        if n == 0:
            continue
        order = np.argsort(times, kind="stable")
        times = times[order]
        departures = times + holds[order]
        flows = np.repeat(active_ids, sizes)[order]
        first, last = edges.searchsorted(times[[0, -1]], side="left").tolist()
        # a window inside one batch has a single slot
        cells = flows * slots + (first if first == last else np.searchsorted(edges, times, side="left"))
        arrived += np.bincount(cells, minlength=arrived.size)
        release = _release_slots(times, departures)
        pending = [0] * (n + 1)  # pending[n] collects the demands carried on
        # a carried call is freed at the first arrival at or after its
        # departure; one with no such arrival waits for a later window
        waiting = np.searchsorted(times, carried_times, side="left")
        due = waiting < n
        for slot, flow in zip(waiting[due].tolist(), carried_flows[due].tolist()):
            pending[slot] += packed[flow]
        flags = bytearray(n)
        used = _serve(pending, demand_of[flows].tolist(), release.tolist(), flags, used, guard)
        admitted = np.frombuffer(flags, dtype=bool)
        admitted_in += np.bincount(cells[admitted], minlength=admitted_in.size)
        leaving = admitted & (release == n)
        carried_times = np.concatenate((carried_times[~due], departures[leaving]))
        carried_flows = np.concatenate((carried_flows[~due], flows[leaving]))

    arrived = arrived.reshape(num_flows, slots)
    admitted_cells = admitted_in.reshape(num_flows, slots)
    arrivals, admitted = arrived.sum(axis=1), admitted_cells.sum(axis=1)
    # flows x batches; an empty batch has no arrivals to block, so its
    # blocking sample is 0
    arr_b, adm_b = arrived[:, 1:].astype(float), admitted_cells[:, 1:].astype(float)
    block_b = np.where(arr_b > 0, (arr_b - adm_b) / np.maximum(arr_b, 1.0), 0.0)
    carried_b = nu[:, None] * (1.0 - block_b)
    root_batches = math.sqrt(config.batches)

    # every arrival is one event, and so is every departure: all admitted calls
    # but those still in service at the horizon
    events = int(arrivals.sum() + admitted.sum()) - int(np.count_nonzero(carried_times > config.horizon))
    return SimResult(
        blocking=block_b.mean(axis=1),
        blocking_se=block_b.std(axis=1, ddof=1) / root_batches,
        carried=carried_b.mean(axis=1),
        carried_se=carried_b.std(axis=1, ddof=1) / root_batches,
        arrivals=arrivals,
        admitted=admitted,
        blocked=arrivals - admitted,
        events=events,
    )
