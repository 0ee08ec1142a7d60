"""Whole-run reference for the event simulator.

This is the simulator as it was before it streamed: every flow's
arrivals are drawn up front, concatenated, ordered by one global stable
argsort and replayed against a departure heap.  Its memory grows with
rate x horizon, so it lives here as the oracle that `sliceforge.simulate`
must match bit for bit, not in the library.

`checked_serve` is the simulator's own event loop with its occupancy
invariant checked after every release and every arrival; tests put it
in place of `sim._serve`.
"""

import heapq
import itertools
import math

import numpy as np

from sliceforge.model import demand_matrix, offered_vector
from sliceforge.sim import SimResult

CHUNK = 65536


def flow_stream(seed, index, rate, horizon, chunk):
    """Arrival times in (0, horizon] and matching holding times."""
    if rate <= 0.0:
        return np.empty(0), np.empty(0)
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    parts = []
    last = 0.0
    while last <= horizon:
        times = last + np.cumsum(gen.exponential(1.0 / rate, size=chunk))
        parts.append(times)
        last = float(times[-1])
    times = np.concatenate(parts)
    times = times[times <= horizon]
    return times, gen.exponential(1.0, size=times.size)


def oracle_simulate(model, alloc, config, chunk=CHUNK):
    """`simulate` on an erlang_b model with integer capacities, whole-run."""
    caps = [int(c) for c in np.rint(np.asarray(alloc.values, dtype=float))]
    nu = offered_vector(model)
    demands = demand_matrix(model).astype(np.int64)
    num_flows = model.num_flows
    routes = [
        [(j, int(demands[j, r])) for j in range(model.m) if demands[j, r]]
        for r in range(num_flows)
    ]

    streams = [
        flow_stream(config.seed, r, float(nu[r]), config.horizon, chunk) for r in range(num_flows)
    ]
    if num_flows:
        times = np.concatenate([s[0] for s in streams])
        holds = np.concatenate([s[1] for s in streams])
        flow_of = np.concatenate([np.full(s[0].size, r, dtype=np.int64) for r, s in enumerate(streams)])
        order = np.argsort(times, kind="stable")
    else:
        times = holds = np.empty(0)
        flow_of = np.empty(0, dtype=np.int64)
        order = np.empty(0, dtype=np.int64)

    occupied = [0] * model.m
    admitted_flag = np.zeros(times.size, dtype=bool)
    heap = []  # (departure time, seq, flow)
    seq = 0
    events = 0

    def release(flow):
        for j, units in routes[flow]:
            occupied[j] -= units

    for idx in order.tolist():
        t = float(times[idx])
        while heap and heap[0][0] <= t:
            release(heapq.heappop(heap)[2])
            events += 1
        flow = int(flow_of[idx])
        route = routes[flow]
        if all(occupied[j] + units <= caps[j] for j, units in route):
            for j, units in route:
                occupied[j] += units
            heapq.heappush(heap, (t + float(holds[idx]), seq, flow))
            seq += 1
            admitted_flag[idx] = True
        events += 1
        assert all(0 <= occupied[j] <= caps[j] for j in range(model.m))
    while heap and heap[0][0] <= config.horizon:
        release(heapq.heappop(heap)[2])
        events += 1

    post_warmup = sum(int(s[0].size - np.searchsorted(s[0], config.warmup, side="right")) for s in streams)
    if post_warmup < config.batches and float(nu.sum()) > 0.0:
        raise ValueError("horizon too short for requested batches")

    edges = np.linspace(config.warmup, config.horizon, config.batches + 1)
    blocking = np.zeros(num_flows)
    blocking_se = np.zeros(num_flows)
    carried = np.zeros(num_flows)
    carried_se = np.zeros(num_flows)
    arrivals = np.zeros(num_flows, dtype=np.int64)
    admitted = np.zeros(num_flows, dtype=np.int64)
    offset = 0
    root_batches = math.sqrt(config.batches)
    for r in range(num_flows):
        flow_times = streams[r][0]
        count = flow_times.size
        flags = admitted_flag[offset : offset + count]
        offset += count
        arrivals[r] = count
        admitted[r] = int(flags.sum())
        cut = np.searchsorted(flow_times, edges, side="right")
        arr_b = np.diff(cut).astype(float)
        cum = np.concatenate([[0], np.cumsum(flags)])
        adm_b = (cum[cut[1:]] - cum[cut[:-1]]).astype(float)
        block_b = np.where(arr_b > 0, (arr_b - adm_b) / np.maximum(arr_b, 1.0), 0.0)
        blocking[r] = float(block_b.mean())
        blocking_se[r] = float(block_b.std(ddof=1) / root_batches)
        carried_b = nu[r] * (1.0 - block_b)
        carried[r] = float(carried_b.mean())
        carried_se[r] = float(carried_b.std(ddof=1) / root_batches)

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


def serve_checked(pending, demands, release, flags, used, guard, check):
    """`sim._serve`, with `check(used)` after every release and every arrival."""
    for k, released, demand, slot in zip(itertools.count(), pending, demands, release):
        if released:
            used -= released
            check(used)
        trial = used + demand
        if not trial & guard:
            used = trial
            pending[slot] += demand
            flags[k] = 1
        check(used)
    return used


def occupancy_invariant(caps, guard):
    """The check that the packed occupancy `used` holds 0 <= used_j <=
    cap_j units on every entity j and nothing past the last field.  The
    layout is read off `guard`: fields of `width` bits, entity j's at bits
    [j width, (j + 1) width), each with its guard bit base = 2^(width - 1)
    at the top, holding base - 1 - cap_j + used_j."""
    base = guard & -guard
    width = base.bit_length()
    shifts = [j * width for j in range(len(caps))]
    assert guard == sum(base << s for s in shifts), "guard bits off the field layout"

    def invariant(used):
        assert used >> (len(caps) * width) == 0, "occupancy carried past the last field"
        units = [(used >> s & (2 * base - 1)) - (base - 1 - c) for s, c in zip(shifts, caps)]
        assert all(0 <= u <= c for u, c in zip(units, caps)), "occupancy out of range"

    return invariant


def checked_serve(alloc):
    """A stand-in for `sim._serve` at integer capacities `alloc` that
    checks the occupancy invariant after every release and every arrival."""
    caps = [int(c) for c in np.rint(np.asarray(alloc.values, dtype=float))]

    def serve(pending, demands, release, flags, used, guard):
        return serve_checked(pending, demands, release, flags, used, guard, occupancy_invariant(caps, guard))

    return serve
