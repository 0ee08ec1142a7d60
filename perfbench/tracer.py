"""Per-layer spans, recorded from outside the program.

`install` replaces each layer's public functions with timing wrappers
under the names their callers import them by (``sliceforge.outer.surrogate``,
``sliceforge.inner.utilization_integral``, ...), and the kernel methods of
every registered loss family with wrappers on the instances.  Nothing in
the package changes; the wrappers live only in the traced interpreter.

A span knows its parent (the innermost open span).  Self time is the
span's duration minus the durations of its child spans, so the self
times of all spans add up to the durations of the root spans.  Spans
are aggregated per (parent, name) edge as they close: a demo solve opens
about a million kernel spans, too many to keep one record each.
"""

from __future__ import annotations

import importlib
import resource
import time
from collections import defaultdict

# Span names whose per-call durations are kept for percentiles.
_KEEP_DURATIONS = ("loss.utilization_integral",)


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []  # open spans: [name, ns covered by children]
        self._depth: dict[str, int] = defaultdict(int)  # open spans per layer
        self.edges: dict[tuple, list[int]] = {}  # (parent, name) -> [calls, total_ns, self_ns]
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[int]] = {name: [] for name in _KEEP_DURATIONS}

    def inside(self, layer: str) -> bool:
        return self._depth[layer] > 0

    def span(self, name, fn, before=None, after=None):
        stack, depth, edges, counts = self._stack, self._depth, self.edges, self.counts
        layer = name.split(".", 1)[0]
        keep = self.durations.get(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            parent = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            depth[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".raised"] += 1
                raise
            finally:
                dur = clock() - start
                depth[layer] -= 1
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                edge = edges.get((parent, name))
                if edge is None:
                    edge = edges[(parent, name)] = [0, 0, 0]
                edge[0] += 1
                edge[1] += dur
                edge[2] += dur - frame[1]
                if keep is not None:
                    keep.append(dur)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def snapshot(self) -> dict:
        """Everything the parent needs, as JSON-ready data."""
        pct = {}
        for name, values in self.durations.items():
            values = sorted(values)
            pct[name] = [_quantile(values, 0.5), _quantile(values, 0.99)] if values else [0.0, 0.0]
        return {
            "edges": [[p, n, c, t, s] for (p, n), (c, t, s) in sorted(self.edges.items(), key=str)],
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "percentiles_ns": pct,
        }


def _quantile(sorted_values, q):
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _resident_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize() / 2**20


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer, where their callers look them up."""
    from sliceforge import cli, fixedpoint, inner, model, outer, sim

    loss = importlib.import_module("sliceforge.loss")  # the package's `loss` attribute is the function

    counts, maxima = tracer.counts, tracer.maxima

    def patch(module, attr, name, **hooks):
        setattr(module, attr, tracer.span(name, getattr(module, attr), **hooks))

    def fixed_point_done(state):
        counts["fixedpoint.iterations"] += state.iterations

    def surrogate_started():
        if tracer.inside("outer"):
            counts["outer.surrogate_solves"] += 1

    def surrogate_done(sol):
        counts["inner.pg_iterations"] += sol.iterations
        counts["inner.converged"] += int(sol.converged)

    def fw_done(trace):
        counts["outer.fw_iterations"] += trace.iterations
        maxima["outer.certificate_max"] = max(maxima["outer.certificate_max"], float(trace.certificate))

    # Peak resident growth during a simulate call: the process high-water
    # mark after it minus the resident set before it.  (tracemalloc would
    # give allocation peaks, but slows the event loop 25-fold.)
    resident_before = []

    def simulate_started():
        resident_before.append(_resident_mb())

    def simulated(result):
        counts["sim.events"] += int(result.events)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        growth = max(0.0, peak - resident_before.pop())
        maxima["sim.peak_rss_growth_mb"] = max(maxima["sim.peak_rss_growth_mb"], growth)

    # cli: the root span of every operation
    patch(cli, "run", "cli.run")

    # model
    patch(cli, "load_model", "model.load_model")
    patch(cli, "check_feasible", "model.check_feasible")
    patch(cli, "no_blocking_loads", "model.no_blocking_loads")
    for module, attrs in (
        (cli, ("incidence",)),
        (model, ("incidence", "demand_matrix", "offered_vector")),
        (fixedpoint, ("demand_matrix", "offered_vector")),
        (inner, ("demand_matrix", "offered_vector")),
        (outer, ("incidence",)),
        (sim, ("demand_matrix", "offered_vector")),
    ):
        for attr in attrs:
            patch(module, attr, "model.arrays")

    # loss: public functions, then the family methods they dispatch to
    patch(fixedpoint, "loss", "loss.loss")
    patch(fixedpoint, "utilization_measure", "loss.utilization_measure")
    patch(inner, "utilization", "loss.utilization")
    for module in (inner, outer):
        patch(module, "utilization_integral", "loss.utilization_integral")
        patch(module, "log_loss_ceiling", "loss.log_loss_ceiling")
    for kind in loss.loss_kinds():
        family = loss.get_family(kind)
        family.offered_at = tracer.span("loss.offered_at", family.offered_at)
        for method in ("blocking", "survival", "survival_scalar"):
            setattr(family, method, tracer.span("loss.kernel", getattr(family, method)))

    # fixedpoint
    patch(cli, "solve_fixed_point", "fixedpoint.solve", after=fixed_point_done)
    patch(cli, "diagnostics", "fixedpoint.diagnostics")

    # inner
    for module in (cli, outer):
        patch(module, "surrogate", "inner.surrogate", before=surrogate_started, after=surrogate_done)
    patch(inner, "inner_objective", "inner.objective")
    patch(inner, "inner_gradient", "inner.gradient")

    # outer: maximize_surrogate is also called from inside solve_reconfig,
    # whose own trace then covers only the joint solve.
    for module in (cli, outer):
        patch(module, "maximize_surrogate", "outer.maximize_surrogate", after=lambda res: fw_done(res[1]))
    patch(cli, "solve_reconfig", "outer.solve_reconfig", after=lambda res: fw_done(res.trace_joint))
    patch(outer, "supergradient", "outer.supergradient")
    patch(outer, "lp_solve", "outer.lp_solve")

    # sim
    patch(cli, "simulate", "sim.simulate", before=simulate_started, after=simulated)

    # report
    patch(cli, "render_json", "report.render_json")
    patch(cli, "render_csv", "report.render_csv")
    patch(cli, "sha256_bytes", "report.sha256_bytes")
