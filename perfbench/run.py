"""sliceforge benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload demo-solve --seed 1 --seconds 25 --trace 0

Run it from the root of a sliceforge checkout; it imports the package
from ./src.  Every pass of the workload is a fresh single-threaded
interpreter (perfbench/worker.py, BLAS threads pinned to 1) that runs the
operations one after another through `sliceforge.cli.run`, so module
caches start cold as they do for a CLI user.

--trace 0 measures end to end: a few set-up-only interpreters for
setup_s, then passes until --seconds is spent (at least one).  Times are
scaled to the speed gauge's reference speed (calibrate.py), since the
machine's own speed drifts; the raw figures are printed beside them.
--trace 1 measures layers: one untraced pass, then two traced passes
whose counts must agree exactly; times come from the first.

Every operation is checked against the reference outputs in
perfbench/references.  The last stdout line is one JSON object with
correct, attempted, failed and metrics; the exit code is 1 when any
check failed and 2 when the checkout has no package to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0

LAYERS = ("cli", "model", "loss", "fixedpoint", "inner", "outer", "sim", "report")
# Spans reported with call counts and self-time shares.
SPANS = (
    "loss.utilization_integral",
    "loss.offered_at",
    "loss.kernel",
    "loss.utilization",
    "loss.utilization_measure",
    "loss.loss",
    "model.arrays",
    "inner.surrogate",
    "outer.supergradient",
    "outer.lp_solve",
)
SHARE_ONLY = ("fixedpoint.solve", "fixedpoint.diagnostics", "sim.simulate", "report.render_json")
# Deterministic counts compared between the two traced passes.
COUNTED = ("fixedpoint.iterations", "inner.pg_iterations", "inner.converged", "inner.objective.raised",
           "outer.fw_iterations", "outer.surrogate_solves", "sim.events")


class WorkerError(RuntimeError):
    pass


class Bench:
    def __init__(self, workload: str, seed: int, root: str, references: dict | None = None):
        self.workload, self.seed, self.root = workload, seed, root
        self.workdir = os.path.join(root, ".perfbench-work", f"{workload}-{seed}-{os.getpid()}")
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            self.env[var] = "1"
        if references is None:
            with open(os.path.join(HERE, "references", workload + ".json"), encoding="utf-8") as fh:
                references = json.load(fh)
        self.references = references
        self.runs = 0
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, mode: str, trace: bool = False) -> dict:
        """Run one worker; its result gains the set-up seconds as "setup_s"."""
        self.runs += 1
        directory = os.path.join(self.workdir, f"{mode}{self.runs}")
        os.makedirs(directory)
        cpus = sorted(os.sched_getaffinity(0))
        config = {"workload": self.workload, "seed": self.seed, "dir": directory, "mode": mode, "trace": trace,
                  "cpu": cpus[self.runs % len(cpus)]}
        timeout = max(1.0, self.deadline - time.monotonic())
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, json.dumps(config)],
                cwd=self.root, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"worker exceeded the {TIME_LIMIT_S:.0f} s run limit") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
        result = json.loads(lines[-1])
        if not result["package"].startswith(os.path.join(self.root, "src") + os.sep):
            raise WorkerError(f"worker imported sliceforge from {result['package']}, not from ./src")
        result["setup_s"] = result["ready"] - start
        return result

    def run_pass(self, trace: bool = False) -> dict:
        """One pass over the operations, every output checked."""
        result = self.spawn("pass", trace)
        for record in result["ops"]:
            self.attempted += 1
            bad = checks.check(record, self.references["ops"].get(record["key"]))
            if bad:
                self.failures.append(f"{record['key']}: {'; '.join(bad)}")
        return result


# ---------------------------------------------------------------------------
# metrics


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _wall(result, command=None, raw=False):
    """Summed operation seconds of a pass, at the gauge's reference speed
    unless raw (calibrate.py); gauge ticks are excluded either way."""
    return sum(
        op["wall_s"] * (1.0 if raw else op["speed"])
        for op in result["ops"]
        if command in (None, op["command"])
    )


def _events(result):
    total = 0
    for op in result["ops"]:
        if op["command"] == "simulate" and op["exit"] == 0:
            with open(op["out"], encoding="utf-8") as fh:
                total += json.load(fh)["events"]
    return total


def _setup(result, raw=False):
    """Set-up seconds, at the reference speed unless raw (gauged right after set-up)."""
    return result["setup_s"] * (1.0 if raw else result["setup_speed"])


def end_to_end(bench: Bench, seconds: float):
    """setup_s from set-up-only interpreters and every pass; the rest per pass.

    Times are at the speed gauge's reference speed (calibrate.py); the
    raw figures are printed beside them.
    """
    bench.spawn("setup")  # warm-up: byte-compiles the package on a fresh checkout
    workers = [bench.spawn("setup") for _ in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while True:
        passes.append(bench.run_pass())
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    workers += passes

    def per_pass(command, raw=False):
        return _median([_wall(p, command, raw) for p in passes])

    metrics = {
        "setup_s": (_median([_setup(w) for w in workers]), "s"),
        "ops_s": (per_pass(None), "s"),
        "peak_rss_mb": (_median([p["peak_rss_kb"] / 1024.0 for p in passes]), "MB"),
    }
    print("# raw ops_s of each pass: " + " ".join(f"{_wall(p, raw=True):.4g}" for p in passes))
    extra = {
        "passes": (len(passes), "count"),
        "speed_factor": (_median([op["speed"] for p in passes for op in p["ops"]]), "ratio"),
        "setup_s.raw": (_median([_setup(w, raw=True) for w in workers]), "s"),
        "ops_s.raw": (per_pass(None, raw=True), "s"),
    }
    commands = {op["command"] for op in passes[0]["ops"]}
    for command, name in (("solve", "solve_s"), ("solve-reconfig", "reconfig_s"), ("evaluate", "evaluate_s")):
        if command in commands:
            extra[name] = (per_pass(command), "s")
    if "simulate" in commands:
        extra["sim_events_per_s"] = (_median([_events(p) / _wall(p, "simulate") for p in passes]), "1/s")
    return metrics, extra


def _by_name(snapshot):
    out = {}
    for _, name, calls, _, self_ns in snapshot["edges"]:
        acc = out.setdefault(name, [0, 0])
        acc[0] += calls
        acc[1] += self_ns
    return out


def _counts(snapshot):
    """Every deterministic count of a traced pass: span calls per edge plus COUNTED."""
    counts = {f"{p} > {n}": c for p, n, c, _, _ in snapshot["edges"]}
    counts.update({k: snapshot["counts"].get(k, 0) for k in COUNTED})
    return counts


def per_layer(bench: Bench):
    untraced = bench.run_pass()
    traced = bench.run_pass(trace=True)
    again = bench.run_pass(trace=True)

    first, second = _counts(traced["trace"]), _counts(again["trace"])
    differ = sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))
    if differ:
        bench.failures.append("counts differ between the two traced passes: " + ", ".join(differ[:8]))

    snap = traced["trace"]
    names = _by_name(snap)
    counts = snap["counts"]
    wall = sum(op["gross_s"] for op in traced["ops"])  # what the root spans cover
    overhead = _wall(traced) / _wall(untraced) - 1.0  # both at the reference speed

    def calls(name):
        return names.get(name, (0, 0))[0]

    def share(name):
        return names.get(name, (0, 0))[1] / 1e9 / wall

    metrics = {}
    for layer in LAYERS:
        self_ns = sum(s for n, (_, s) in names.items() if n.split(".", 1)[0] == layer)
        metrics[f"{layer}.self_frac"] = (self_ns / 1e9 / wall, "frac")
    for name in SPANS:
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.self_frac"] = (share(name), "frac")
    for name in SHARE_ONLY:
        metrics[f"{name}.self_frac"] = (share(name), "frac")

    surrogates = calls("inner.surrogate")
    objective_evals = calls("inner.objective")
    trials = objective_evals - surrogates  # every surrogate call evaluates its start point once
    fw = counts.get("outer.fw_iterations", 0)
    metrics.update({
        "fixedpoint.iterations": (counts.get("fixedpoint.iterations", 0), "count"),
        "inner.pg_iterations": (counts.get("inner.pg_iterations", 0), "count"),
        "inner.objective_evals": (objective_evals, "count"),
        "inner.gradient_evals": (calls("inner.gradient"), "count"),
        "inner.objective_errors": (counts.get("inner.objective.raised", 0), "count"),
        "inner.armijo_accept_ratio": (counts.get("inner.pg_iterations", 0) / trials if trials > 0 else 0.0, "ratio"),
        "inner.converged_frac": (counts.get("inner.converged", 0) / surrogates if surrogates else 0.0, "ratio"),
        "outer.fw_iterations": (fw, "count"),
        "outer.probes_per_iteration": (counts.get("outer.surrogate_solves", 0) / fw if fw else 0.0, "ratio"),
        "outer.certificate_max": (snap["maxima"].get("outer.certificate_max", 0.0), "erlang"),
        "sim.events": (counts.get("sim.events", 0), "count"),
        "sim.peak_rss_growth_mb": (snap["maxima"].get("sim.peak_rss_growth_mb", 0.0), "MB"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_frac": (overhead, "frac"),
        "trace.attributed_frac": (sum(s for _, s in names.values()) / 1e9 / wall, "frac"),
    })

    # Absolute times for the printout: the shares above times trace.wall_s.
    extra = {f"{name}.self_s": (s / 1e9, "s") for name, (_, s) in sorted(names.items())}
    for name in SPANS:  # inclusive time: the span with everything under it
        total = sum(t for p, n, _, t, _ in snap["edges"] if n == name and p != name)
        extra[f"{name}.total_s"] = (total / 1e9, "s")
    p50, p99 = snap["percentiles_ns"]["loss.utilization_integral"]
    extra["loss.utilization_integral.p50_us"] = (p50 / 1e3, "us")
    extra["loss.utilization_integral.p99_us"] = (p99 / 1e3, "us")
    return metrics, extra, _profile_claims(bench.workload, names, traced)


def _profile_claims(workload, names, traced):
    """The profile the benchmark was designed around, re-checked on each traced run."""
    claims = []
    top = max(names, key=lambda n: names[n][1])
    if workload == "demo-solve":
        claims.append(("largest self time is loss.utilization_integral", top == "loss.utilization_integral", top))
        for op in traced["ops"]:
            if op["key"] == "solve reference_2x3":
                fw, solves = op["counts"].get("outer.fw_iterations", 0), op["counts"].get("outer.surrogate_solves", 0)
                claims.append(("reference_2x3 solve: 2 FW iterations, 33 surrogate solves",
                               (fw, solves) == (2, 33), f"{fw} FW iterations, {solves} surrogate solves"))
    if workload == "closed-ladder":
        claims.append(("largest self time is loss.loss", top == "loss.loss", top))
    return claims


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sliceforge", "cli.py")):
        print("perfbench: no src/sliceforge here; run from the root of a sliceforge checkout", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, root)
    extra, claims = {}, []
    try:
        if args.trace:
            metrics, extra, claims = per_layer(bench)
        else:
            metrics, extra = end_to_end(bench, args.seconds)
    except WorkerError as exc:
        bench.failures.append(str(exc))
        metrics = {}
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bench.workdir))
        except OSError:
            pass  # another run's directory is still there

    failed = len(bench.failures)
    attempted = max(bench.attempted, failed, 1)
    for reason in bench.failures:
        print(f"FAIL {reason}")
    for text, holds, actual in claims:
        print(f"profile {text}: {'holds' if holds else 'does not hold'} ({actual})")
    print(f"{'fail_frac':<40} {failed / attempted:.6g} ratio")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:<40} {value:.6g} {unit}")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
