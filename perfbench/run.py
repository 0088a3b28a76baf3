#!/usr/bin/env python3
"""Run one benchmark workload once and print its metrics.

    python3 perfbench/run.py --workload adapt-s --seed 0 --trace 0

Run it from the root of a checkout: the package is imported from
``src/``, nothing needs installing.  Calls repeat back to back, with the
same inputs, until the next one would end after ``--seconds`` (at least
one call; the default is ``run_seconds`` of ``BENCHMARK.json``).  Every
call's output is checked and must repeat bit for bit.

``--trace 0`` reports the end-to-end metrics: median wall time per call,
per step and per realization, set-up time (median of five fresh
interpreters that import, build the model and make a first small call)
and peak RSS.  Times are scaled to the reference host speed by a
calibration kernel sampled during each call (see ``hostspeed.py``); the
raw times go to the record.
``--trace 1`` makes one untraced call, then traced calls, and reports
the per-layer metrics of ``BENCHMARK.json`` per call: spans wrap the
package's public functions from outside ``src/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(metadata, per-call outputs, every metric) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from workloads import MODEL, WORKLOADS, seed_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
TINY_STOCH_CHUNK = 32  # tiny runs split their one batch so the pool starts

LAYERS = ("rng", "jumps", "euler", "duals", "density", "model", "controller")

# (module, attribute, span name).  The controller imports its callees by
# name, so its own bindings are wrapped; ``sample_jumps`` finds its two
# helpers as globals of ``jumps``.
SPANS = (
    ("controller", "algorithm_d", "controller.algorithm_d"),
    ("controller", "algorithm_s", "controller.algorithm_s"),
    ("controller", "monte_carlo", "controller.monte_carlo"),
    ("controller", "run_mesh_batch", "controller.run_mesh_batch"),
    ("controller", "control_time_error", "controller.control_time_error"),
    ("controller", "realization_streams", "rng.realization_streams"),
    ("controller", "intensity_integral_for", "jumps.intensity_integral_for"),
    ("controller", "sample_jumps", "jumps.sample_jumps"),
    ("jumps", "sample_jump_times", "jumps.sample_jump_times"),
    ("jumps", "sample_marks", "jumps.sample_marks"),
    ("controller", "build_augmented_grid", "jumps.build_augmented_grid"),
    ("controller", "sample_wiener_increments", "euler.sample_wiener_increments"),
    ("controller", "euler_path", "euler.euler_path"),
    ("controller", "brownian_bridge_refine", "euler.brownian_bridge_refine"),
    ("controller", "backward_duals", "duals.backward_duals"),
    ("controller", "rho_per_step", "density.rho_per_step"),
    ("controller", "cutoff_density_S", "density.cutoff_density_S"),
)

# per-layer metric -> (span name, statistic, unit); statistics are per call
SPAN_METRICS = {
    "rng.realization_streams.s": ("rng.realization_streams", "self", "s"),
    "rng.realization_streams.calls": ("rng.realization_streams", "calls", "count"),
    "jumps.sample_jumps.s": ("jumps.sample_jumps", "self", "s"),
    "jumps.sample_jumps.calls": ("jumps.sample_jumps", "calls", "count"),
    "jumps.sample_jump_times.s": ("jumps.sample_jump_times", "self", "s"),
    "jumps.sample_marks.s": ("jumps.sample_marks", "self", "s"),
    "jumps.build_augmented_grid.s": ("jumps.build_augmented_grid", "self", "s"),
    "jumps.build_augmented_grid.calls": ("jumps.build_augmented_grid", "calls", "count"),
    "euler.sample_wiener_increments.s": ("euler.sample_wiener_increments", "self", "s"),
    "euler.euler_path.s": ("euler.euler_path", "self", "s"),
    "euler.euler_path.calls": ("euler.euler_path", "calls", "count"),
    "euler.brownian_bridge_refine.s": ("euler.brownian_bridge_refine", "self", "s"),
    "euler.brownian_bridge_refine.calls": ("euler.brownian_bridge_refine", "calls", "count"),
    "duals.backward_duals.s": ("duals.backward_duals", "self", "s"),
    "duals.backward_duals.calls": ("duals.backward_duals", "calls", "count"),
    "density.rho_per_step.s": ("density.rho_per_step", "self", "s"),
    "density.rho_per_step.calls": ("density.rho_per_step", "calls", "count"),
    "density.cutoff_density_S.s": ("density.cutoff_density_S", "self", "s"),
    "controller.run_mesh_batch.self_s": ("controller.run_mesh_batch", "self", "s"),
    "controller.control_time_error.self_s": ("controller.control_time_error", "self", "s"),
    "controller.monte_carlo.self_s": ("controller.monte_carlo", "self", "s"),
    "controller.run_stochastic_batch.self_s": ("controller.run_stochastic_batch", "self", "s"),
    "controller.pool.s": ("controller.pool", "total", "s"),
}


def record_stem(workload, seed, trace, tiny):
    """File name stem of a run's record in ``.bench_out/``."""
    return f"{workload}-seed{seed}-trace{trace}{'-tiny' if tiny else ''}"


def import_package():
    """Import ``jumpmc`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "jumpmc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import jumpmc

    if Path(jumpmc.__file__).resolve().parent != (SRC / "jumpmc").resolve():
        raise SystemExit(f"perfbench: imported jumpmc from {jumpmc.__file__}")
    return jumpmc


def metadata():
    import numpy
    import scipy

    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        sha = ref
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))
        ),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class PoolCounter:
    """Counts worker pools started by the controller; spans them if traced.

    The speed probe, when set, pauses while a pool is alive.
    """

    def __init__(self, controller):
        self.starts = 0
        self.tracer = None  # set to span each pool's lifetime
        self.probe = None  # set to pause speed sampling while a pool lives
        counter = self
        base = controller.ProcessPoolExecutor

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                counter.starts += 1
                self._probe = counter.probe
                if self._probe:
                    self._probe.paused += 1
                self._tracer = counter.tracer
                self._span = None
                if self._tracer:
                    self._span = self._tracer.open("controller.pool")
                    # forked workers inherit the patched globals; they
                    # run untraced, since their spans would be discarded
                    kwargs.setdefault("initializer", self._tracer.restore)
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._probe:
                        self._probe.paused -= 1
                        self._probe = None
                    if self._span is not None:
                        self._tracer.close(self._span)
                        self._span = None

        self._controller = controller
        self._base = base
        controller.ProcessPoolExecutor = CountingPool

    def restore(self):
        self._controller.ProcessPoolExecutor = self._base


@dataclasses.dataclass
class Call:
    wall: float
    scaled: float  # wall time at the reference host speed; raw when unprobed
    outcome: object  # workloads.Outcome, or None when the call raised
    problems: list
    pools: int


def make_call(
    workload, controller, model, seeds, tiny, pools, workers=None, probe=None
):
    tol = workload.tiny_tol if tiny else workload.tol
    workers = workload.workers if workers is None else workers

    def call():
        before = pools.starts
        with probe or contextlib.nullcontext():
            start = time.perf_counter()
            try:
                out = workload.call(controller, model, seeds, tol, tiny, workers)
            except Exception as exc:  # a failing call is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
        scaled = probe.scaled(wall) if probe else wall
        if out is None:
            return Call(wall, scaled, None, [error], 0)
        started = pools.starts - before
        problems = workload.check(out, tiny)
        if workers > 1 and started == 0:
            problems.append("no worker pool started: the run fell back to one process")
        return Call(wall, scaled, out, problems, started)

    return call


def repeat(call, seconds):
    """Calls until the next one would end after ``seconds``; at least one."""
    calls = []
    began = time.perf_counter()
    while True:
        calls.append(call())
        elapsed = time.perf_counter() - began
        typical = statistics.median(c.wall for c in calls)
        if elapsed + typical > seconds:
            return calls


def check_identity(calls, reference):
    """Every call must reproduce ``reference`` bit for bit."""
    for c in calls:
        if c.outcome is not None and c.outcome.identity() != reference:
            c.problems.append(
                f"output {c.outcome.identity()} differs from {reference} "
                "for the same code and seed"
            )


def setup_seconds(workload, seed):
    """Median time for a fresh interpreter to import, build and call once.

    Returns (scaled, raw): each probe's time is scaled by kernel samples
    taken just before and just after it (the parent waits meanwhile).
    """
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        samples = [hostspeed.timed_kernel() for _ in range(hostspeed.EDGE_SAMPLES)]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "first_call.py"), workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        samples += [hostspeed.timed_kernel() for _ in range(hostspeed.EDGE_SAMPLES)]
        scaled.append(hostspeed.scale(times[-1], samples))
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return statistics.median(scaled), statistics.median(times)


def traced_model(model, tracer):
    """Copy of ``model`` whose coefficient callbacks are wrapped in spans.

    The mark sampler stays unwrapped: drawing marks is part of the jumps
    layer, timed by ``jumps.sample_marks``.
    """
    wrapped = {
        f.name: tracer.wrap(f"model.{f.name}", getattr(model, f.name))
        for f in dataclasses.fields(model)
        if callable(getattr(model, f.name)) and f.name != "mark_sampler"
    }
    return dataclasses.replace(model, **wrapped)


def install_tracer(tracer, modules, levels):
    """Patch every span of ``SPANS`` plus ``run_stochastic_batch``."""
    controller = modules["controller"]
    for module, attr, name in SPANS:
        tracer.patch(modules[module], attr, name)
    inner = controller.run_stochastic_batch

    def observed(*args, **kwargs):
        res = inner(*args, **kwargs)
        levels[0] += int(res["levels"].sum())
        levels[1] += len(res["levels"])
        return res

    tracer.patch(
        controller, "run_stochastic_batch", "controller.run_stochastic_batch", observed
    )


def layer_metrics(tracer, calls, untraced_wall, pool_starts, levels):
    k = len(calls)
    stats = tracer.stats
    metrics = {}
    for metric, (span, stat, unit) in SPAN_METRICS.items():
        calls_, total, self_s = stats.get(span, (0, 0.0, 0.0))
        value = {"calls": calls_, "total": total, "self": self_s}[stat] / k
        metrics[metric] = (value, unit)
    callbacks = [v for name, v in stats.items() if name.startswith("model.")]
    metrics["model.callback.calls"] = (sum(v[0] for v in callbacks) / k, "count")
    metrics["model.callback.s"] = (sum(v[2] for v in callbacks) / k, "s")
    for layer in LAYERS:
        self_s = sum(v[2] for n, v in stats.items() if n.split(".")[0] == layer)
        metrics[f"layer.{layer}.s"] = (self_s / k, "s")
    out = calls[0].outcome
    metrics["controller.pool.starts"] = (pool_starts / k, "count")
    metrics["controller.levels_mean"] = (levels[0] / levels[1] if levels[1] else 0.0, "count")
    metrics["controller.useful_step_ratio"] = (out.total_steps / out.total_work, "ratio")
    metrics["controller.work_steps"] = (out.total_work, "count")
    metrics["controller.paths"] = (out.total_realizations, "count")
    metrics["controller.rejected"] = (out.rejected, "count")
    traced_wall = statistics.median(c.wall for c in calls)
    all_self = sum(v[2] for v in stats.values()) / k
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.unaccounted_s"] = (sum(c.wall for c in calls) / k - all_self, "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="smoke-test sizes (see report.py)"
    )
    args = parser.parse_args(argv)

    jumpmc = import_package()
    from jumpmc import controller, jumps
    from tracing import Tracer

    workload = WORKLOADS[args.workload]
    seeds = seed_config(args.seed)
    model = jumpmc.build_model(MODEL)
    if args.tiny:
        controller.STOCH_CHUNK = TINY_STOCH_CHUNK
    pools = PoolCounter(controller)

    # warm-up: the small first call that set-up time also covers
    workload.call(
        controller, model, seeds, workload.tiny_tol, True, workload.workers
    )

    calls = []
    reference = None
    if workload.workers > 1 and (args.trace or args.tiny):
        # worker invariance: the one-process result is the reference
        ref = make_call(workload, controller, model, seeds, args.tiny, pools, workers=1)()
        calls.append(ref)
        if ref.outcome is not None:
            reference = ref.outcome.identity()

    if args.trace:
        untraced = make_call(workload, controller, model, seeds, args.tiny, pools)()
        calls.append(untraced)
        tracer = Tracer()
        levels = [0, 0]
        install_tracer(tracer, {"controller": controller, "jumps": jumps}, levels)
        pools.tracer = tracer
        starts_before = pools.starts
        if workload.workers == 1:
            # workers rebuild the model by name, so only one process can
            # count callbacks
            model = traced_model(model, tracer)
        timed = repeat(
            make_call(workload, controller, model, seeds, args.tiny, pools), args.seconds
        )
        tracer.restore()
        calls.extend(timed)
    else:
        probe = hostspeed.SpeedProbe()
        pools.probe = probe
        timed = repeat(
            make_call(workload, controller, model, seeds, args.tiny, pools, probe=probe),
            args.seconds,
        )
        calls.extend(timed)
    pools.restore()

    done = [c for c in calls if c.outcome is not None]
    if reference is None and done:
        reference = done[0].outcome.identity()
    check_identity(calls, reference)
    failed = sum(1 for c in calls if c.problems)
    timed_ok = [c for c in timed if c.outcome is not None]
    if not timed_ok:
        for c in calls:
            print("\n".join(c.problems), file=sys.stderr)
        raise SystemExit("perfbench: every timed call raised")

    out = timed_ok[0].outcome
    if args.trace:
        starts = pools.starts - starts_before
        metrics = layer_metrics(tracer, timed_ok, untraced.wall, starts, levels)
    else:
        # the parent's peak plus the largest pool worker's peak (getrusage
        # reports only the largest child), read before the set-up probes
        # below become children too
        peak_kb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
        wall = statistics.median(c.scaled for c in timed_ok)
        setup, raw_setup = setup_seconds(args.workload, args.seed)
        metrics = {
            "wall_s": (wall, "s"),
            "us_per_step": (wall / out.total_work * 1e6, "us"),
            "us_per_path": (wall / out.total_realizations * 1e6, "us"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
        raw = {
            "wall_s": statistics.median(c.wall for c in timed_ok),
            "setup_s": raw_setup,
        }

    meta = metadata()
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
        f"{' tiny' if args.tiny else ''}: {len(timed)} timed call(s), "
        f"{failed}/{len(calls)} failed"
    )
    for c in calls:
        for p in c.problems:
            print(f"  FAILED: {p}")
    print(
        f"  estimate={out.estimate!r} total_work={out.total_work} "
        f"total_realizations={out.total_realizations} e_c={out.e_c:.6g}"
    )
    print(f"  failed_frac = {failed / len(calls):g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if not args.trace:
        print("  raw (unscaled): " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    print("  " + " ".join(f"{k}={v}" for k, v in meta.items()))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_config": dataclasses.asdict(seeds),
        "trace": args.trace,
        "tiny": args.tiny,
        "metadata": meta,
        "calls": [
            {
                "wall_s": c.wall,
                "scaled_wall_s": c.scaled,
                "problems": c.problems,
                "pools_started": c.pools,
                "outcome": dataclasses.asdict(c.outcome) if c.outcome else None,
            }
            for c in calls
        ],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if not args.trace:
        record["raw_metrics"] = raw
    OUT.mkdir(exist_ok=True)
    stem = record_stem(args.workload, args.seed, args.trace, args.tiny)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float) + "\n")
    if args.trace:
        tracer.save(OUT / f"{stem}-spans.npz")

    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
