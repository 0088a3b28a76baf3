"""Command-line front end.

Subcommands:

* ``simulate``: fixed uniform mesh, M realizations, payoff statistics.
* ``estimate``: fixed uniform mesh, signed time-error estimate from the
  dual-weighted density, efficiency index when the exact answer is known.
* ``adapt-d``: deterministic-mesh adaptive driver, one CSV row per
  adaptation iteration plus a final row.
* ``adapt-s``: per-realization adaptive driver, one CSV row per batch.
* ``verify``: desk-scale reproduction of the reference targets with
  PASS/FAIL lines; exit 1 when any target fails.

Configuration comes from flags, optionally seeded by a flat JSON file
(``--config``); flags override file entries.  Every CSV row starts with
a hash of the result-defining configuration (command, model, tolerance,
mesh/batch sizes, statistical constants, seeds, density mode).  Output
paths and worker counts are excluded from the hash: they do not change
the numbers, and identical runs must stay byte-identical for any worker
count.  Exit codes: 0 success, 1 failed verification or runtime model
failure, 2 usage/parameter error, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass

from .controller import (
    AdaptParams,
    StatParams,
    algorithm_d,
    algorithm_s,
    run_interval_batch,
    run_mesh_batch,
    sample_stats,
    statistical_error_bound,
)
from .errors import (
    CapabilityError,
    ConvergenceError,
    EvaluationError,
    JumpMCError,
    ParameterError,
)
from .jumps import uniform_mesh
from .model import build_model
from .rng import SeedConfig

SCHEMA_VERSION = 1

_CONFIG_KEYS = (
    "command",
    "model",
    "tol",
    "n",
    "m",
    "c0",
    "mch",
    "wiener_seed",
    "jump_seed",
    "mark_seed",
    "density",
)


@dataclass(frozen=True)
class RunConfig:
    """Effective run configuration (all sources merged)."""

    command: str
    model: str = "test5"
    tol: float = 0.05
    n: int = 5
    m: int = 100
    c0: float = 1.65
    mch: int = 10
    wiener_seed: int = 7
    jump_seed: int = 20
    mark_seed: int = 101
    density: str = "rhotilde"
    out: str = None
    json_out: str = None
    workers: int = 1

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise ParameterError(f"TOL must lie in (0, 1), got {self.tol}")
        if self.n < 1:
            raise ParameterError(f"N must be >= 1, got {self.n}")
        if self.m < 2:
            raise ParameterError(f"M must be >= 2, got {self.m}")
        for name in ("wiener_seed", "jump_seed", "mark_seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        if self.density not in ("rhodef", "rhotilde"):
            raise ParameterError(
                f"density must be 'rhodef' or 'rhotilde', got {self.density!r}"
            )
        if self.workers < 1:
            raise ParameterError(f"workers must be >= 1, got {self.workers}")

    @property
    def seeds(self) -> SeedConfig:
        return SeedConfig(
            wiener=self.wiener_seed, jump_times=self.jump_seed, marks=self.mark_seed
        )

    def hash(self) -> str:
        payload = {key: getattr(self, key) for key in _CONFIG_KEYS}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _fmt(value) -> str:
    """Round-trip cell formatting; NaN renders empty (unknown)."""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def _write_rows(path: str, header, rows) -> None:
    if not path:
        return
    # lineterminator pinned so the bytes match across platforms
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _write_json(path: str, payload: dict) -> None:
    if path:
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")


def _stat_params(config: RunConfig) -> StatParams:
    return StatParams(c0=config.c0, mch=config.mch, m0=config.m)


def _adapt_params(config: RunConfig) -> AdaptParams:
    return AdaptParams(n_initial=config.n)


def _cmd_simulate(config: RunConfig) -> int:
    model = build_model(config.model)
    det = uniform_mesh(model.horizon, config.n)
    res = run_mesh_batch(
        model, det, config.seeds, 0, config.m, want_density=False, workers=config.workers
    )
    mean, std = sample_stats(res["payoff"])
    e_s = statistical_error_bound(std, config.m, config.c0)
    na_mean, na_std = sample_stats(res["n_a"])
    exact = model.exact_value
    e_c = exact - mean if exact is not None else math.nan
    tag = config.hash()
    header = [
        "config",
        "n",
        "m",
        "estimate",
        "std",
        "e_s",
        "e_c",
        "mean_n_a",
        "min_n_a",
        "max_n_a",
        "std_n_a",
        "max_jumps",
    ]
    row = [
        tag,
        config.n,
        config.m,
        mean,
        std,
        e_s,
        e_c,
        na_mean,
        int(res["n_a"].min()),
        int(res["n_a"].max()),
        na_std,
        int(res["n_jumps"].max()),
    ]
    _write_rows(config.out, header, [row])
    _write_json(
        config.json_out,
        {
            "schema_version": SCHEMA_VERSION,
            "config": {key: getattr(config, key) for key in _CONFIG_KEYS},
            "config_hash": tag,
            "estimate": mean,
            "std": std,
            "e_s": e_s,
            "e_c": None if math.isnan(e_c) else e_c,
            "n_a": {"mean": na_mean, "min": int(res["n_a"].min()), "max": int(res["n_a"].max())},
        },
    )
    print(f"[{tag}] simulate model={config.model} N={config.n} M={config.m}")
    print(f"  payoff mean {mean:.6g}  (E_S {e_s:.3g}, std {std:.4g})")
    if exact is not None:
        print(f"  error (exact - estimate): {e_c:+.6g}")
    print(
        f"  steps per path: mean {na_mean:.3g}, min {int(res['n_a'].min())}, "
        f"max {int(res['n_a'].max())}; most jumps {int(res['n_jumps'].max())}"
    )
    return 0


def _cmd_estimate(config: RunConfig) -> int:
    model = build_model(config.model)
    det = uniform_mesh(model.horizon, config.n)
    if config.density == "rhotilde":
        res = run_mesh_batch(
            model,
            det,
            config.seeds,
            0,
            config.m,
            tol=config.tol,
            want_density=True,
            workers=config.workers,
        )
        e_t = math.fsum(res["signed_total"]) / config.m
    else:
        res = run_interval_batch(model, det, config.seeds, config.m, config.workers)
        e_t = math.fsum(res["total"]) / config.m
    mean, std = sample_stats(res["payoff"])
    e_s = statistical_error_bound(std, config.m, config.c0)
    exact = model.exact_value
    e_c = exact - mean if exact is not None else math.nan
    efficiency = e_c / e_t if exact is not None and e_t != 0.0 else math.nan
    tag = config.hash()
    header = ["config", "n", "m", "estimate", "e_t", "e_s", "e_c", "efficiency"]
    row = [tag, config.n, config.m, mean, e_t, e_s, e_c, efficiency]
    _write_rows(config.out, header, [row])
    _write_json(
        config.json_out,
        {
            "schema_version": SCHEMA_VERSION,
            "config": {key: getattr(config, key) for key in _CONFIG_KEYS},
            "config_hash": tag,
            "estimate": mean,
            "e_t": e_t,
            "e_s": e_s,
            "e_c": None if math.isnan(e_c) else e_c,
            "efficiency": None if math.isnan(efficiency) else efficiency,
        },
    )
    print(
        f"[{tag}] estimate model={config.model} N={config.n} M={config.m} "
        f"density={config.density}"
    )
    print(f"  payoff mean {mean:.6g}  (E_S {e_s:.3g})")
    print(f"  time error estimate E_T {e_t:+.6g}")
    if exact is not None:
        print(f"  measured error (exact - estimate) {e_c:+.6g}, efficiency index {efficiency:.3f}")
    return 0


def _cmd_adapt_d(config: RunConfig) -> int:
    model = build_model(config.model)
    report = algorithm_d(
        model,
        config.tol,
        stats=_stat_params(config),
        adapt=_adapt_params(config),
        seeds=config.seeds,
        workers=config.workers,
    )
    tag = config.hash()
    header = ["config", "iter", "n", "m", "e_c", "e_t", "e_tt", "e_ts", "e_s", "action"]
    rows = [
        [tag, it.iteration, it.n_intervals, it.m_time, it.e_c, it.e_t, it.e_tt,
         it.e_ts, it.e_s, it.action]
        for it in report.iterations
    ]
    rows.append(
        [tag, len(report.iterations) + 1, len(report.det_times) - 1,
         report.mc_batches[-1].size, report.e_c, report.e_t, report.e_tt,
         report.e_ts, report.e_s, "final"]
    )
    _write_rows(config.out, header, rows)
    _write_json(config.json_out, _report_json(config, tag, report))
    print(f"[{tag}] adapt-d model={config.model} TOL={config.tol}")
    print(
        f"  estimate {report.estimate:.6g}  "
        f"(claimed bound {report.claimed_bound:.4g} vs TOL {config.tol:g})"
    )
    if not math.isnan(report.e_c):
        print(f"  error (exact - estimate): {report.e_c:+.6g}")
    print(
        f"  final mesh N={len(report.det_times) - 1}, M_final="
        f"{report.mc_batches[-1].size}, iterations={len(report.iterations)}, "
        f"total steps {report.total_steps}"
    )
    return 0


def _cmd_adapt_s(config: RunConfig) -> int:
    model = build_model(config.model)
    report = algorithm_s(
        model,
        config.tol,
        stats=_stat_params(config),
        adapt=_adapt_params(config),
        seeds=config.seeds,
        workers=config.workers,
    )
    tag = config.hash()
    header = [
        "config",
        "batch",
        "tol",
        "m",
        "mean_n_a",
        "min_n_a",
        "max_n_a",
        "std_n_a",
        "max_jumps",
        "e_s",
        "e_c",
        "rejected",
    ]
    rows = [
        [tag, b.batch, config.tol, b.m, b.mean_n_a, b.min_n_a, b.max_n_a, b.std_n_a,
         b.max_jumps, b.e_s, b.e_c, b.rejected]
        for b in report.batches
    ]
    _write_rows(config.out, header, rows)
    _write_json(config.json_out, _report_json(config, tag, report))
    last = report.batches[-1]
    print(f"[{tag}] adapt-s model={config.model} TOL={config.tol}")
    print(
        f"  estimate {report.estimate:.6g}  "
        f"(claimed bound {report.claimed_bound:.4g} vs TOL {config.tol:g})"
    )
    if not math.isnan(report.e_c):
        print(f"  error (exact - estimate): {report.e_c:+.6g}")
    print(
        f"  final batch M={last.m}, steps per path mean {last.mean_n_a:.3g} "
        f"(min {last.min_n_a}, max {last.max_n_a}), most jumps {last.max_jumps}"
    )
    if report.rejected_realizations:
        print(
            f"  note: {report.rejected_realizations} realizations hit the step "
            f"floor or level cap (best-effort payoffs kept)"
        )
    return 0


def _report_json(config: RunConfig, tag: str, report) -> dict:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": {key: getattr(config, key) for key in _CONFIG_KEYS},
        "config_hash": tag,
        "algorithm": report.algorithm,
        "estimate": report.estimate,
        "e_c": None if math.isnan(report.e_c) else report.e_c,
        "e_t": report.e_t,
        "e_tt": report.e_tt,
        "e_ts": report.e_ts,
        "e_s": report.e_s,
        "claimed_bound": report.claimed_bound,
        "budget": asdict(report.budget),
        "final_mesh": [float(t) for t in report.det_times],
        "total_realizations": report.total_realizations,
        "total_steps": report.total_steps,
        "total_work": report.total_work,
        "rejected_realizations": report.rejected_realizations,
    }
    if report.iterations:
        payload["iterations"] = [asdict(row) for row in report.iterations]
    if report.batches:
        payload["batches"] = [asdict(row) for row in report.batches]
    if report.mc_batches:
        payload["mc_batches"] = [asdict(row) for row in report.mc_batches]
    return payload


def _cmd_verify(config: RunConfig) -> int:
    model = build_model(config.model)
    tag = config.hash()
    m_verify = config.m
    checks = []

    def record(name, value, reference, ok):
        checks.append((name, value, reference, ok))
        status = "PASS" if ok else "FAIL"
        print(f"[{tag}] verify {name}: value={value:.6g} target={reference} {status}")

    e_t_by_n = {}
    for n, ref in ((5, -0.0602), (10, -0.0314)):
        det = uniform_mesh(model.horizon, n)
        res = run_mesh_batch(
            model, det, config.seeds, 0, m_verify,
            tol=config.tol, want_density=True, workers=config.workers,
        )
        e_t = math.fsum(res["signed_total"]) / m_verify
        e_t_by_n[n] = e_t
        record(f"uniform-e_t-n{n}", e_t, f"{ref} +-15%", abs(e_t / ref - 1.0) <= 0.15)

    ratio = e_t_by_n[5] / e_t_by_n[10]
    record("weak-order-ratio", ratio, "[1.6, 2.4]", 1.6 <= ratio <= 2.4)

    report_d = algorithm_d(
        model, 0.05, stats=StatParams(c0=config.c0, mch=config.mch),
        seeds=config.seeds, workers=config.workers,
    )
    record(
        "adapt-d-error-tol0.05",
        report_d.e_c,
        "|e_c| <= 0.1",
        abs(report_d.e_c) <= 0.1,
    )

    report_s = algorithm_s(
        model, 0.04, stats=StatParams(c0=config.c0, mch=config.mch),
        seeds=config.seeds, workers=config.workers,
    )
    mean_na = report_s.batches[-1].mean_n_a
    record("adapt-s-steps-tol0.04", mean_na, "[6, 12]", 6.0 <= mean_na <= 12.0)
    record(
        "adapt-s-error-tol0.04",
        report_s.e_c,
        "|e_c| <= 0.08",
        abs(report_s.e_c) <= 0.08,
    )

    header = ["config", "check", "value", "target", "status"]
    rows = [
        [tag, name, value, reference, "PASS" if ok else "FAIL"]
        for name, value, reference, ok in checks
    ]
    _write_rows(config.out, header, rows)
    _write_json(
        config.json_out,
        {
            "schema_version": SCHEMA_VERSION,
            "config": {key: getattr(config, key) for key in _CONFIG_KEYS},
            "config_hash": tag,
            "checks": [
                {"name": name, "value": value, "target": reference, "passed": ok}
                for name, value, reference, ok in checks
            ],
        },
    )
    failed = [name for name, _, _, ok in checks if not ok]
    if failed:
        print(f"[{tag}] verify FAILED: {', '.join(failed)}")
        return 1
    print(f"[{tag}] verify: all {len(checks)} checks passed")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "adapt-d": _cmd_adapt_d,
    "adapt-s": _cmd_adapt_s,
    "verify": _cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpmc",
        description="Monte Carlo Euler for jump diffusions with adaptive "
        "time stepping and computable error bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "fixed uniform mesh, payoff statistics"),
        ("estimate", "fixed uniform mesh, dual-weighted time-error estimate"),
        ("adapt-d", "adaptive deterministic mesh, then Monte Carlo"),
        ("adapt-s", "per-realization adaptive meshes"),
        ("verify", "desk-scale reference checks"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat JSON config file; flags override")
        p.add_argument("--model", help="model name (test5, purejump)")
        p.add_argument("--tol", type=float, help="total error tolerance in (0,1)")
        p.add_argument("--n", type=int, help="uniform/initial mesh intervals")
        p.add_argument("--m", type=int, help="sample count / initial batch size")
        p.add_argument("--c0", type=float, help="confidence constant (>= 1.65)")
        p.add_argument("--mch", type=int, help="batch growth cap (>= 2)")
        p.add_argument("--wiener-seed", type=int, dest="wiener_seed")
        p.add_argument("--jump-seed", type=int, dest="jump_seed")
        p.add_argument("--mark-seed", type=int, dest="mark_seed")
        p.add_argument(
            "--density",
            choices=("rhodef", "rhotilde"),
            help="time-error density for estimate: per-step (rhotilde) or "
            "coefficient-difference (rhodef)",
        )
        p.add_argument("--out", help="CSV output path")
        p.add_argument("--json-out", dest="json_out", help="JSON report path")
        p.add_argument("--workers", type=int, help="worker processes")
    return parser


_FIELD_TYPES = {
    "model": str,
    "tol": float,
    "n": int,
    "m": int,
    "c0": float,
    "mch": int,
    "wiener_seed": int,
    "jump_seed": int,
    "mark_seed": int,
    "density": str,
    "out": str,
    "json_out": str,
    "workers": int,
}

# The e_t reference bands need ~5e4 samples before the statistical error
# is small against the 15% acceptance window.
_COMMAND_M_DEFAULTS = {"simulate": 10000, "estimate": 10000, "verify": 50000}


def _load_config(args: argparse.Namespace) -> RunConfig:
    merged = {}
    if args.config:
        try:
            with open(args.config) as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParameterError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(data, dict):
            raise ParameterError("config file must hold a flat JSON object")
        for key, value in data.items():
            name = key.replace("-", "_")
            if name == "command":
                continue
            if name not in _FIELD_TYPES:
                raise ParameterError(f"unknown config key {key!r}")
            want = _FIELD_TYPES[name]
            if want is int and (not isinstance(value, int) or isinstance(value, bool)):
                raise ParameterError(f"config key {key!r} must be an integer")
            if want is float and not isinstance(value, (int, float)):
                raise ParameterError(f"config key {key!r} must be a number")
            if want is str and not isinstance(value, str):
                raise ParameterError(f"config key {key!r} must be a string")
            merged[name] = want(value) if want is not str else value
    for name in _FIELD_TYPES:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    if "m" not in merged and args.command in _COMMAND_M_DEFAULTS:
        merged["m"] = _COMMAND_M_DEFAULTS[args.command]
    return RunConfig(command=args.command, **merged)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        return _COMMANDS[args.command](config)
    except (ParameterError, CapabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return 3
    except (EvaluationError, JumpMCError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
