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
(``--config``); flags override file entries.  Each ``RunConfig`` field
is one key: its flag, its file entry and whether the hash covers it.
Every CSV row starts with a hash of the result-defining configuration
(command, model, tolerance, mesh/batch sizes, statistical constants,
seeds, density mode).  Output paths and worker counts are excluded from
the hash: they do not change the numbers, and identical runs must stay
byte-identical for any worker count.  Exit codes: 0 success, 1 failed
verification or runtime model failure, 2 usage/parameter error or an
unwritable output path, 3 non-convergence.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields

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
    check_integer,
)
from .jumps import uniform_mesh
from .model import build_model
from .rng import SeedConfig

SCHEMA_VERSION = 1


def _key(default, help=None, hashed=True, **extras):
    """A configuration key: its default, its flag's help text and
    argparse extras, and whether the config hash covers it."""
    return field(default=default, metadata={"help": help, "hashed": hashed, "extras": extras})


@dataclass(frozen=True)
class RunConfig:
    """Effective run configuration (all sources merged)."""

    command: str
    model: str = _key("test5", "model name (test5, purejump)")
    tol: float = _key(0.05, "total error tolerance in (0,1)")
    n: int = _key(5, "uniform/initial mesh intervals")
    m: int = _key(100, "sample count / initial batch size")
    c0: float = _key(1.65, "confidence constant (>= 1.65)")
    mch: int = _key(10, "batch growth cap (>= 2)")
    wiener_seed: int = _key(7)
    jump_seed: int = _key(20)
    mark_seed: int = _key(101)
    density: str = _key(
        "rhotilde",
        "time-error density for estimate: per-step (rhotilde) or "
        "coefficient-difference (rhodef)",
        choices=("rhodef", "rhotilde"),
    )
    out: str = _key(None, "CSV output path", hashed=False)
    json_out: str = _key(None, "JSON report path", hashed=False)
    workers: int = _key(1, "worker processes", hashed=False)

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise ParameterError(f"TOL must lie in (0, 1), got {self.tol}")
        check_integer("workers", self.workers, 1)
        # c0, mch, m, n and the seeds by the library's own rules, so every
        # command accepts the same values
        self.stats, self.adapt, self.seeds

    @property
    def stats(self) -> StatParams:
        return StatParams(c0=self.c0, mch=self.mch, m0=self.m)

    @property
    def adapt(self) -> AdaptParams:
        return AdaptParams(n_initial=self.n)

    @property
    def seeds(self) -> SeedConfig:
        return SeedConfig(
            wiener=self.wiener_seed, jump_times=self.jump_seed, marks=self.mark_seed
        )

    def settings(self) -> dict:
        """The result-defining keys: the report's ``config`` and the hash input."""
        hashed = [f.name for f in fields(self) if f.metadata.get("hashed", True)]
        return {name: getattr(self, name) for name in hashed}

    def hash(self) -> str:
        blob = json.dumps(self.settings(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


# every RunConfig field but ``command``, by name: the flags and file keys
_OPTIONS = {f.name: f for f in fields(RunConfig) if f.name != "command"}


def _fmt(value) -> str:
    """Round-trip cell formatting; NaN renders empty (unknown)."""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def _nan_to_null(value):
    """``value`` with every NaN float, at any depth, replaced by None."""
    if isinstance(value, dict):
        return {key: _nan_to_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nan_to_null(item) for item in value]
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _open(path):
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc.strerror}") from None


def _write(config: RunConfig, tag: str, header, rows, report: dict) -> None:
    """The CSV rows, each led by the config hash, and the JSON report in
    its envelope; NaN (unknown) is an empty cell and a JSON null."""
    if config.out:
        # lineterminator pinned so the bytes match across platforms
        with _open(config.out) as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["config"] + header)
            writer.writerows([tag] + [_fmt(cell) for cell in row] for row in rows)
    if config.json_out:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config": config.settings(),
            "config_hash": tag,
            **report,
        }
        with _open(config.json_out) as handle:
            json.dump(_nan_to_null(payload), handle, indent=2, sort_keys=True, allow_nan=False)
            handle.write("\n")


def _mesh_batch(config: RunConfig, model, n: int, want_density: bool) -> dict:
    """The configured realizations on the uniform ``n``-interval mesh."""
    return run_mesh_batch(
        model,
        uniform_mesh(model.horizon, n),
        config.seeds,
        0,
        config.m,
        tol=config.tol,
        want_density=want_density,
        workers=config.workers,
    )


def _payoff_stats(config: RunConfig, model, payoff):
    """Mean, std, E_S and E_C (NaN without an exact value) of ``payoff``."""
    mean, std = sample_stats(payoff)
    e_s = statistical_error_bound(std, config.m, config.c0)
    exact = model.exact_value
    return mean, std, e_s, exact - mean if exact is not None else math.nan


def _cmd_simulate(config: RunConfig, model, tag: str) -> int:
    res = _mesh_batch(config, model, config.n, want_density=False)
    mean, std, e_s, e_c = _payoff_stats(config, model, res["payoff"])
    na_mean, na_std = sample_stats(res["n_a"])
    na_min, na_max = int(res["n_a"].min()), int(res["n_a"].max())
    max_jumps = int(res["n_jumps"].max())
    header = [
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
    row = [config.n, config.m, mean, std, e_s, e_c, na_mean, na_min, na_max, na_std, max_jumps]
    _write(
        config, tag, header, [row],
        {
            "estimate": mean,
            "std": std,
            "e_s": e_s,
            "e_c": e_c,
            "n_a": {"mean": na_mean, "min": na_min, "max": na_max},
        },
    )
    print(f"[{tag}] simulate model={config.model} N={config.n} M={config.m}")
    print(f"  payoff mean {mean:.6g}  (E_S {e_s:.3g}, std {std:.4g})")
    if not math.isnan(e_c):
        print(f"  error (exact - estimate): {e_c:+.6g}")
    print(
        f"  steps per path: mean {na_mean:.3g}, min {na_min}, "
        f"max {na_max}; most jumps {max_jumps}"
    )
    return 0


def _cmd_estimate(config: RunConfig, model, tag: str) -> int:
    if config.density == "rhotilde":
        res = _mesh_batch(config, model, config.n, want_density=True)
        e_t = math.fsum(res["signed_total"]) / config.m
    else:
        det = uniform_mesh(model.horizon, config.n)
        res = run_interval_batch(model, det, config.seeds, config.m, config.workers)
        e_t = math.fsum(res["total"]) / config.m
    mean, _, e_s, e_c = _payoff_stats(config, model, res["payoff"])
    efficiency = e_c / e_t if e_t != 0.0 else math.nan
    header = ["n", "m", "estimate", "e_t", "e_s", "e_c", "efficiency"]
    row = [config.n, config.m, mean, e_t, e_s, e_c, efficiency]
    _write(
        config, tag, header, [row],
        {"estimate": mean, "e_t": e_t, "e_s": e_s, "e_c": e_c, "efficiency": efficiency},
    )
    print(
        f"[{tag}] estimate model={config.model} N={config.n} M={config.m} "
        f"density={config.density}"
    )
    print(f"  payoff mean {mean:.6g}  (E_S {e_s:.3g})")
    print(f"  time error estimate E_T {e_t:+.6g}")
    if not math.isnan(e_c):
        print(f"  measured error (exact - estimate) {e_c:+.6g}, efficiency index {efficiency:.3f}")
    return 0


def _adapt_d_rows(config: RunConfig, report):
    """CSV header, rows and closing stdout lines of ``adapt-d``."""
    header = ["iter", "n", "m", "e_c", "e_t", "e_tt", "e_ts", "e_s", "action"]
    rows = [
        [it.iteration, it.n_intervals, it.m_time, it.e_c, it.e_t, it.e_tt,
         it.e_ts, it.e_s, it.action]
        for it in report.iterations
    ]
    rows.append(
        [len(report.iterations) + 1, len(report.det_times) - 1,
         report.mc_batches[-1].size, report.e_c, report.e_t, report.e_tt,
         report.e_ts, report.e_s, "final"]
    )
    closing = [
        f"  final mesh N={len(report.det_times) - 1}, M_final="
        f"{report.mc_batches[-1].size}, iterations={len(report.iterations)}, "
        f"total steps {report.total_steps}"
    ]
    return header, rows, closing


def _adapt_s_rows(config: RunConfig, report):
    """CSV header, rows and closing stdout lines of ``adapt-s``."""
    header = [
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
        [b.batch, config.tol, b.m, b.mean_n_a, b.min_n_a, b.max_n_a, b.std_n_a,
         b.max_jumps, b.e_s, b.e_c, b.rejected]
        for b in report.batches
    ]
    last = report.batches[-1]
    closing = [
        f"  final batch M={last.m}, steps per path mean {last.mean_n_a:.3g} "
        f"(min {last.min_n_a}, max {last.max_n_a}), most jumps {last.max_jumps}"
    ]
    if report.rejected_realizations:
        closing.append(
            f"  note: {report.rejected_realizations} realizations hit the step "
            f"floor or level cap (best-effort payoffs kept)"
        )
    return header, rows, closing


def _cmd_adapt(config: RunConfig, model, tag: str) -> int:
    # the drivers are looked up at call time, so tests can replace them
    if config.command == "adapt-d":
        driver, rows_of = algorithm_d, _adapt_d_rows
    else:
        driver, rows_of = algorithm_s, _adapt_s_rows
    report = driver(
        model,
        config.tol,
        stats=config.stats,
        adapt=config.adapt,
        seeds=config.seeds,
        workers=config.workers,
    )
    header, rows, closing = rows_of(config, report)
    # the report's own fields are the JSON report, less the seeds (the
    # envelope's config holds them) and empty row lists
    payload = asdict(report)
    del payload["seeds"]
    payload["final_mesh"] = [float(t) for t in payload.pop("det_times")]
    for name in ("iterations", "batches", "mc_batches"):
        if not payload[name]:
            del payload[name]
    _write(config, tag, header, rows, payload)
    print(f"[{tag}] {config.command} model={config.model} TOL={config.tol}")
    print(
        f"  estimate {report.estimate:.6g}  "
        f"(claimed bound {report.claimed_bound:.4g} vs TOL {config.tol:g})"
    )
    if not math.isnan(report.e_c):
        print(f"  error (exact - estimate): {report.e_c:+.6g}")
    for line in closing:
        print(line)
    return 0


def _cmd_verify(config: RunConfig, model, tag: str) -> int:
    checks = []

    def record(name, value, reference, ok):
        checks.append((name, value, reference, ok))
        status = "PASS" if ok else "FAIL"
        print(f"[{tag}] verify {name}: value={value:.6g} target={reference} {status}")

    e_t_by_n = {}
    for n, ref in ((5, -0.0602), (10, -0.0314)):
        res = _mesh_batch(config, model, n, want_density=True)
        e_t = e_t_by_n[n] = math.fsum(res["signed_total"]) / config.m
        record(f"uniform-e_t-n{n}", e_t, f"{ref} +-15%", abs(e_t / ref - 1.0) <= 0.15)

    ratio = e_t_by_n[5] / e_t_by_n[10]
    record("weak-order-ratio", ratio, "[1.6, 2.4]", 1.6 <= ratio <= 2.4)

    # the drivers start from the library's default batch size, not --m
    stats = StatParams(c0=config.c0, mch=config.mch)
    report_d = algorithm_d(
        model, 0.05, stats=stats, seeds=config.seeds, workers=config.workers
    )
    record(
        "adapt-d-error-tol0.05",
        report_d.e_c,
        "|e_c| <= 0.1",
        abs(report_d.e_c) <= 0.1,
    )

    report_s = algorithm_s(
        model, 0.04, stats=stats, seeds=config.seeds, workers=config.workers
    )
    mean_na = report_s.batches[-1].mean_n_a
    record("adapt-s-steps-tol0.04", mean_na, "[6, 12]", 6.0 <= mean_na <= 12.0)
    record(
        "adapt-s-error-tol0.04",
        report_s.e_c,
        "|e_c| <= 0.08",
        abs(report_s.e_c) <= 0.08,
    )

    header = ["check", "value", "target", "status"]
    rows = [
        [name, value, reference, "PASS" if ok else "FAIL"]
        for name, value, reference, ok in checks
    ]
    _write(
        config, tag, header, rows,
        {
            "checks": [
                {"name": name, "value": value, "target": reference, "passed": ok}
                for name, value, reference, ok in checks
            ]
        },
    )
    failed = [name for name, _, _, ok in checks if not ok]
    if failed:
        print(f"[{tag}] verify FAILED: {', '.join(failed)}")
        return 1
    print(f"[{tag}] verify: all {len(checks)} checks passed")
    return 0


_COMMANDS = {
    "simulate": (_cmd_simulate, "fixed uniform mesh, payoff statistics"),
    "estimate": (_cmd_estimate, "fixed uniform mesh, dual-weighted time-error estimate"),
    "adapt-d": (_cmd_adapt, "adaptive deterministic mesh, then Monte Carlo"),
    "adapt-s": (_cmd_adapt, "per-realization adaptive meshes"),
    "verify": (_cmd_verify, "desk-scale reference checks"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpmc",
        description="Monte Carlo Euler for jump diffusions with adaptive "
        "time stepping and computable error bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat JSON config file; flags override")
        for option in _OPTIONS.values():
            p.add_argument(
                "--" + option.name.replace("_", "-"),
                type=option.type,
                help=option.metadata["help"],
                **option.metadata["extras"],
            )
    return parser


# The e_t reference bands need ~5e4 samples before the statistical error
# is small against the 15% acceptance window.
_COMMAND_M_DEFAULTS = {"simulate": 10000, "estimate": 10000, "verify": 50000}


def _file_value(key: str, option, value):
    """A config-file entry checked against the type (and choices) of its field."""
    want = option.type
    if want is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise ParameterError(f"config key {key!r} must be an integer")
    if want is float and not isinstance(value, (int, float)):
        raise ParameterError(f"config key {key!r} must be a number")
    if want is str and not isinstance(value, str):
        raise ParameterError(f"config key {key!r} must be a string")
    choices = option.metadata["extras"].get("choices")
    if choices and value not in choices:
        allowed = " or ".join(repr(choice) for choice in choices)
        raise ParameterError(f"{option.name} must be {allowed}, got {value!r}")
    return want(value)


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
            if name not in _OPTIONS:
                raise ParameterError(f"unknown config key {key!r}")
            merged[name] = _file_value(key, _OPTIONS[name], value)
    for name in _OPTIONS:
        value = getattr(args, name)
        if value is not None:
            merged[name] = value
    if "m" not in merged and args.command in _COMMAND_M_DEFAULTS:
        merged["m"] = _COMMAND_M_DEFAULTS[args.command]
    config = RunConfig(command=args.command, **merged)
    # these paths fail before the run, not after it with half a pair written
    paths = [path for path in (config.out, config.json_out) if path]
    for path in paths:
        if os.path.isdir(path):
            raise ParameterError(f"cannot write {path}: is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ParameterError(f"cannot write {path}: no such directory")
    if len(paths) == 2 and os.path.realpath(paths[0]) == os.path.realpath(paths[1]):
        raise ParameterError(f"--out and --json-out name the same file: {config.json_out}")
    return config


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        model = build_model(config.model)
        return _COMMANDS[config.command][0](config, model, config.hash())
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
