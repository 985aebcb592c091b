"""Command-line front end.

Subcommands: solve, sweep, br-curve, cascade, validate.  All output is
deterministic for a fixed config: floats are written with their shortest
round-trip representation and sweep rows are emitted in lexicographic grid
order.

Exit codes: 0 success, 1 internal inconsistency, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

from . import dp, erm, mfg, stackelberg
from .config import GAME_FIELDS, RunConfig, parse_config
from .errors import ConfigError, InconsistencyError, ObfGameError
from .model import GameParams

ERM_R_SQUARED_THRESHOLD = 0.9
DP_RELATIVE_DEVIATION_THRESHOLD = 1e-12


def _fmt(value) -> str:
    """Shortest round-trip text for one CSV cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        # plain-float repr is the shortest round-trip form (numpy scalars
        # stringify differently, so coerce first)
        return repr(float(value))
    return str(value)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        handle.write(text)


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _report_dict(report: stackelberg.EquilibriumReport) -> dict:
    th, cond = report.thresholds, report.conditions
    return {
        "regime": report.regime.value,
        "sigma_L_dagger": report.sigma_L_dagger,
        "sigma_bar_dagger": report.sigma_bar_dagger,
        "learner_utility_at_eq": report.learner_utility_at_eq,
        "user_utility_at_eq": report.user_utility_at_eq,
        "thresholds": {
            "tau_exact": th.tau_exact,
            "tau_hat": th.tau_hat,
            "kappa": th.kappa,
            "notes": list(th.notes),
        },
        "conditions": {
            "privacy_surplus": cond.privacy_surplus,
            "accuracy_benefit": cond.accuracy_benefit,
            "kappa": cond.kappa,
            "kappa_threshold": cond.kappa_threshold,
        },
        "boundary_reason": report.boundary_reason,
    }


def run_solve(config: RunConfig, out_dir: Path, out_format: str) -> int:
    params = config.game_params()
    try:
        report = stackelberg.pbne_solve(params)
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 1
    if out_format == "json":
        _write_text(out_dir / "solve.json",
                    json.dumps(_report_dict(report), indent=2) + "\n")
    else:
        th = report.thresholds
        _write_csv(
            out_dir / "solve.csv",
            ["regime", "sigma_L_dagger", "sigma_bar_dagger", "U_L", "U_S",
             "tau_exact", "tau_hat", "kappa"],
            [(report.regime.value, report.sigma_L_dagger,
              report.sigma_bar_dagger, report.learner_utility_at_eq,
              report.user_utility_at_eq, th.tau_exact, th.tau_hat, th.kappa)])
    print(f"regime={report.regime.value} sigma_L={report.sigma_L_dagger!r} "
          f"sigma_bar={report.sigma_bar_dagger!r}")
    return 0


def _sweep_row(params: GameParams) -> tuple:
    report = stackelberg.classify_regime(params)
    return (report.regime.value, report.sigma_L_dagger,
            report.sigma_bar_dagger, report.learner_utility_at_eq,
            report.thresholds.tau_hat)


def run_sweep(config: RunConfig, out_dir: Path) -> int:
    ranges = config.sweep_ranges()
    if not ranges:
        raise ConfigError("sweep requires at least one sweep.<param> range")
    names = list(ranges)
    grids = [ranges[name].grid() for name in names]
    total = 1
    for grid in grids:
        total *= len(grid)
    cap = int(config.get("sweep.max_points"))
    if total > cap:
        raise ConfigError(
            f"sweep grid has {total} points, above the cap of {cap}; "
            f"set sweep.max_points = {total} to allow it")

    base = {name: config.require(f"game.{name}")
            for name in GAME_FIELDS if name not in names}
    conventions = config.conventions()
    # Build one GameParams per grid point, in lexicographic grid order.
    points = list(itertools.product(*[map(float, grid) for grid in grids]))
    params_list = []
    for values in points:
        fields = dict(base)
        for name, value in zip(names, values):
            fields[name] = int(value) if name == "N" else value
        try:
            params_list.append(GameParams(conventions=conventions, **fields))
        except ValueError as exc:
            raise ConfigError(f"sweep point {dict(zip(names, values))}: {exc}")

    header = names + ["regime", "sigma_L_dagger", "sigma_bar_dagger", "U_L",
                      "tau_hat"]
    rows = [tuple(values) + _sweep_row(params)
            for values, params in zip(points, params_list)]
    _write_csv(out_dir / "sweep.csv", header, rows)
    print(f"sweep: {total} points -> {out_dir / 'sweep.csv'}")
    return 0


def run_br_curve(config: RunConfig, out_dir: Path) -> int:
    params = config.game_params()
    sigma_L = float(config.require("br_curve.sigma_L"))
    n_points = int(config.get("br_curve.n_points"))
    rows = []
    for sigma_bar, response in mfg.br_curve(params, sigma_L, n_points):
        if response.kind is mfg.ResponseKind.INDIFFERENT:
            value = "indifferent"
        else:
            value = _fmt(response.value_set[0])
        rows.append((sigma_bar, value))
    _write_csv(out_dir / "br_curve.csv", ["sigma_bar_other", "response"], rows)
    print(f"br-curve: {n_points} points -> {out_dir / 'br_curve.csv'}")
    return 0


def run_cascade(config: RunConfig, out_dir: Path, rng_seed: int) -> int:
    params = config.game_params()
    sigma_L = float(config.require("cascade.sigma_L"))
    seed_fraction = float(config.require("cascade.seed_fraction"))
    schedule = str(config.get("cascade.schedule"))
    max_rounds = int(config.get("cascade.max_rounds"))
    trace = mfg.cascade_simulate(params, sigma_L, seed_fraction,
                                 schedule=schedule, rng_seed=rng_seed,
                                 max_rounds=max_rounds)
    rows = [(i, frac, params.M**2 * frac, trace.converged)
            for i, frac in enumerate(trace.adoption_fraction)]
    _write_csv(out_dir / "cascade.csv",
               ["round", "adoption_fraction", "mean_variance", "converged"],
               rows)
    print(f"cascade: converged={trace.converged} "
          f"final_adoption={trace.adoption_fraction[-1]!r}")
    return 0


def run_validate(config: RunConfig, out_dir: Path, rng_seed: int) -> int:
    gen = erm.GeneratorSpec(int(config.get("experiment.erm.d")),
                            float(config.get("experiment.erm.separation")))
    erm_config = erm.ErmConfig(rho=float(config.get("experiment.erm.rho")))
    n_records = int(config.get("experiment.erm.n"))
    levels = erm.levels_from_aggregates(
        config.get("experiment.erm.levels"), n_records)
    report = erm.scaling_experiment(
        gen, n_records, erm_config, levels,
        replications=int(config.get("experiment.erm.replications")),
        rng_seed=rng_seed,
        n_eval=int(config.get("experiment.erm.n_eval")),
        n_ref=int(config.get("experiment.erm.n_ref")),
        carriers=int(config.get("experiment.erm.carriers")),
    )
    _write_csv(
        out_dir / "erm_scaling.csv",
        ["level_index", "v", "mean_excess_risk", "std_error", "replications"],
        [(lv.index, lv.v, lv.mean_excess_risk, lv.std_error, lv.replications)
         for lv in report.levels])

    spec = dp.DpSpec(delta=float(config.get("experiment.dp.delta")),
                     sensitivity=float(config.get("experiment.dp.sensitivity")))
    pairs = config.get("experiment.dp.pairs")
    dp_report = dp.scaling_check(spec, pairs)
    _write_csv(
        out_dir / "dp_scaling.csv",
        ["pair_index", "sigma_L", "sigma_S", "combined_std", "epsilon",
         "valid"],
        [(r.index, r.sigma_L, r.sigma_S, r.combined_std, r.epsilon, r.valid)
         for r in dp_report.rows])

    erm_pass = (report.r_squared >= ERM_R_SQUARED_THRESHOLD
                and report.rank_correlation == 1.0)
    dp_rel = dp_report.max_deviation / dp_report.constant
    dp_pass = dp_rel <= DP_RELATIVE_DEVIATION_THRESHOLD
    summary = (
        f"erm_scaling: {'PASS' if erm_pass else 'FAIL'} "
        f"(r_squared={report.r_squared!r}, "
        f"rank_correlation={report.rank_correlation!r}, "
        f"slope={report.slope!r})\n"
        f"dp_scaling: {'PASS' if dp_pass else 'FAIL'} "
        f"(max_relative_deviation={dp_rel!r})\n")
    _write_text(out_dir / "validate_summary.txt", summary)
    print(summary, end="")
    return 0 if (erm_pass and dp_pass) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obfgame",
        description="Solve and validate the bi-level obfuscation game.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("solve", "solve the bi-level game for one parameter set"),
        ("sweep", "classify the equilibrium regime over a parameter grid"),
        ("br-curve", "export the user best-response curve"),
        ("cascade", "simulate best-response adoption dynamics"),
        ("validate", "run the ERM and DP scaling validations"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to config file")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--format", default=None, choices=("csv", "json"))
        cmd.add_argument("--seed", default=None, type=int, help="RNG seed")
        cmd.add_argument("--jobs", default=1, type=int,
                         help="accepted and ignored: sweeps run serially")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config)
        out_dir = Path(args.out if args.out is not None
                       else str(config.get("output.dir")))
        out_format = (args.format if args.format is not None
                      else str(config.get("output.format")))
        rng_seed = (args.seed if args.seed is not None
                    else int(config.get("rng_seed")))
        if args.command == "solve":
            return run_solve(config, out_dir, out_format)
        if args.command == "sweep":
            return run_sweep(config, out_dir)
        if args.command == "br-curve":
            return run_br_curve(config, out_dir)
        if args.command == "cascade":
            return run_cascade(config, out_dir, rng_seed)
        return run_validate(config, out_dir, rng_seed)
    except (ConfigError, ValueError) as exc:
        # every ValueError here stems from a config-supplied value
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 1
    except ObfGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
