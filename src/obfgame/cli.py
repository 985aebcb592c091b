"""Command-line front end.

Subcommands: solve, sweep, br-curve, cascade, validate.  All output is
deterministic for a fixed config: floats are written with their shortest
round-trip representation and sweep rows are emitted in lexicographic grid
order.

Exit codes: 0 success, 1 internal inconsistency, 2 usage/config error.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import sys
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import dp, erm, mfg, stackelberg
from .config import _SCHEMA, GAME_FIELDS, RunConfig, parse_config
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


def _finite(value):
    """A dict's values, nested, with each non-finite float made None: JSON
    has no nan or inf, so they are written as null."""
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def run_solve(config: RunConfig, out_dir: Path) -> int:
    report = stackelberg.pbne_solve(config.game_params())
    if config.get("output.format") == "json":
        report_dict = _finite({**dataclasses.asdict(report),
                               "regime": report.regime.value})
        _write_text(out_dir / "solve.json",
                    json.dumps(report_dict, indent=2, allow_nan=False) + "\n")
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


# the regime, sigma_L and sigma_bar cells of a sweep row by its kind, each
# after its comma: EquilibriumRegime's members in order, then Infeasible (a
# promise above M).  A promise is tau_hat and full obfuscation's crowd is M
# (None here: those are the row's own cells), and Boundary and Infeasible
# rows carry no equilibrium.
KIND_CELLS = np.array([
    [f",{regime.value}" for regime in stackelberg.EquilibriumRegime]
    + [",Infeasible"],
    [",0.0", ",0.0", None, ",nan", ",nan"],
    [",0.0", None, ",0.0", ",nan", ",nan"]], dtype=object)
_FULL, _PROMISE, _INFEASIBLE = 1, 2, 4
SWEEP_CHUNK_ROWS = 1 << 16


def _texts(values, sep: str, nan: str = "nan") -> np.ndarray:
    """The CSV cells of a 1-D float array, each after its separator, as an
    object array; nan is written as ``nan``."""
    return np.array([sep + (repr(v) if v == v else nan)
                     for v in values.tolist()], dtype=object)


def _cells(values, sep: str = ",", nan: str = "nan") -> np.ndarray:
    """_texts of a chunk's values, each distinct value formatted once: keyed
    on its bits, so that -0.0 keeps its sign.  The values are 1-D, as the
    shape of np.unique's inverse of an n-D array differs between numpy
    versions."""
    bits, rows = np.unique(values.view(np.int64), return_inverse=True)
    return _texts(bits.view(float), sep, nan)[rows]


def _grid_cells(grid, stride: int, start: int, stop: int,
                sep: str = ",") -> np.ndarray:
    """The cells of a swept axis, or of one value, on rows start to stop:
    row r takes grid[r // stride % grid.size], and each point of the grid
    the rows reach is formatted once."""
    steps = np.arange(start, stop) // stride - start // stride
    reached = min(grid.size, steps[-1] + 1)
    points = grid[(start // stride + np.arange(reached)) % grid.size]
    return _texts(points, sep)[steps % reached]


def run_sweep(config: RunConfig, out_dir: Path) -> int:
    """Classify the grid as columns, then write sweep.csv SWEEP_CHUNK_ROWS
    rows at a time.  A chunk's cells are an object table, one line per row
    and each cell after its separator (a row's first after its newline), so
    that the chunk is written with one join.  The chunk formats each swept
    value and M value it reaches, and each distinct U_L and tau_hat value
    among its rows, once; the regime, sigma_L and sigma_bar cells come from
    KIND_CELLS by row kind.  No string outlives its chunk."""
    grids = config.sweep_grids()
    names = list(grids)
    base = {name: config.require(f"game.{name}")
            for name in GAME_FIELDS if name not in names}
    conventions = config.conventions()
    # one array axis per swept field, in row order
    columns = {**base, **dict(zip(names, np.ix_(*grids.values())))}
    try:
        kind, tau_h, utility = stackelberg._closed_form_columns(
            **columns, conventions=conventions)
    except ValueError:
        # name the first point, in grid order, that GameParams refuses
        values = (grid.tolist() for grid in grids.values())
        for point in itertools.product(*values):
            point = dict(zip(names, point))
            try:
                GameParams(conventions=conventions, **base, **point)
            except ValueError as exc:
                raise ConfigError(f"sweep point {point}: {exc}")
        raise

    # each swept field's grid with the rows between its steps; M's grid is
    # its one value where it is not swept
    axes = {name: (grids[name], math.prod(kind.shape[i + 1:]))
            for i, name in enumerate(names)}
    m_grid, m_stride = (axes["M"] if "M" in axes
                        else (np.array([base["M"]], dtype=float), 1))
    tau_values = np.broadcast_to(tau_h, kind.shape).flat
    path = out_dir / "sweep.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        handle.write(",".join(names + ["regime", "sigma_L_dagger",
                                       "sigma_bar_dagger", "U_L", "tau_hat"]))
        for start in range(0, kind.size, SWEEP_CHUNK_ROWS):
            stop = min(start + SWEEP_CHUNK_ROWS, kind.size)
            kinds = kind.flat[start:stop]
            tau_cells = _cells(tau_values[start:stop], nan="")
            regime, sigma_L, sigma_bar = KIND_CELLS[:, kinds]
            table = np.empty((stop - start, len(names) + 5), dtype=object)
            for i, (grid, stride) in enumerate(axes.values()):
                table[:, i] = _grid_cells(grid, stride, start, stop,
                                          sep="," if i else "\n")
            table[:, -5] = regime
            table[:, -4] = np.where(kinds == _PROMISE, tau_cells, sigma_L)
            table[:, -3] = np.where(
                kinds == _FULL, _grid_cells(m_grid, m_stride, start, stop),
                sigma_bar)
            table[:, -2] = _cells(utility.flat[start:stop])
            table[:, -1] = tau_cells
            handle.write("".join(table.ravel().tolist()))
        handle.write("\n")
    print(f"sweep: {kind.size} points -> {path} "
          f"({np.count_nonzero(kind == _INFEASIBLE)} infeasible)")
    return 0


def run_br_curve(config: RunConfig, out_dir: Path) -> int:
    params = config.game_params()
    sigma_L = config.require("br_curve.sigma_L")
    n_points = config.get("br_curve.n_points")
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


def run_cascade(config: RunConfig, out_dir: Path) -> int:
    params = config.game_params()
    trace = mfg.cascade_simulate(
        params, config.require("cascade.sigma_L"),
        config.require("cascade.seed_fraction"),
        schedule=config.get("cascade.schedule"),
        rng_seed=config.get("rng_seed"),
        max_rounds=config.get("cascade.max_rounds"))
    rows = [(i, frac, params.M * params.M * frac, trace.converged)
            for i, frac in enumerate(trace.adoption_fraction)]
    _write_csv(out_dir / "cascade.csv",
               ["round", "adoption_fraction", "mean_variance", "converged"],
               rows)
    print(f"cascade: converged={trace.converged} "
          f"final_adoption={trace.adoption_fraction[-1]!r}")
    return 0


def run_validate(config: RunConfig, out_dir: Path) -> int:
    # the DP check is cheap, so its config errors surface before the ERM runs
    spec = dp.DpSpec(delta=config.get("experiment.dp.delta"),
                     sensitivity=config.get("experiment.dp.sensitivity"))
    dp_report = dp.scaling_check(spec, config.get("experiment.dp.pairs"))

    gen = erm.GeneratorSpec(config.get("experiment.erm.d"),
                            config.get("experiment.erm.separation"))
    erm_config = erm.ErmConfig(rho=config.get("experiment.erm.rho"))
    report = erm.scaling_experiment(
        gen, config.get("experiment.erm.n"), erm_config,
        config.get("experiment.erm.levels"),
        replications=config.get("experiment.erm.replications"),
        rng_seed=config.get("rng_seed"),
        n_eval=config.get("experiment.erm.n_eval"),
        n_ref=config.get("experiment.erm.n_ref"),
        carriers=config.get("experiment.erm.carriers"),
    )
    _write_csv(
        out_dir / "erm_scaling.csv",
        ["level_index", "v", "mean_excess_risk", "std_error", "replications"],
        [(lv.index, lv.v, lv.mean_excess_risk, lv.std_error, lv.replications)
         for lv in report.levels])
    _write_csv(
        out_dir / "dp_scaling.csv",
        ["pair_index", "sigma_L", "sigma_S", "combined_std", "epsilon",
         "valid"],
        [(r.index, r.sigma_L, r.sigma_S, r.combined_std, r.epsilon, r.valid)
         for r in dp_report.rows])

    erm_pass = (report.r_squared >= ERM_R_SQUARED_THRESHOLD
                and report.rank_correlation == 1.0
                and report.unconverged == 0)
    dp_rel = dp_report.max_deviation / dp_report.constant
    dp_pass = dp_rel <= DP_RELATIVE_DEVIATION_THRESHOLD
    summary = (
        f"erm_scaling: {'PASS' if erm_pass else 'FAIL'} "
        f"(r_squared={report.r_squared!r}, "
        f"rank_correlation={report.rank_correlation!r}, "
        f"slope={report.slope!r}, "
        f"unconverged={report.unconverged})\n"
        f"dp_scaling: {'PASS' if dp_pass else 'FAIL'} "
        f"(max_relative_deviation={dp_rel!r})\n")
    _write_text(out_dir / "validate_summary.txt", summary)
    print(summary, end="")
    return 0 if (erm_pass and dp_pass) else 1


COMMANDS = {
    "solve": "solve the bi-level game for one parameter set",
    "sweep": "classify the equilibrium regime over a parameter grid",
    "br-curve": "export the user best-response curve",
    "cascade": "simulate best-response adoption dynamics",
    "validate": "run the ERM and DP scaling validations",
}


# the whole grammar: every command takes these options, as ``--name value``
# or ``--name=value``, in any order around the command; the last repeat wins.
# An option named by a config key parses as that key and overrides it.
OPTIONS = {  # name: (metavar, config key or converter, help)
    "--config": ("PATH", str, "config file (required)"),
    "--out": ("DIR", "output.dir", "output directory (default: output.dir)"),
    "--format": ("csv|json", "output.format",
                 "solve's output format (default: output.format)"),
    "--seed": ("N", "rng_seed", "RNG seed (default: rng_seed)"),
    "--jobs": ("N", int, "accepted and ignored: sweeps run serially"),
}
USAGE = ("usage: obfgame <solve|sweep|br-curve|cascade|validate> --config PATH"
         " [--out DIR] [--format csv|json] [--seed N] [--jobs N]")
HELP = "\n".join([
    USAGE, "", "Solve and validate the bi-level obfuscation game.", "",
    "commands:", *(f"  {name:<10} {text}" for name, text in COMMANDS.items()),
    "", "options (--name value or --name=value):", *(
        f"  {f'{name} {metavar}':<18} {text}"
        for name, (metavar, _, text) in OPTIONS.items()),
    f"  {'-h, --help':<18} show this help and exit"])


def _usage_error(message: str) -> NoReturn:
    print(USAGE, f"obfgame: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _parse_args(argv: list[str]) -> tuple[str, dict]:
    """The command and the converted value of each option given, under its
    config key where it has one, else under its name.  ``-h``/``--help``
    prints the help and exits 0; a usage error exits 2."""
    command, values = None, {}
    args = iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            print(HELP)
            raise SystemExit(0)
        name, eq, value = arg.partition("=")
        if name in OPTIONS:
            if not eq and (value := next(args, None)) is None:
                _usage_error(f"argument {name}: expected one argument")
            metavar, key, _ = OPTIONS[name]
            key, convert = ((key, _SCHEMA[key]) if isinstance(key, str)
                            else (name, key))
            try:
                values[key] = convert(value)
            except ValueError:
                _usage_error(f"argument {name} {metavar}: "
                             f"invalid value {value!r}")
        elif command is None and arg in COMMANDS:
            command = arg
        else:
            _usage_error(f"unrecognized argument {arg!r}")
    if command is None:
        _usage_error("a command is required")
    if "--config" not in values:
        _usage_error("argument --config is required")
    return command, values


def main(argv: list[str] | None = None) -> int:
    command, args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        config = parse_config(args["--config"])
        config.entries.update(
            (key, value) for key, value in args.items() if key in _SCHEMA)
        if (seed := config.get("rng_seed")) < 0:  # refused by every command
            raise ConfigError(f"rng_seed={seed} must be a non-negative integer")
        # built per call, so that a runner replaced on the module runs
        run = {"solve": run_solve, "sweep": run_sweep,
               "br-curve": run_br_curve, "cascade": run_cascade,
               "validate": run_validate}[command]
        return run(config, Path(config.get("output.dir")))
    except ValueError as exc:
        # every ValueError here (a ConfigError too) stems from a config value
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # parse_config reports its own read errors, so this is a write
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
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
