"""The benchmark's solve and validate workloads against their reference
outputs in bench/ref/, checked as bench/run.py checks them.  The sweep and
cascade references are compared byte for byte in test_cli.py."""

import types
from pathlib import Path

from obfgame import pbne_solve
from obfgame.cli import main

ROOT = Path(__file__).resolve().parents[1]


def bench_workloads() -> types.ModuleType:
    """bench/workloads.py, compiled from its source so that no bytecode
    file is written beside it."""
    path = ROOT / "bench" / "workloads.py"
    module = types.ModuleType("workloads")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_solve_batch_matches_reference():
    # the default seed's 1,000 draws: each report agrees with
    # classify_regime, and the rows with solve.csv.xz within REL_TOL
    wl = bench_workloads()
    params = wl.solve_params(0)
    reports = [pbne_solve(p) for p in params]
    problems = [problem for p, report in zip(params, reports)
                for problem in wl.check_solve_report(p, report)]
    assert problems == []
    rows = "\n".join([wl.SOLVE_HEADER] + list(map(wl.solve_row, reports)))
    assert wl.compare_table(rows + "\n", wl.reference("solve.csv.xz"),
                            "tnnnn", limit=wl.SOLVE_BATCH) == []


def test_validate_matches_reference(tmp_path):
    # the default experiment at the benchmark's seed: both PASS lines, the
    # DP table exactly and the level means within erm_mean_tolerance
    wl = bench_workloads()
    cfg = tmp_path / "validate.cfg"
    cfg.write_text(wl.validate_config())
    out = tmp_path / "out"
    assert main(["validate", "--config", str(cfg), "--out", str(out),
                 "--seed", str(wl.VALIDATE_SEED)]) == 0
    problems, _ = wl.check_validate(
        *((out / name).read_text() for name in (
            "validate_summary.txt", "erm_scaling.csv", "dp_scaling.csv")),
        wl.reference("erm_scaling.csv"), wl.reference("dp_scaling.csv"))
    assert problems == []
