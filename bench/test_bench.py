"""Smoke test of the benchmark: short runs print every declared metric with
its unit, and every correctness check can fail.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402

sys.path.insert(0, str(wl.SRC))

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = wl.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=180)


def _replace_cell(text: str, row: int, col: int, value: str) -> str:
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _cell(text: str, row: int, col: int) -> str:
    return text.splitlines()[row + 1].split(",")[col]


def test_declared_metrics_are_the_reported_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert ({m["name"]: m["unit"] for m in SPEC["end_to_end"]}
            == run.E2E_UNITS)
    assert ({m["name"]: m["unit"] for m in SPEC["per_layer"]}
            == run.per_layer_units())


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_short_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, info["problems"]
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if trace:
        hot = {"sweep": "stackelberg", "solve": "stackelberg",
               "cascade": "mfg", "validate": "erm"}[workload]
        assert max(info["layer_share"], key=info["layer_share"].get) == hot
    else:
        assert all(v > 0 for v in values.values())
    assert set(info["machine"]) >= {"nproc", "cpu", "python", "numpy"}
    assert info["seed"] == wl.DEFAULT_SEEDS[workload]


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "validate", "--seed", "7", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_sweep_checks_fail_on_corruption():
    ref = wl.reference("sweep.csv.xz")
    assert wl.check_sweep(ref, ref) == []
    # a 1-ulp move is allowed; a 1e-9 move, a wrong regime or a lost row not
    u_l = float(_cell(ref, 7, 6))
    ulp = _replace_cell(ref, 7, 6, repr(math.nextafter(u_l, math.inf)))
    assert wl.check_sweep(ulp, ref) == []
    assert wl.check_sweep(_replace_cell(ref, 7, 6, repr(u_l * (1 + 1e-9))),
                          ref)
    regime = _cell(ref, 7, 3)
    other = "StatusQuo" if regime != "StatusQuo" else "FullObfuscation"
    assert wl.check_sweep(_replace_cell(ref, 7, 3, other), None)
    assert wl.check_sweep(ref.rsplit("\n", 2)[0] + "\n", None)


def test_sweep_jobs_bytes_check_fails(tmp_path):
    ref = wl.reference("sweep.csv.xz")
    u_l = float(_cell(ref, 7, 6))
    (tmp_path / "sweep.csv").write_text(
        _replace_cell(ref, 7, 6, repr(math.nextafter(u_l, math.inf))))
    bench_run = run.Run("sweep", 5, 1.0, False)
    bench_run.sweep_bytes = ref
    bench_run.check_cli({"rc": 0, "dir": tmp_path, "stdout": ""})
    assert bench_run.failed == 1
    assert "differs" in bench_run.problems[0]


def test_solve_checks_fail_on_corruption():
    from obfgame import stackelberg

    params = wl.solve_params(wl.DEFAULT_SEEDS["solve"], count=200)
    reports = [stackelberg.pbne_solve(p) for p in params]
    assert all(wl.check_solve_report(p, r) == []
               for p, r in zip(params, reports))
    promise = next(i for i, r in enumerate(reports)
                   if r.regime.value == "PrivacyPromise")
    p, r = params[promise], reports[promise]
    wrong_regime = dataclasses.replace(
        r, regime=stackelberg.EquilibriumRegime.FULL_OBFUSCATION)
    assert wl.check_solve_report(p, wrong_regime)
    wrong_row = dataclasses.replace(r, sigma_L_dagger=r.sigma_L_dagger * 1.01)
    assert wl.check_solve_report(p, wrong_row)
    ref = wl.reference("solve.csv.xz")
    assert wl.compare_table(ref, ref, "tnnnn") == []
    value = float(_cell(ref, 3, 3))
    assert wl.compare_table(
        _replace_cell(ref, 3, 3, repr(value * (1 + 1e-9))), ref, "tnnnn")


def test_cascade_checks_fail_on_corruption():
    ref = wl.reference("cascade.csv")
    assert wl.check_cascade(ref, ref)[0] == []
    last = len(ref.splitlines()) - 2
    assert wl.check_cascade(_replace_cell(ref, last, 1, "0.99"), None)[0]
    assert wl.check_cascade(_replace_cell(ref, last, 3, "false"), None)[0]
    assert wl.check_cascade(_replace_cell(ref, 0, 1, "0.02"), ref)[0]


def _validate_outputs():
    summary = "erm_scaling: PASS (...)\ndp_scaling: PASS (...)\n"
    return summary, wl.reference("erm_scaling.csv"), wl.reference("dp_scaling.csv")


def test_validate_checks_fail_on_corruption():
    summary, erm, dp = _validate_outputs()
    assert wl.check_validate(summary, erm, dp, erm, dp)[0] == []
    tol = wl.erm_mean_tolerance()
    mean = float(_cell(erm, 2, 2))
    near = _replace_cell(erm, 2, 2, repr(mean + tol / 2))
    assert wl.check_validate(summary, near, dp, erm, dp)[0] == []
    far = _replace_cell(erm, 2, 2, repr(mean + 2 * tol))
    assert wl.check_validate(summary, far, dp, erm, dp)[0]
    failed = summary.replace("erm_scaling: PASS", "erm_scaling: FAIL")
    assert wl.check_validate(failed, erm, dp, None, dp)[0]
    flat = _replace_cell(erm, 3, 2, _cell(erm, 2, 2))
    assert wl.check_validate(summary, flat, dp, None, dp)[0]
    assert wl.check_validate(summary, erm, _replace_cell(dp, 0, 4, "4.8"),
                             None, dp)[0]


# validate runs seed 7 whatever the workload seed, so its reference is
# checked at every seed
@pytest.mark.parametrize("seed", ("7", "8"))
def test_corrupted_reference_fails_the_run(tmp_path, monkeypatch, seed):
    shutil.copytree(wl.REF_DIR, tmp_path / "ref")
    erm = (tmp_path / "ref" / "erm_scaling.csv").read_text()
    mean = float(_cell(erm, 1, 2))
    (tmp_path / "ref" / "erm_scaling.csv").write_text(
        _replace_cell(erm, 1, 2, repr(mean * 1.01)))
    monkeypatch.setattr(wl, "REF_DIR", tmp_path / "ref")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "validate", "--seed", seed,
                         "--seconds", "1", "--trace", "0"]) == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1
