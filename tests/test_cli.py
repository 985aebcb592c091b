import contextlib
import functools
import io
import itertools
import json
import lzma
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obfgame import (
    GameParams,
    InfeasiblePromiseError,
    cascade_simulate,
    classify_regime,
    cli,
    erm,
    mfg,
    tau_hat,
)
from obfgame.cli import _fmt, main
from obfgame.config import GAME_FIELDS, parse_config
from obfgame.errors import ConfigError

ROW3_GAME = """\
game.A_L = 2.0
game.C_L = 1.0
game.A_S = 0.5
game.P_S = 2.0
game.C_S = 1.0
game.rho = 1.0
game.N = 100
game.M = 50.0
"""


ROOT = Path(__file__).resolve().parents[1]

# the benchmark's sweep grid at its default seed (bench/workloads.py)
BENCH_SWEEP = """\
game.A_L = 2.0
game.A_S = 1.0
game.C_S = 1.0
game.rho = 1.0
game.M = 50.0
sweep.P_S.min = 0.5
sweep.P_S.max = 5.0
sweep.P_S.steps = 40
sweep.C_L.min = 0.05
sweep.C_L.max = 2.5
sweep.C_L.steps = 20
sweep.N.min = 1
sweep.N.max = 1000
sweep.N.steps = 4
"""

# the benchmark's cascade, acceptance 8's bistable game at N = 10,000
# (bench/workloads.py), run with --seed 1
BENCH_CASCADE = """\
game.A_L = 2.0
game.C_L = 1.0
game.A_S = 1.0
game.P_S = 1.8
game.C_S = 0.2
game.rho = 1.0
game.N = 10000
game.M = 1000.0
cascade.sigma_L = 1.0
cascade.seed_fraction = 0.01
cascade.schedule = async
"""

# values of each game field for random sweeps: round numbers put points on
# the Boundary (P_S - C_S = A_S), M = 0.5 puts promises above M
SWEEP_POOLS = {
    "A_L": [2.0, 0.5, 3.5], "C_L": [0.0, 0.5, 1.0], "A_S": [1.0, 0.5],
    "P_S": [0.5, 1.5, 2.0, 3.0], "C_S": [0.0, 1e-17, 0.5, 1.0],
    "rho": [1.0, 0.5], "N": [1, 100, 1000], "M": [0.5, 5.0, 50.0],
}


@st.composite
def sweep_configs(draw):
    """A valid sweep config over one or two fields, each grid starting at
    a pool value with a round step, with c_g 1 or not."""
    swept = draw(st.lists(st.sampled_from(GAME_FIELDS), min_size=1,
                          max_size=2, unique=True))
    lines = [f"game.{name} = {draw(st.sampled_from(pool))!r}"
             for name, pool in SWEEP_POOLS.items() if name not in swept]
    for name in swept:
        steps = draw(st.integers(1, 12))
        low = draw(st.sampled_from(SWEEP_POOLS[name]))
        step = draw(st.sampled_from([1, 9, 90] if name == "N"
                                    else [0.25, 0.5, 1.0]))
        lines += [f"sweep.{name}.min = {low!r}",
                  f"sweep.{name}.max = {low + step * (steps - 1)!r}",
                  f"sweep.{name}.steps = {steps}"]
    lines.append(f"conventions.c_g = {draw(st.sampled_from([1.0, 0.7]))!r}")
    return "\n".join(lines) + "\n"


def scalar_sweep_rows(config):
    """The data rows of sweep.csv made point by point with classify_regime
    (a promise above M is an Infeasible row), and the kinds of point among
    them."""
    grids = config.sweep_grids()
    base = {name: config.require(f"game.{name}")
            for name in GAME_FIELDS if name not in grids}
    rows, kinds = [], set()
    grid_values = (grid.tolist() for grid in grids.values())
    for values in itertools.product(*grid_values):
        params = GameParams(conventions=config.conventions(), **base,
                            **dict(zip(grids, values)))
        try:
            report = classify_regime(params)
            cells = (report.regime.value, report.sigma_L_dagger,
                     report.sigma_bar_dagger, report.learner_utility_at_eq,
                     report.thresholds.tau_hat)
        except InfeasiblePromiseError as exc:
            cells = ("Infeasible", math.nan, math.nan, math.nan, exc.tau_hat)
        rows.append(",".join(map(_fmt, values + cells)))
        kinds |= {cells[0]} | {kind for kind, hit in [
            ("P_S <= C_S", params.P_S <= params.C_S),
            ("C_S = 0", params.C_S == 0), ("C_L = 0", params.C_L == 0)] if hit}
    return rows, kinds


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_missing_key_names_it(self, tmp_path):
        text = ROW3_GAME.replace("game.P_S = 2.0\n", "")
        cfg = parse_config(write_config(tmp_path, text))
        with pytest.raises(ConfigError, match="game.P_S"):
            cfg.game_params()

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = write_config(tmp_path, ROW3_GAME + "game.bogus = 1\n")
        with pytest.raises(ConfigError, match="game.bogus"):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path, ROW3_GAME + "game.A_L = 3.0\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        text = "# header\n\n" + ROW3_GAME + "\n# trailing\n"
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.game_params().A_L == 2.0

    def test_sweep_requires_all_parts(self, tmp_path):
        path = write_config(tmp_path, ROW3_GAME + "sweep.P_S.min = 0.5\n")
        cfg = parse_config(path)
        with pytest.raises(ConfigError, match="sweep.P_S.max"):
            cfg.sweep_grids()

    def test_unknown_sweep_parameter_rejected_with_line(self, tmp_path):
        path = write_config(tmp_path, ROW3_GAME + "sweep.Q.min = 1\n")
        with pytest.raises(ConfigError) as raised:
            parse_config(path)
        assert str(raised.value) == (
            f"{path}:9: unknown config key 'sweep.Q.min'")

    def test_conventions_flow_through(self, tmp_path):
        text = ROW3_GAME + "conventions.privacy_exponent = 0.5\n"
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.game_params().conventions.privacy_exponent == 0.5


class TestSolveCommand:
    def test_row3_solve_json(self, tmp_path):
        cfg = write_config(tmp_path, ROW3_GAME)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out),
                     "--format", "json"]) == 0
        report = json.loads((out / "solve.json").read_text())
        assert report["regime"] == "PrivacyPromise"
        assert report["sigma_L_dagger"] == pytest.approx(1.2011224087864498)
        assert report["sigma_bar_dagger"] == 0.0
        assert list(report) == [
            "regime", "sigma_L_dagger", "sigma_bar_dagger",
            "learner_utility_at_eq", "user_utility_at_eq", "thresholds",
            "conditions", "boundary_reason"]
        assert list(report["thresholds"]) == [
            "tau_exact", "tau_hat", "kappa", "notes"]
        assert list(report["conditions"]) == [
            "privacy_surplus", "accuracy_benefit", "kappa", "kappa_threshold"]

    @pytest.mark.parametrize("line, changed, regime", [
        ("game.P_S = 2.0", "game.P_S = 0.5", "StatusQuo"),  # threshold nan
        ("game.C_L = 1.0", "game.C_L = 0.0", "PrivacyPromise"),  # inf
    ])
    def test_solve_json_is_strict_json(self, tmp_path, line, changed, regime):
        cfg = write_config(tmp_path, ROW3_GAME.replace(line, changed))
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out),
                     "--format", "json"]) == 0

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        report = json.loads((out / "solve.json").read_text(),
                            parse_constant=refuse)
        assert report["regime"] == regime
        assert report["conditions"]["kappa_threshold"] is None

    def test_tiny_deterrence_cost_solves(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ROW3_GAME.replace(
            "game.C_S = 1.0", "game.C_S = 1e-17"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("regime=FullObfuscation")

    @pytest.mark.parametrize("changes, start, tau_exact", [
        ({"game.A_S": "1.0", "game.P_S": "1.5"}, "StatusQuo,0.0,0.0,2.0,", ""),
        # privacy_exponent = 0.5 cuts the search at the roots of a cubic
        ({"conventions.privacy_exponent": "0.5"},
         "PrivacyPromise,1.2011224087864498,0.0,", "0.7240715893579815"),
        # M = 2.9e11 lies far above three crossings (~2.1146, ~602.15 and
        # ~46178.1): tau_exact is the first
        ({"game.A_L": "0.04214984326721766",
          "game.C_L": "0.0016299681700637691",
          "game.A_S": "0.06159414423947732",
          "game.P_S": "0.30732290332814677",
          "game.C_S": "1.4411948858553079e-10",
          "game.rho": "29.588035814084858", "game.N": "37",
          "game.M": "290116576066.50555"},
         "FullObfuscation,0.0,290116576066.50555,", "2.114604092262673"),
        # c_g kappa = 1e307 is a float but c_g kappa M^2 is not: the
        # accuracy level overflows to inf, which the laws read as
        # exp(-inf) = 0, with no numpy warning
        ({"game.rho": "1e-152", "conventions.c_g": "1e5"},
         "FullObfuscation,0.0,50.0,", "1.2011224087864498"),
    ], ids=["row1", "half-exponent", "far-crossings", "overflowing-accuracy"])
    def test_solve_csv(self, tmp_path, changes, start, tau_exact):
        entries = dict(line.split(" = ") for line in ROW3_GAME.splitlines())
        entries.update(changes)
        cfg = write_config(tmp_path, "".join(
            f"{key} = {value}\n" for key, value in entries.items()))
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        header, row = (out / "solve.csv").read_text().splitlines()
        assert header == ("regime,sigma_L_dagger,sigma_bar_dagger,U_L,U_S,"
                          "tau_exact,tau_hat,kappa")
        assert row.startswith(start)
        assert row.split(",")[5] == tau_exact

    def test_convention_mismatch_exits_1(self, tmp_path, capsys):
        # with c_p = 2 the closed-form promise tau_hat does not deter
        cfg = write_config(tmp_path, ROW3_GAME + "conventions.c_p = 2.0\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("inconsistency: promise")
        assert not (tmp_path / "solve.csv").exists()

    @pytest.mark.parametrize("key", ["c_g", "c_p"])
    def test_non_finite_convention_exits_2(self, tmp_path, capsys, key):
        # an infinite c_g used to solve to PrivacyPromise, an infinite c_p
        # to fail the certificate with exit 1
        cfg = write_config(tmp_path, ROW3_GAME + f"conventions.{key} = inf\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error")
        assert f"{key} must be finite and positive, got inf" in err
        assert not (tmp_path / "solve.csv").exists()

    @pytest.mark.parametrize("line, value, message", [
        ("game.M = 50.0", "1e200",
         "M=1e+200 must have a finite positive square"),
        ("game.rho = 1.0", "1e-170",
         "rho=1e-170 and N=100 must give a finite positive"),
    ])
    @pytest.mark.parametrize("command, extra", [
        ("solve", ""), ("cascade", "cascade.sigma_L = 1.0\n")])
    def test_unrepresentable_derived_constant_exits_2(
            self, tmp_path, capsys, line, value, message, command, extra):
        # M*M overflowing, or kappa's rho^2 N underflowing, used to end
        # solve in a traceback (exit 1) and cascade in a misleading error
        text = ROW3_GAME.replace(line, line.split("=")[0] + "= " + value)
        cfg = write_config(tmp_path, text + extra)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and message in err

    @pytest.mark.parametrize("command, extra", [
        ("solve", ""), ("br-curve", "br_curve.sigma_L = 0.5\n"),
        ("cascade", "cascade.sigma_L = 1.0\n")])
    def test_overflowing_accuracy_scale_exits_2(self, tmp_path, capsys,
                                                command, extra):
        # kappa = 1e304 but c_g kappa = 1e309: each command used to exit 0,
        # solve with nan utilities
        text = (ROW3_GAME.replace("game.rho = 1.0", "game.rho = 1e-152")
                .replace("game.N = 100", "game.N = 1")
                + "conventions.c_g = 1e5\n" + extra)
        cfg = write_config(tmp_path, text)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: rho=1e-152, N=1 and c_g=100000.0 must give a "
            "finite c_g * kappa = c_g/(rho^2 N)\n")

    def test_missing_key_exits_2(self, tmp_path):
        text = ROW3_GAME.replace("game.P_S = 2.0\n", "")
        cfg = write_config(tmp_path, text)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, ROW3_GAME + "nope = 1\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2


class TestSweepCommand:
    SWEEP = ROW3_GAME.replace("game.P_S = 2.0\n", "") + (
        "sweep.P_S.min = 0.5\nsweep.P_S.max = 5.0\nsweep.P_S.steps = 40\n")

    def test_regimes_transition_in_order(self, tmp_path):
        cfg = write_config(tmp_path, self.SWEEP.replace(
            "game.A_S = 0.5", "game.A_S = 1.0"))
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        regimes = [r.split(",")[1] for r in rows]
        meaningful = [r for r in regimes if r != "Boundary"]
        # status quo first, then the promise regime as P_S grows
        switch = meaningful.index("PrivacyPromise")
        assert all(r == "StatusQuo" for r in meaningful[:switch])
        assert all(r == "PrivacyPromise" for r in meaningful[switch:])

    def test_deterministic_across_runs_and_jobs(self, tmp_path):
        cfg = write_config(tmp_path, self.SWEEP)
        outs = []
        for name, jobs in [("a", 1), ("b", 1), ("c", 2)]:
            out = tmp_path / name
            assert main(["sweep", "--config", cfg, "--out", str(out),
                         "--jobs", str(jobs)]) == 0
            outs.append((out / "sweep.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_rows_rederivable(self, tmp_path):
        cfg = write_config(tmp_path, self.SWEEP)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        for line in rows[::7]:
            cells = line.split(",")
            params = GameParams(A_L=2.0, C_L=1.0, A_S=0.5, P_S=float(cells[0]),
                                C_S=1.0, rho=1.0, N=100, M=50.0)
            report = classify_regime(params)
            assert report.regime.value == cells[1]
            if cells[5]:
                assert float(cells[5]) == pytest.approx(tau_hat(params))

    def test_cap_refusal_names_required_value(self, tmp_path):
        text = self.SWEEP + "sweep.max_points = 10\n"
        cfg = write_config(tmp_path, text)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_cap_refused_before_any_axis_is_built(self, tmp_path, monkeypatch,
                                                  capsys):
        # 10^12 steps would ask numpy for ~7 TiB; an axis above 10^7 points
        # fails the test instead of allocating
        real = np.linspace

        def linspace(start, stop, num, *args, **kwargs):
            assert num <= 10**7, f"built a {num}-point axis"
            return real(start, stop, num, *args, **kwargs)

        monkeypatch.setattr(np, "linspace", linspace)
        text = self.SWEEP.replace("sweep.P_S.steps = 40",
                                  "sweep.P_S.steps = 1000000000000")
        cfg = write_config(tmp_path, text)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: sweep grid has 1000000000000 points, above the cap "
            "of 1000000; set sweep.max_points = 1000000000000 to allow it\n")
        assert not (tmp_path / "sweep.csv").exists()

    def test_fractional_N_point_exits_2(self, tmp_path, capsys):
        text = ROW3_GAME.replace("game.N = 100\n", "") + (
            "sweep.N.min = 1\nsweep.N.max = 4\nsweep.N.steps = 3\n")
        cfg = write_config(tmp_path, text)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: sweep point {'N': 2.5}: "
            "N must be an integer >= 1\n")

    def test_overflowing_accuracy_scale_names_the_point(self, tmp_path,
                                                        capsys):
        # c_g kappa = 1e309 used to give nan utilities with exit 0
        text = (self.SWEEP.replace("game.rho = 1.0", "game.rho = 1e-152")
                .replace("game.N = 100", "game.N = 1")
                + "conventions.c_g = 1e5\n")
        cfg = write_config(tmp_path, text)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: sweep point {'P_S': 0.5}: rho=1e-152, N=1 and "
            "c_g=100000.0 must give a finite c_g * kappa = c_g/(rho^2 N)\n")
        assert not (tmp_path / "sweep.csv").exists()

    # one grid per rule of GameParams: the sweep names the first point it
    # refuses in grid order, with GameParams' message.  In the last grid
    # that point fails M*M, while a later one (P_S = -1) fails a field rule.
    @pytest.mark.parametrize("changes, sweeps, point, message", [
        ({"game.A_L": "inf"}, {"P_S": (0.5, 5.0, 2)}, {"P_S": 0.5},
         "A_L must be finite and positive, got inf"),
        ({}, {"A_S": (-1.0, 1.0, 3)}, {"A_S": -1.0},
         "A_S must be finite and positive, got -1.0"),
        ({}, {"C_L": (-0.5, 0.5, 3)}, {"C_L": -0.5},
         "C_L must be finite and non-negative, got -0.5"),
        ({}, {"N": (1, 4, 3), "P_S": (2.0, 3.0, 2)}, {"N": 2.5, "P_S": 2.0},
         "N must be an integer >= 1"),
        ({}, {"M": (1e-170, 50.0, 2)}, {"M": 1e-170},
         "M=1e-170 must have a finite positive square M*M"),
        ({}, {"N": (1, 100, 2), "rho": (1e-155, 1.0, 2)},
         {"N": 1.0, "rho": 1e-155},
         "rho=1e-155 and N=1 must give a finite positive "
         "kappa = 1/(rho^2 N)"),
        ({"game.N": "1", "conventions.c_g": "1e5"},
         {"rho": (1e-152, 1.0, 2)}, {"rho": 1e-152},
         "rho=1e-152, N=1 and c_g=100000.0 must give a finite "
         "c_g * kappa = c_g/(rho^2 N)"),
        ({}, {"M": (1e-170, 50.0, 2), "P_S": (2.0, -1.0, 2)},
         {"M": 1e-170, "P_S": 2.0},
         "M=1e-170 must have a finite positive square M*M"),
    ], ids=["non-finite", "non-positive", "negative", "fractional-N", "M*M",
            "kappa-pair", "c_g-kappa", "later-rule-first"])
    def test_first_refused_point_names_its_rule(
            self, tmp_path, capsys, changes, sweeps, point, message):
        entries = dict(line.split(" = ") for line in ROW3_GAME.splitlines())
        entries.update(changes)
        lines = [f"{key} = {value}" for key, value in entries.items()
                 if key[len("game."):] not in sweeps]
        for name, (low, high, steps) in sweeps.items():
            lines += [f"sweep.{name}.min = {low!r}",
                      f"sweep.{name}.max = {high!r}",
                      f"sweep.{name}.steps = {steps}"]
        cfg = write_config(tmp_path, "\n".join(lines) + "\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: sweep point {point}: {message}\n")
        assert not (tmp_path / "sweep.csv").exists()

    def test_bench_grid_matches_reference_bytes(self, tmp_path):
        # the benchmark's sweep at its default seed, against its reference
        cfg = write_config(tmp_path, BENCH_SWEEP)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        ref = lzma.decompress((ROOT / "bench" / "ref" / "sweep.csv.xz")
                              .read_bytes())
        assert (out / "sweep.csv").read_bytes() == ref

    @pytest.mark.parametrize("chunk_rows", [1, 7, 131])
    def test_rows_cross_chunks(self, tmp_path, monkeypatch, chunk_rows):
        # 528 rows of every kind over four axes, M among them: chunks end
        # inside each axis's steps, and the last chunk is short
        cfg = write_config(tmp_path, (
            "game.A_L = 2.0\ngame.C_L = 0.5\ngame.A_S = 0.5\n"
            "game.C_S = 1.0\n" + "".join(
                f"sweep.{name}.min = {low!r}\nsweep.{name}.max = {high!r}\n"
                f"sweep.{name}.steps = {steps}\n"
                for name, low, high, steps in [
                    ("P_S", 0.5, 3.0, 11), ("M", 0.5, 5.0, 4),
                    ("rho", 0.25, 1.0, 4), ("N", 1, 91, 3)])))
        assert main(["sweep", "--config", cfg,
                     "--out", str(tmp_path / "whole")]) == 0
        monkeypatch.setattr(cli, "SWEEP_CHUNK_ROWS", chunk_rows)
        assert main(["sweep", "--config", cfg,
                     "--out", str(tmp_path / "chunked")]) == 0
        text = (tmp_path / "chunked" / "sweep.csv").read_bytes()
        assert text == (tmp_path / "whole" / "sweep.csv").read_bytes()
        rows, kinds = scalar_sweep_rows(parse_config(cfg))
        assert text.decode().splitlines()[1:] == rows
        assert kinds >= {"StatusQuo", "FullObfuscation", "PrivacyPromise",
                         "Boundary", "Infeasible"}

    def test_random_grids_match_classify_regime(self):
        seen = set()

        @settings(max_examples=80, derandomize=True, deadline=None)
        @given(text=sweep_configs())
        def check(text):
            with tempfile.TemporaryDirectory() as tmp:
                cfg = write_config(Path(tmp), text)
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(["sweep", "--config", cfg, "--out", tmp]) == 0
                rows, kinds = scalar_sweep_rows(parse_config(cfg))
                lines = (Path(tmp) / "sweep.csv").read_text().splitlines()
            assert lines[1:] == rows
            seen.update(kinds)

        check()
        assert seen >= {"StatusQuo", "FullObfuscation", "PrivacyPromise",
                        "Boundary", "Infeasible", "P_S <= C_S", "C_S = 0",
                        "C_L = 0"}

    def test_sweep_without_ranges_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, ROW3_GAME)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_promise_above_M_is_an_infeasible_row(self, tmp_path, capsys):
        text = (ROW3_GAME.replace("game.C_S = 1.0\n", "")
                .replace("game.N = 100", "game.N = 1000")
                .replace("game.M = 50.0", "game.M = 5.0")
                + "sweep.C_S.min = 0.01\nsweep.C_S.max = 1.0\n"
                  "sweep.C_S.steps = 10\n")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().out.rstrip().endswith("(1 infeasible)")
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == ("C_S,regime,sigma_L_dagger,sigma_bar_dagger,U_L,"
                            "tau_hat")
        assert len(lines) == 11
        assert lines[1] == "0.01,Infeasible,nan,nan,nan,14.12443210498602"
        for line in lines[2:]:
            cells = line.split(",")
            params = GameParams(A_L=2.0, C_L=1.0, A_S=0.5, P_S=2.0,
                                C_S=float(cells[0]), rho=1.0, N=1000, M=5.0)
            report = classify_regime(params)
            assert cells[1:] == [
                report.regime.value, repr(report.sigma_L_dagger),
                repr(report.sigma_bar_dagger),
                repr(report.learner_utility_at_eq),
                repr(report.thresholds.tau_hat)]
        # solve on the infeasible point stays a config error
        solve = write_config(tmp_path, text.split("sweep.")[0]
                             + "game.C_S = 0.01\n", name="solve.cfg")
        assert main(["solve", "--config", solve,
                     "--out", str(tmp_path / "solve")]) == 2
        assert "exceeds M=5.0" in capsys.readouterr().err


class TestBrCurveCommand:
    def test_two_point_curve(self, tmp_path):
        cfg = write_config(tmp_path, ROW3_GAME + (
            "br_curve.sigma_L = 0.5\nbr_curve.n_points = 2\n"))
        out = tmp_path / "out"
        assert main(["br-curve", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "br_curve.csv").read_text().splitlines()
        assert lines[0] == "sigma_bar_other,response"
        assert len(lines) == 3

    def test_response_values_restricted(self, tmp_path):
        cfg = write_config(tmp_path, ROW3_GAME + "br_curve.sigma_L = 0.5\n")
        out = tmp_path / "out"
        assert main(["br-curve", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "br_curve.csv").read_text().splitlines()[1:]
        assert len(rows) == 101  # br_curve.n_points' default
        allowed = {"0.0", "50.0", "indifferent"}
        assert {r.split(",")[1] for r in rows} <= allowed

    def test_missing_sigma_L_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, ROW3_GAME)
        assert main(["br-curve", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_indifferent_rows(self, tmp_path):
        # one user (no crowd term) and P_S = A_S + C_S: at sigma_L = 0 the
        # pressure equals the abstain value whatever the others do
        cfg = write_config(tmp_path, ROW3_GAME.replace(
            "game.P_S = 2.0", "game.P_S = 1.5").replace(
            "game.N = 100", "game.N = 1") + (
            "br_curve.sigma_L = 0\nbr_curve.n_points = 5\n"))
        out = tmp_path / "out"
        assert main(["br-curve", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "br_curve.csv").read_text().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["indifferent"] * 5


class TestCascadeCommand:
    CASCADE = (
        "game.A_L = 2.0\ngame.C_L = 1.0\ngame.A_S = 1.0\ngame.P_S = 1.8\n"
        "game.C_S = 0.2\ngame.rho = 1.0\ngame.N = 100\ngame.M = 100.0\n"
        "cascade.sigma_L = 1.0\ncascade.seed_fraction = 0.01\n"
        "cascade.max_rounds = 20\nrng_seed = 1\n")

    @pytest.mark.parametrize("text", [
        CASCADE,
        # the accuracy level of a crowd near M overflows to inf (see
        # test_solve_csv)
        ROW3_GAME.replace("game.rho = 1.0", "game.rho = 1e-152")
        + "conventions.c_g = 1e5\ncascade.sigma_L = 1.0\n"
          "cascade.seed_fraction = 0.01\n",
    ], ids=["bistable", "overflowing-accuracy"])
    def test_trace_export(self, tmp_path, text):
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["cascade", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "cascade.csv").read_text().splitlines()
        assert lines[0] == "round,adoption_fraction,mean_variance,converged"
        last = lines[-1].split(",")
        assert last[1] == "1.0" and last[3] == "true"

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, self.CASCADE)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["cascade", "--config", cfg, "--out", str(out_a),
                     "--seed", "1"]) == 0
        assert main(["cascade", "--config", cfg, "--out", str(out_b),
                     "--seed", "1"]) == 0
        assert (out_a / "cascade.csv").read_bytes() == (
            out_b / "cascade.csv").read_bytes()

    def test_bench_cascade_matches_reference_bytes(self, tmp_path):
        cfg = write_config(tmp_path, BENCH_CASCADE)
        out = tmp_path / "out"
        assert main(["cascade", "--config", cfg, "--out", str(out),
                     "--seed", "1"]) == 0
        assert (out / "cascade.csv").read_bytes() == (
            ROOT / "bench" / "ref" / "cascade.csv").read_bytes()

    def test_mean_variance_is_the_traces(self, tmp_path):
        # M**2 and M*M differ in the last bit at this M; the cells square M
        # as cascade_simulate's final_mean_variance does
        M = 71.97914879159255
        assert M**2 != M * M
        cfg = write_config(tmp_path, self.CASCADE.replace(
            "game.M = 100.0", f"game.M = {M!r}"))
        out = tmp_path / "out"
        assert main(["cascade", "--config", cfg, "--out", str(out)]) == 0
        trace = cascade_simulate(parse_config(cfg).game_params(), 1.0, 0.01,
                                 rng_seed=1, max_rounds=20)
        last = (out / "cascade.csv").read_text().splitlines()[-1].split(",")
        assert last[1] == "1.0"
        assert last[2] == repr(trace.final_mean_variance)

    @pytest.mark.parametrize("schedule", ["async", "sync"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, schedule):
        cfg = write_config(tmp_path, self.CASCADE
                           + f"cascade.schedule = {schedule}\n")
        out = tmp_path / "out"
        assert main(["cascade", "--config", cfg, "--out", str(out),
                     "--seed", "-1"]) == 2
        assert "config error: rng_seed" in capsys.readouterr().err
        assert not out.exists()


# the help's line for each command
COMMAND_LINES = [f"\n  {name} " for name in
                 ("solve", "sweep", "br-curve", "cascade", "validate")]


class TestCommandLine:
    """The grammar ``obfgame <command> --config PATH [--out DIR]
    [--format csv|json] [--seed N] [--jobs N]``: CFG and OUT in an argv
    stand for a cascade config and an output directory."""

    @pytest.mark.parametrize("argv, code, stream, fragments", [
        # both option forms, options around the command
        (["cascade", "--config", "CFG", "--out", "OUT"], 0, "out",
         ["cascade: converged=True"]),
        (["cascade", "--config=CFG", "--out=OUT", "--seed=1", "--jobs=2"], 0,
         "out", ["cascade: converged=True"]),
        (["--config", "CFG", "--out=OUT", "cascade"], 0, "out",
         ["cascade: converged=True"]),
        (["--out", "OUT", "cascade", "--format=json", "--config", "CFG"], 0,
         "out", ["cascade: converged=True"]),
        # the last repeat wins
        (["cascade", "--config", "missing.cfg", "--config=CFG", "--out",
          "OUT"], 0, "out", ["cascade: converged=True"]),
        (["cascade", "--config", "CFG", "--config", "missing.cfg"], 2, "err",
         ["config error: cannot read config missing.cfg"]),
        (["cascade", "--config", "CFG", "--out", "OUT", "--seed", "-1",
          "--seed", "1"], 0, "out", ["cascade: converged=True"]),
        # a value may start with "-"
        (["cascade", "--config", "CFG", "--out", "OUT", "--seed", "-1"], 2,
         "err", ["config error: rng_seed"]),
        (["cascade", "--config", "CFG", "--out", "OUT", "--seed=-1"], 2,
         "err", ["config error: rng_seed"]),
        # help
        (["-h"], 0, "out",
         ["usage: obfgame", *COMMAND_LINES, "--config PATH"]),
        (["--help"], 0, "out", ["usage: obfgame", *COMMAND_LINES, "--jobs N"]),
        (["cascade", "--config", "CFG", "-h"], 0, "out",
         ["usage: obfgame", *COMMAND_LINES]),
        # usage errors
        ([], 2, "err", ["a command is required"]),
        (["--config", "CFG"], 2, "err", ["a command is required"]),
        (["cascade"], 2, "err", ["argument --config is required"]),
        (["cascade", "--out", "OUT"], 2, "err",
         ["argument --config is required"]),
        (["frob", "--config", "CFG"], 2, "err",
         ["unrecognized argument 'frob'"]),
        (["cascade", "solve", "--config", "CFG"], 2, "err",
         ["unrecognized argument 'solve'"]),
        (["cascade", "--config", "CFG", "--bogus", "1"], 2, "err",
         ["unrecognized argument '--bogus'"]),
        (["cascade", "--config"], 2, "err",
         ["argument --config: expected one argument"]),
        (["cascade", "--config", "CFG", "--seed"], 2, "err",
         ["argument --seed: expected one argument"]),
        (["cascade", "--config", "CFG", "--seed", "x"], 2, "err",
         ["argument --seed N: invalid value 'x'"]),
        (["cascade", "--config", "CFG", "--jobs=1.5"], 2, "err",
         ["argument --jobs N: invalid value '1.5'"]),
        (["solve", "--config", "CFG", "--format", "xml"], 2, "err",
         ["argument --format csv|json: invalid value 'xml'"]),
        # no prefix abbreviations
        (["cascade", "--conf", "CFG"], 2, "err",
         ["unrecognized argument '--conf'"]),
        (["cascade", "--config", "CFG", "--out", "OUT", "--s", "1"], 2, "err",
         ["unrecognized argument '--s'"]),
        # refused before any fit, with the key cascade names
        (["validate", "--config", "CFG", "--out", "OUT", "--seed", "-1"], 2,
         "err", ["config error: rng_seed=-1 must be a non-negative integer"]),
        # refused by the commands that read no seed too
        (["solve", "--config", "CFG", "--out", "OUT", "--seed", "-1"], 2,
         "err", ["config error: rng_seed=-1 must be a non-negative integer"]),
        (["sweep", "--config", "CFG", "--out", "OUT", "--seed=-1"], 2,
         "err", ["config error: rng_seed=-1 must be a non-negative integer"]),
        (["br-curve", "--config", "CFG", "--out", "OUT", "--seed", "-1"], 2,
         "err", ["config error: rng_seed=-1 must be a non-negative integer"]),
        (["solve", "--config", "CFG", "--out", "OUT", "--seed", "-1",
          "--seed", "1"], 0, "out", ["regime="]),
    ])
    def test_argv(self, tmp_path, capsys, argv, code, stream, fragments):
        cfg = write_config(tmp_path, TestCascadeCommand.CASCADE)
        out = str(tmp_path / "out")
        argv = [arg.replace("CFG", cfg).replace("OUT", out) for arg in argv]
        try:
            result = main(argv)
        except SystemExit as exc:
            result = exc.code
        captured = capsys.readouterr()
        text = getattr(captured, stream)
        assert result == code, captured
        for fragment in fragments:
            assert fragment in text
        if code == 2 and "config error" not in text:
            usage, error = text.splitlines()
            assert usage.startswith("usage: obfgame <")
            assert error.startswith("obfgame: error: ")
            assert captured.out == ""

    @pytest.mark.parametrize("command", ["solve", "sweep", "br-curve",
                                         "cascade", "validate"])
    def test_negative_seed_key_is_refused_by_every_command(
            self, tmp_path, capsys, command):
        # checked after --seed has overridden the key
        cfg = write_config(tmp_path, TestCascadeCommand.CASCADE.replace(
            "rng_seed = 1", "rng_seed = -1") + "br_curve.sigma_L = 1.0\n"
            "sweep.P_S.min = 1.0\nsweep.P_S.max = 2.0\nsweep.P_S.steps = 2\n")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: rng_seed=-1 must be a non-negative integer\n")
        assert not out.exists()
        if command != "validate":  # the ERM runs are the slow part of tier-1
            assert main([command, "--config", cfg, "--out", str(out),
                         "--seed", "1"]) == 0

    def test_cascade_imports_no_argparse(self, tmp_path, run_python):
        # a fresh interpreter: the claimed start-up saving is argparse's
        cfg = write_config(tmp_path, TestCascadeCommand.CASCADE)
        script = (
            "import sys\n"
            "from obfgame.cli import main\n"
            f"assert main(['cascade', '--config', {cfg!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]) == 0\n"
            "assert 'argparse' not in sys.modules, 'argparse imported'\n")
        done = run_python("-c", script, timeout=60)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "out" / "cascade.csv").is_file()


class TestKeyedOptions:
    """--out, --format and --seed stand for output.dir, output.format and
    rng_seed: the option beats its config key, and the key beats the
    key's default."""

    @staticmethod
    def used(work, monkeypatch, entries, options):
        """The output directory, solve's format and the cascade's seed that
        solve and cascade use in ``work`` with these entries and options."""
        work.mkdir()
        monkeypatch.chdir(work)
        cfg = write_config(work, ROW3_GAME + "cascade.sigma_L = 1.0\n"
                           "cascade.seed_fraction = 0.01\n" + entries)
        seeds = []
        simulate = mfg.cascade_simulate

        def spy(*args, **kwargs):
            seeds.append(kwargs["rng_seed"])
            return simulate(*args, **kwargs)

        monkeypatch.setattr(mfg, "cascade_simulate", spy)
        assert main(["solve", "--config", cfg, *options]) == 0
        assert main(["cascade", "--config", cfg, *options]) == 0
        [solve] = work.glob("*/solve.*")
        assert (solve.parent / "cascade.csv").is_file()
        return solve.parent.name, solve.suffix[1:], str(seeds[0])

    @pytest.mark.parametrize("used, option, key, given, configured, default", [
        (0, "--out", "output.dir", "moved", "kept", "out"),
        (1, "--format", "output.format", "csv", "json", "csv"),
        (2, "--seed", "rng_seed", "3", "7", "0"),
    ], ids=["out", "format", "seed"])
    def test_option_beats_key_beats_default(self, tmp_path, monkeypatch, used,
                                            option, key, given, configured,
                                            default):
        entry = f"{key} = {configured}\n"
        assert self.used(tmp_path / "default", monkeypatch, "",
                         [])[used] == default
        assert self.used(tmp_path / "key", monkeypatch, entry,
                         [])[used] == configured
        assert self.used(tmp_path / "option", monkeypatch, entry,
                         [option, given])[used] == given
        assert self.used(tmp_path / "equals", monkeypatch, entry,
                         [f"{option}={given}"])[used] == given


@pytest.mark.parametrize("sigma_L", ["60", "-1", "nan"])
@pytest.mark.parametrize("command, extra", [
    ("cascade", "cascade.seed_fraction = 0.01\n"), ("br-curve", "")])
def test_promise_outside_domain_exits_2(tmp_path, capsys, command, extra,
                                        sigma_L):
    section = command.replace("-", "_")
    cfg = write_config(tmp_path, ROW3_GAME + extra
                       + f"{section}.sigma_L = {sigma_L}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert (f"config error: sigma_L={float(sigma_L)} outside [0, M=50.0]"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command, text, named", [
    ("solve", "game.A_L = abc\n", "expected a number, got 'abc'"),
    ("solve", "game.N = 2.5\n", "expected an integer, got '2.5'"),
    ("cascade", "cascade.schedule = fast\n",
     "expected one of ('async', 'sync'), got 'fast'"),
    ("validate", "experiment.erm.levels = ,\n",
     "expected a comma-separated list of numbers"),
    ("validate", "experiment.dp.pairs = 1,2,3\n",
     "expected 'a,b' pairs separated by ';', got '1,2,3'"),
    ("validate", "experiment.dp.pairs = ;\n",
     "expected at least one sigma pair"),
    ("solve", "game.A_L 2.0\n", "expected 'key = value'"),
    ("sweep", ROW3_GAME + "sweep.P_S.min = 0.5\nsweep.P_S.max = 5.0\n"
     "sweep.P_S.steps = 0\n", "sweep steps must be >= 1"),
], ids=["number", "integer", "choice", "empty-list", "three-part-pair",
        "no-pair", "no-equals", "zero-steps"])
def test_refused_config_exits_2(tmp_path, capsys, command, text, named):
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err
    assert not out.exists()


@pytest.mark.parametrize("command, text", [
    ("solve", ROW3_GAME), ("sweep", TestSweepCommand.SWEEP)],
    ids=["solve", "sweep"])
def test_unwritable_output_exits_2(tmp_path, capsys, command, text):
    # the output directory's parent is a regular file
    cfg = write_config(tmp_path, text)
    blocker = tmp_path / "afile"
    blocker.write_text("")
    assert main([command, "--config", cfg, "--out",
                 str(blocker / "sub")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output: ")
    assert err.count("\n") == 1


class TestValidateCommand:
    def test_small_validation_run(self, tmp_path):
        cfg = write_config(tmp_path, (
            "rng_seed = 123\n"
            "experiment.erm.n = 300\n"
            "experiment.erm.replications = 10\n"
            "experiment.erm.n_ref = 30000\n"
            "experiment.erm.n_eval = 4000\n"))
        out = tmp_path / "out"
        code = main(["validate", "--config", cfg, "--out", str(out)])
        assert code == 0
        erm_lines = (out / "erm_scaling.csv").read_text().splitlines()
        assert erm_lines[0] == ("level_index,v,mean_excess_risk,std_error,"
                                "replications")
        assert len(erm_lines) == 6
        # the configured aggregates, printed as configured
        assert [line.split(",")[1] for line in erm_lines[1:]] == [
            "0.0", "0.5", "1.0", "2.0", "4.0"]
        dp_lines = (out / "dp_scaling.csv").read_text().splitlines()
        assert dp_lines[0] == ("pair_index,sigma_L,sigma_S,combined_std,"
                               "epsilon,valid")
        summary = (out / "validate_summary.txt").read_text()
        assert "erm_scaling: PASS" in summary
        assert "unconverged=0)" in summary
        assert "dp_scaling: PASS" in summary

    def test_custom_experiment_reaches_the_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, (
            "experiment.erm.levels = 0, 1, 2, 4\n"
            "experiment.erm.replications = 10\n"
            "experiment.erm.n_ref = 2000\n"
            "experiment.erm.n_eval = 1000\n"
            "experiment.dp.pairs = 1,0; 3,4 ;\n"))
        out = tmp_path / "out"
        assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" ")[:2] for line in lines] == [
            ["erm_scaling:", "PASS"], ["dp_scaling:", "PASS"]]
        erm_rows = (out / "erm_scaling.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in erm_rows] == [
            ["0", "0.0"], ["1", "1.0"], ["2", "2.0"], ["3", "4.0"]]
        dp_rows = (out / "dp_scaling.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:4] for row in dp_rows] == [
            ["0", "1.0", "0.0", "1.0"], ["1", "3.0", "4.0", "5.0"]]

    def test_unconverged_fits_fail_validation(self, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.setattr(erm, "ErmConfig",
                            functools.partial(erm.ErmConfig, max_iters=1))
        cfg = write_config(tmp_path, (
            "rng_seed = 123\n"
            "experiment.erm.n = 300\n"
            "experiment.erm.replications = 10\n"
            "experiment.erm.n_ref = 30000\n"
            "experiment.erm.n_eval = 4000\n"))
        out = tmp_path / "out"
        assert main(["validate", "--config", cfg, "--out", str(out)]) == 1
        summary = (out / "validate_summary.txt").read_text()
        assert summary == capsys.readouterr().out
        erm_line = summary.splitlines()[0]
        # 5 levels x 10 replications plus the reference fit
        assert erm_line.startswith("erm_scaling: FAIL (")
        assert erm_line.endswith(", unconverged=51)")
        assert "dp_scaling: PASS" in summary

    @pytest.mark.parametrize("entry, named", [
        ("experiment.erm.levels = 0, nan, 1, 2",
         "aggregates[1] must be finite and non-negative, got nan"),
        ("experiment.erm.levels = 0, -1, 1, 2",
         "aggregates[1] must be finite and non-negative, got -1.0"),
        ("experiment.erm.levels = 0, inf, 1, 2",
         "aggregates[1] must be finite and non-negative, got inf"),
        ("experiment.erm.separation = nan", "separation must be finite and "
                                            "non-negative, got nan"),
        ("experiment.erm.separation = inf", "separation must be finite and "
                                            "non-negative, got inf"),
        ("experiment.erm.rho = inf", "rho must be finite and positive, "
                                     "got inf"),
        ("experiment.dp.sensitivity = inf", "sensitivity must be finite and "
                                            "positive, got inf"),
        ("experiment.dp.pairs = inf,0; 2,0", "sigma pair 0 (inf, 0.0)"),
        ("experiment.dp.pairs = 1,0; -1,0", "sigma pair 1 (-1.0, 0.0)"),
        ("experiment.dp.pairs = 0,0", "zero total noise"),
        ("experiment.erm.levels = 1, 1, 1, 1",
         "all noise levels share the same variance aggregate"),
    ])
    def test_bad_experiment_value_exits_2(self, tmp_path, run_python,
                                          entry, named):
        # a subprocess keeps a run that never ends from hanging the suite
        cfg = write_config(tmp_path, (
            "experiment.erm.n = 100\n"
            "experiment.erm.replications = 10\n"
            "experiment.erm.n_ref = 2000\n"
            "experiment.erm.n_eval = 1000\n"
            f"{entry}\n"))
        done = run_python("-m", "obfgame.cli", "validate", "--config", cfg,
                          "--out", str(tmp_path / "out"), timeout=60)
        assert done.returncode == 2, done.stderr
        assert f"config error: {named}" in done.stderr

    @pytest.mark.parametrize("entry, named", [
        ("experiment.erm.n_eval = 500", "n_eval must be >= 1000"),
        ("experiment.erm.n_ref = 1", "n_ref must be >= 2"),
        ("experiment.erm.carriers = 0", "carriers must be >= 1"),
    ])
    def test_small_samples_exit_2_before_fitting(self, tmp_path, monkeypatch,
                                                 capsys, entry, named):
        def no_fit(*args):
            raise AssertionError("fitted before the sample sizes were checked")
        monkeypatch.setattr(erm, "_newton", no_fit)
        cfg = write_config(tmp_path, f"{entry}\n")
        assert main(["validate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {named}" in capsys.readouterr().err

    def test_too_few_replications_refused(self, tmp_path):
        cfg = write_config(tmp_path, "experiment.erm.replications = 1\n")
        assert main(["validate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
