"""Inputs, reference outputs and correctness checks of the benchmark.

Every input is made from the workload seed.  At a workload's default seed the
outputs are also compared with reference outputs of the program kept in
``ref/`` (regenerate them with ``python3 bench/make_refs.py``).  Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import lzma
import math
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REF_DIR = BENCH / "ref"

WORKLOADS = ("sweep", "solve", "cascade", "validate")
# validate's default is acceptance criterion 6's seed, cascade's criterion 8's
DEFAULT_SEEDS = {"sweep": 0, "solve": 0, "cascade": 1, "validate": 7}
# validate runs acceptance 6's experiment at its own seed, whatever the
# workload seed: the experiment's cost depends on how many of its 250 fits
# stall at max_iters (0 to 3 over seeds 0-11, each adding about 45% to the
# run), so another seed would measure another amount of work.  Seed 7 has one
# stalled fit, as ROADMAP reports.
VALIDATE_SEED = DEFAULT_SEEDS["validate"]

# Relative tolerance on reference numbers: a 1-ulp move is not a failure.
REL_TOL = 1e-12

SWEEP_M = 50.0
SWEEP_POINTS = 40 * 20 * 4
SWEEP_HEADER = "C_L,N,P_S,regime,sigma_L_dagger,sigma_bar_dagger,U_L,tau_hat"

SOLVE_BATCH = 1000
SOLVE_HEADER = "regime,sigma_L_dagger,sigma_bar_dagger,U_L,U_S"

CASCADE_N = 10_000
CASCADE_HEADER = "round,adoption_fraction,mean_variance,converged"

ERM_HEADER = "level_index,v,mean_excess_risk,std_error,replications"
# Bound on |x| over the evaluation sample plus rho*|w|, for d = 5 and unit
# separation: the excess-risk estimate is Lipschitz in the weights with this
# constant.
ERM_LIPSCHITZ = 10.0


def sweep_config(seed: int) -> str:
    """The 40 x 20 x 4 regime-map grid; another seed draws A_L.

    The draw stays near 2: the regime mix, and so the work per point, moves
    with A_L (about 10% between A_L = 1.5 and 2.5).
    """
    a_l = (2.0 if seed == DEFAULT_SEEDS["sweep"]
           else float(np.random.default_rng(seed).uniform(1.9, 2.1)))
    return (f"game.A_L = {a_l!r}\n"
            "game.A_S = 1.0\n"
            "game.C_S = 1.0\n"
            "game.rho = 1.0\n"
            f"game.M = {SWEEP_M!r}\n"
            "sweep.P_S.min = 0.5\n"
            "sweep.P_S.max = 5.0\n"
            "sweep.P_S.steps = 40\n"
            "sweep.C_L.min = 0.05\n"
            "sweep.C_L.max = 2.5\n"
            "sweep.C_L.steps = 20\n"
            "sweep.N.min = 1\n"
            "sweep.N.max = 1000\n"
            "sweep.N.steps = 4\n")


def cascade_config() -> str:
    """Acceptance 8's bistable example at N = 10,000; M = 10 sqrt(N) keeps
    kappa M^2 = 100 as at N = 100."""
    return ("game.A_L = 2.0\n"
            "game.C_L = 1.0\n"
            "game.A_S = 1.0\n"
            "game.P_S = 1.8\n"
            "game.C_S = 0.2\n"
            "game.rho = 1.0\n"
            f"game.N = {CASCADE_N}\n"
            f"game.M = {10.0 * math.sqrt(CASCADE_N)!r}\n"
            "cascade.sigma_L = 1.0\n"
            "cascade.seed_fraction = 0.01\n"
            "cascade.schedule = async\n")


def validate_config() -> str:
    return "# the default scaling experiment\n"


def cli_seed(workload: str, seed: int) -> int:
    """The ``--seed`` a CLI operation gets."""
    return VALIDATE_SEED if workload == "validate" else seed


def cli_config(workload: str, seed: int) -> str:
    if workload == "sweep":
        return sweep_config(seed)
    return cascade_config() if workload == "cascade" else validate_config()


def solve_params(seed: int, count: int = SOLVE_BATCH):
    """``count`` distinct parameter sets drawn from ``seed``.

    Each coordinate is drawn stratified (one draw in each of ``count`` equal
    slices of its range, in random order), so that batches of different
    seeds mix cheap and costly points alike: with plain uniform draws the
    cost of a 1,000-point batch moves by about 12% from seed to seed.
    """
    from obfgame import GameParams

    rng = np.random.default_rng(seed)

    def uniform(low: float, high: float) -> np.ndarray:
        u = (rng.permutation(count) + rng.random(count)) / count
        return low + (high - low) * u

    a_s = uniform(0.3, 1.5)
    c_s = uniform(0.3, 1.5)
    p_s = (a_s + c_s) * uniform(0.5, 3.0)
    a_l = uniform(0.5, 4.0)
    c_l = uniform(0.05, 2.0)
    rho = uniform(0.5, 2.0)
    n = np.floor(uniform(2, 5001)).astype(int)
    params = []
    for i in range(count):
        tau = (math.sqrt(1.0 / math.log(p_s[i] / (p_s[i] - c_s[i])))
               if p_s[i] > c_s[i] else 0.0)
        params.append(GameParams(
            A_L=float(a_l[i]), C_L=float(c_l[i]), A_S=float(a_s[i]),
            P_S=float(p_s[i]), C_S=float(c_s[i]), rho=float(rho[i]),
            N=int(n[i]), M=max(10.0 * tau, 32.0)))
    return params


def solve_row(report) -> str:
    return ",".join([report.regime.value] + [repr(float(x)) for x in (
        report.sigma_L_dagger, report.sigma_bar_dagger,
        report.learner_utility_at_eq, report.user_utility_at_eq)])


def check_solve_report(params, report) -> list[str]:
    """Agreement with classify_regime off Boundary, and the table row:
    StatusQuo (0, 0), FullObfuscation (0, M), PrivacyPromise (tau_hat, 0)
    as (sigma_L, sigma_bar)."""
    from obfgame import stackelberg

    regime = report.regime.value
    if regime == "Boundary":
        return []
    closed = stackelberg.classify_regime(params)
    problems = []
    if closed.regime.value != regime:
        problems.append(f"{params}: pbne_solve says {regime}, "
                        f"classify_regime says {closed.regime.value}")
    if regime == "PrivacyPromise":
        expected = (stackelberg.tau_hat(params), 0.0)
    else:
        expected = {"StatusQuo": (0.0, 0.0),
                    "FullObfuscation": (0.0, params.M)}.get(regime)
    got = (report.sigma_L_dagger, report.sigma_bar_dagger)
    if expected is None or not all(_close(a, b) for a, b in zip(got, expected)):
        problems.append(f"{params}: {regime} at {got}, expected {expected}")
    return problems


def erm_mean_tolerance() -> float:
    """Largest move of a level's mean excess risk between two correct fits.

    A fit stops once the gradient norm is at most grad_tolerance; the
    objective is rho-strongly convex, so its weights lie within
    grad_tolerance / rho of the optimum and two such fits differ by at most
    2 grad_tolerance / rho.  Each estimate depends on a noisy fit and the
    reference fit, both Lipschitz with ERM_LIPSCHITZ, so a mean (or standard
    error) moves by at most 2 * ERM_LIPSCHITZ * 2 grad_tolerance / rho.
    """
    from obfgame.config import DEFAULTS
    from obfgame.erm import ErmConfig

    config = ErmConfig(rho=float(DEFAULTS["experiment.erm.rho"]))
    return 2.0 * ERM_LIPSCHITZ * 2.0 * config.grad_tolerance / config.rho


def _close(a, b, abs_tol: float = 0.0) -> bool:
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= max(abs_tol, REL_TOL * max(abs(a), abs(b)))


def _cells(text: str) -> tuple[str, list[list[str]]]:
    lines = text.splitlines()
    return (lines[0] if lines else ""), [line.split(",") for line in lines[1:]]


def compare_table(text: str, ref_text: str, kinds: str,
                  abs_tol: float = 0.0, limit: int = 5) -> list[str]:
    """Compare a CSV with its reference cell by cell.  ``kinds`` has one
    letter per column: ``t`` compares the text exactly, ``n`` compares
    numbers within REL_TOL relative, ``a`` within ``abs_tol`` absolute."""
    header, rows = _cells(text)
    ref_header, ref_rows = _cells(ref_text)
    if header != ref_header:
        return [f"header {header!r} != reference {ref_header!r}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        if row == ref:
            continue
        if len(row) != len(kinds) or len(ref) != len(kinds):
            problems.append(f"row {i}: wrong number of cells")
        else:
            for j, kind in enumerate(kinds):
                a, b = row[j], ref[j]
                if a == b:
                    continue
                tol = abs_tol if kind == "a" else 0.0
                if kind == "t" or "" in (a, b) or not _close(a, b, tol):
                    problems.append(
                        f"row {i} column {j}: {a!r} != reference {b!r}")
        if len(problems) >= limit:
            break
    return problems


def check_sweep(text: str, ref_text: str | None) -> list[str]:
    """Row count, the regime table's row values, and at the default seed the
    reference (regimes exact, numbers within REL_TOL)."""
    header, rows = _cells(text)
    if header != SWEEP_HEADER:
        return [f"sweep header {header!r}"]
    problems = []
    if len(rows) != SWEEP_POINTS:
        problems.append(f"sweep has {len(rows)} rows, expected {SWEEP_POINTS}")
    m = repr(SWEEP_M)
    for i, row in enumerate(rows):
        if len(row) != 8:
            problems.append(f"row {i}: {len(row)} cells")
            break
        regime, sigma_l, sigma_bar, u_l, tau_hat = row[3:]
        ok = {
            "StatusQuo": sigma_l == "0.0" and sigma_bar == "0.0",
            "FullObfuscation": sigma_l == "0.0" and sigma_bar == m,
            "PrivacyPromise": sigma_l == tau_hat and sigma_bar == "0.0",
            "Boundary": sigma_l == sigma_bar == u_l == "nan",
        }.get(regime, False)
        if not ok and len(problems) < 5:
            problems.append(f"row {i}: {regime} row with sigma_L={sigma_l}, "
                            f"sigma_bar={sigma_bar}, U_L={u_l}")
    if ref_text is not None:
        problems += compare_table(text, ref_text, "tttt" + "n" * 4)
    return problems


def check_cascade(text: str, ref_text: str | None) -> tuple[list[str], int]:
    """Converged to full adoption, and at the default seed the reference
    trace exactly.  Also returns the number of update passes."""
    header, rows = _cells(text)
    if header != CASCADE_HEADER or len(rows) < 2:
        return [f"cascade output {text[:80]!r}"], 0
    problems = []
    last = rows[-1]
    if last[1:2] != ["1.0"] or last[3:4] != ["true"]:
        problems.append(f"cascade ended at {last}, expected adoption 1.0, "
                        "converged")
    if ref_text is not None and text != ref_text:
        problems.append("cascade trace differs from the reference")
    return problems, len(rows) - 1


def check_validate(summary: str, erm_text: str, dp_text: str,
                   erm_ref: str | None, dp_ref: str) -> tuple[list[str], int]:
    """Both PASS lines, strictly increasing level means, the DP table
    exactly, and at the default seed level means within erm_mean_tolerance
    of the reference.  Also returns the number of ERM fits."""
    problems = []
    for check in ("erm_scaling", "dp_scaling"):
        if not any(line.startswith(f"{check}: PASS")
                   for line in summary.splitlines()):
            problems.append(f"no '{check}: PASS' line in {summary!r}")
    header, rows = _cells(erm_text)
    if header != ERM_HEADER or not rows:
        return problems + [f"erm_scaling output {erm_text[:80]!r}"], 0
    means = [float(row[2]) for row in rows]
    if any(b <= a for a, b in zip(means, means[1:])):
        problems.append(f"level means not increasing: {means}")
    if dp_text != dp_ref:
        problems.append("dp_scaling.csv differs from the reference")
    if erm_ref is not None:
        problems += compare_table(erm_text, erm_ref, "tnaat",
                                  abs_tol=erm_mean_tolerance())
    fits = sum(int(row[4]) for row in rows) + 1  # plus the reference fit
    return problems, fits


def reference(name: str) -> str:
    path = REF_DIR / name
    if path.suffix == ".xz":
        return lzma.decompress(path.read_bytes()).decode()
    return path.read_text()
