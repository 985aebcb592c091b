"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime (run with ``pytest tests/test_acceptance.py -s`` to see the
lines as they complete)."""

import math
import time

import numpy as np

from obfgame import (
    DpSpec,
    EquilibriumRegime,
    ErmConfig,
    GameParams,
    GeneratorSpec,
    MfgRegime,
    ResponseKind,
    abstain_value,
    best_response,
    best_response_oracle,
    cascade_simulate,
    classify_regime,
    fixed_point_check,
    gamma,
    gaussian_epsilon,
    kappa,
    leader_utility_piecewise,
    mfg_equilibria,
    pbne_solve,
    privacy_pressure,
    scaling_experiment,
    sg_equilibrium,
    tau_exact,
    tau_hat,
    user_utility,
)
from obfgame.cli import main


def report(name: str, budget: float, started: float, ok: bool, detail: str):
    elapsed = time.time() - started
    in_time = elapsed < budget
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.2f}s / budget {budget:g}s) "
          f"{detail}")
    assert ok, f"{name}: {detail}"
    assert in_time, f"{name}: runtime {elapsed:.2f}s exceeded {budget:g}s"


def test_criterion_1_table_reproduction():
    """classify_regime and pbne_solve agree across a (P_S, C_L, N) grid and
    reproduce the equilibrium table rows exactly."""
    started = time.time()
    checked = boundary = 0
    failures = []
    for P_S in np.linspace(0.5, 5.0, 50):
        for C_L in np.linspace(0.05, 2.5, 50):
            for N in (1, 10, 100, 1000):
                params = GameParams(A_L=2.0, C_L=float(C_L), A_S=1.0,
                                    P_S=float(P_S), C_S=1.0, rho=1.0,
                                    N=N, M=50.0)
                closed = classify_regime(params)
                if closed.regime is EquilibriumRegime.BOUNDARY:
                    boundary += 1
                    continue
                solved = pbne_solve(params)
                checked += 1
                pair = (solved.sigma_bar_dagger, solved.sigma_L_dagger)
                if closed.regime is EquilibriumRegime.STATUS_QUO:
                    want = (0.0, 0.0)
                elif closed.regime is EquilibriumRegime.FULL_OBFUSCATION:
                    want = (params.M, 0.0)
                else:
                    want = (0.0, tau_hat(params))
                if (solved.regime is not closed.regime or pair != want
                        or (closed.sigma_bar_dagger,
                            closed.sigma_L_dagger) != want):
                    failures.append((float(P_S), float(C_L), N))
    ok = not failures and checked > 0
    report("1 table-reproduction", 10.0, started, ok,
           f"{checked} non-boundary points, {boundary} boundary, "
           f"{len(failures)} mismatches")


def test_criterion_2_fixed_point_soundness():
    """Every reported symmetric equilibrium is a best-response fixed point;
    bistable cases select 0, where the user is better off than at M."""
    started = time.time()
    rng = np.random.default_rng(92)
    bistable = failures = 0
    for _ in range(1000):
        rho = float(rng.uniform(0.5, 2.0))
        N = int(rng.integers(2, 1001))
        params = GameParams(
            A_L=2.0, C_L=1.0,
            A_S=float(rng.uniform(0.3, 2.0)),
            P_S=float(rng.uniform(0.3, 5.0)),
            C_S=float(rng.uniform(0.05, 1.5)),
            rho=rho, N=N, M=50.0 * rho * N,
        )
        sigma_L = float(rng.uniform(0.0, 3.0) if rng.random() < 0.5
                        else rng.uniform(0.0, params.M))
        eq = mfg_equilibria(params, sigma_L)
        if not all(fixed_point_check(params, sigma_L, point)
                   for point in eq.equilibria):
            failures += 1
            continue
        if eq.regime is MfgRegime.BISTABLE:
            bistable += 1
            at_zero = user_utility(params, sigma_L, 0.0, 0.0)
            at_max = user_utility(params, sigma_L, params.M, params.M)
            if eq.selected != 0.0 or not at_zero > at_max:
                failures += 1
    ok = failures == 0 and bistable > 0
    report("2 fixed-point-soundness", 5.0, started, ok,
           f"1000 parameter sets, {bistable} bistable, {failures} failures")


def test_criterion_3_oracle_equivalence():
    """The corner best response matches the brute-force argmax on sized
    parameter sets; any disagreement is an interior optimum."""
    started = time.time()
    rng = np.random.default_rng(93)
    agree = disagree = unexplained = 0
    for _ in range(1000):
        while True:
            rho = float(rng.uniform(0.5, 2.0))
            N = int(rng.integers(2, 1001))
            M = max(50.0 * rho * N, 32.0)
            params = GameParams(
                A_L=2.0, C_L=1.0,
                A_S=float(rng.uniform(0.5, 2.0)),
                P_S=float(rng.uniform(0.3, 6.0)),
                C_S=float(rng.uniform(0.2, 1.5)),
                rho=rho, N=N, M=M)
            sigma_L = float(rng.uniform(0.0, M))
            sigma_bar = float(rng.choice((0.0, M)))
            margin = abs(privacy_pressure(params, sigma_L)
                         - abstain_value(params, sigma_L, sigma_bar))
            sized = (kappa(params) * M * M * (N - 1) / N >= 20.0
                     and params.conventions.c_p / M**2 <= 1e-3)
            if margin > 1e-3 and sized:
                break
        kind = best_response(params, sigma_L, sigma_bar).kind
        points = best_response_oracle(params, sigma_L, sigma_bar, 10_000)
        corner = {ResponseKind.ZERO: [0.0], ResponseKind.MAX: [M]}[kind]
        if list(points) == corner:
            agree += 1
        else:
            disagree += 1
            if not all(0.0 < q < M for q in points):
                unexplained += 1
    ok = agree >= 990 and unexplained == 0
    report("3 oracle-equivalence", 30.0, started, ok,
           f"{agree}/1000 agree, {disagree} interior-diagnosed, "
           f"{unexplained} unexplained")


def _promise_draw(rng, n_low=50, n_high=5001):
    A_S = float(rng.uniform(0.3, 1.5))
    C_S = float(rng.uniform(0.3, 1.5))
    P_S = (A_S + C_S) * float(rng.uniform(1.1, 2.5))
    th = math.sqrt(1.0 / math.log(P_S / (P_S - C_S)))
    return GameParams(
        A_L=float(rng.uniform(0.5, 4.0)),
        C_L=float(rng.uniform(0.05, 2.0)),
        A_S=A_S, P_S=P_S, C_S=C_S,
        rho=float(rng.uniform(0.5, 2.0)),
        N=int(rng.integers(n_low, n_high)),
        M=max(10.0 * th, 32.0))


def test_criterion_4_threshold_ordering():
    """tau_exact exists below tau_hat with a ~1e-10 residual, and the induced
    response switches from M to 0 exactly there."""
    started = time.time()
    rng = np.random.default_rng(94)
    failures = 0
    for _ in range(1000):
        params = _promise_draw(rng)
        te = tau_exact(params)
        th = tau_hat(params)
        residual = (privacy_pressure(params, te)
                    - abstain_value(params, te, 0.0))
        grid = np.linspace(0.0, params.M, 1000)
        induced = np.array([gamma(params, float(s)) for s in grid])
        expected = np.where(grid < te, params.M, 0.0)
        if not (0.0 < te < th and abs(residual) <= 1e-9
                and np.array_equal(induced, expected)):
            failures += 1
    report("4 threshold-ordering", 10.0, started, failures == 0,
           f"1000 parameter sets, {failures} failures")


def test_criterion_5_leader_optimality():
    """The closed-form promise maximizes the reference leader curve: the
    10^4-point scan lands within one grid cell and never beats the
    closed-form utility beyond 1e-4 * A_L."""
    started = time.time()
    rng = np.random.default_rng(95)
    failures = 0
    for _ in range(1000):
        params = _promise_draw(rng, n_low=2, n_high=2001)
        promise = sg_equilibrium(params)
        grid = np.linspace(0.0, params.M, 10_000)
        values = leader_utility_piecewise(params, grid)
        scan_arg = float(grid[int(values.argmax())])
        cell = params.M / (10_000 - 1)
        gap = float(values.max()) - leader_utility_piecewise(params, promise)
        if not (abs(scan_arg - promise) <= cell + 1e-12
                and gap <= 1e-4 * params.A_L):
            failures += 1
    report("5 leader-optimality", 60.0, started, failures == 0,
           f"1000 parameter sets, {failures} failures")


def test_criterion_6_excess_risk_scaling():
    """Measured excess risk grows linearly in the variance aggregate and the
    fitted slope halves when the record count doubles."""
    started = time.time()
    gen = GeneratorSpec(5, 1.0)
    config = ErmConfig(rho=0.1)
    reports = {}
    for n_records in (500, 1000):
        reports[n_records] = scaling_experiment(
            gen, n_records, config, [0.0, 0.5, 1.0, 2.0, 4.0],
            replications=50, rng_seed=7,
            n_eval=8000, n_ref=100_000, carriers=25)
    base, doubled = reports[500], reports[1000]
    ratio = doubled.slope / base.slope
    ok = (base.r_squared >= 0.9 and doubled.r_squared >= 0.9
          and base.rank_correlation == 1.0 and doubled.rank_correlation == 1.0
          and 0.3 <= ratio <= 0.7)
    report("6 excess-risk-scaling", 300.0, started, ok,
           f"r2=({base.r_squared:.3f},{doubled.r_squared:.3f}) "
           f"rank=({base.rank_correlation:+.0f},{doubled.rank_correlation:+.0f}) "
           f"slope_ratio={ratio:.3f} (target 0.5)")


def test_criterion_7_dp_calibration():
    """epsilon * total_std reproduces the analytic constant to 1e-12 relative
    error and the validity flag tracks epsilon < 1."""
    started = time.time()
    rng = np.random.default_rng(97)
    failures = 0
    for _ in range(1000):
        spec = DpSpec(delta=float(rng.uniform(1e-8, 0.5)),
                      sensitivity=float(rng.uniform(1e-3, 10.0)))
        std = float(rng.uniform(1e-3, 100.0))
        result = gaussian_epsilon(spec, std)
        constant = (spec.sensitivity
                    * math.sqrt(2.0 * math.log(1.25 / spec.delta)))
        if (abs(result.epsilon * std - constant) > 1e-12 * constant
                or result.valid != (result.epsilon < 1.0)):
            failures += 1
    report("7 dp-calibration", 1.0, started, failures == 0,
           f"1000 random inputs, {failures} failures")


def test_criterion_8_cascade_behavior():
    """In the bistable worked example a one-percent seed cascades to full
    adoption while no seed stays at zero, both within 20 rounds and both
    ending in best-response fixed points."""
    started = time.time()
    params = GameParams(A_L=2.0, C_L=1.0, A_S=1.0, P_S=1.8, C_S=0.2,
                        rho=1.0, N=100, M=100.0)
    up = cascade_simulate(params, 1.0, 0.01, rng_seed=1, max_rounds=20)
    down = cascade_simulate(params, 1.0, 0.0, rng_seed=1, max_rounds=20)
    ok = (up.converged and up.adoption_fraction[-1] == 1.0
          and down.converged and down.adoption_fraction[-1] == 0.0
          and fixed_point_check(params, 1.0, params.M)
          and fixed_point_check(params, 1.0, 0.0))
    report("8 cascade-behavior", 2.0, started, ok,
           f"seeded run: {len(up.rounds) - 1} rounds to full adoption; "
           f"unseeded run: {len(down.rounds) - 1} rounds at zero")


def test_criterion_9_sweep_determinism(tmp_path):
    """Repeated sweeps produce byte-identical CSVs, with 1 and 8 workers."""
    started = time.time()
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "game.A_L = 2.0\ngame.C_L = 1.0\ngame.A_S = 1.0\n"
        "game.C_S = 1.0\ngame.rho = 1.0\ngame.N = 100\ngame.M = 50.0\n"
        "sweep.P_S.min = 0.5\nsweep.P_S.max = 5.0\nsweep.P_S.steps = 20\n"
        "sweep.C_L.min = 0.1\nsweep.C_L.max = 2.5\nsweep.C_L.steps = 20\n"
        "rng_seed = 11\n")
    outputs = []
    for name, jobs in (("a", 1), ("b", 1), ("c", 8)):
        out = tmp_path / name
        code = main(["sweep", "--config", str(config), "--out", str(out),
                     "--jobs", str(jobs)])
        assert code == 0
        outputs.append((out / "sweep.csv").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2] and len(outputs[0]) > 0
    report("9 sweep-determinism", 60.0, started, ok,
           f"400-point sweep, {len(outputs[0])} bytes, jobs 1/1/8 identical")
