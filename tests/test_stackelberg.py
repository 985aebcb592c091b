import math

import numpy as np
import pytest

from obfgame import (
    EquilibriumRegime,
    GameParams,
    InconsistencyError,
    NoCrossingError,
    UndefinedThresholdError,
    classify_regime,
    gamma,
    fixed_point_check,
    induced_leader_utility,
    kappa,
    leader_utility_piecewise,
    learner_utility,
    pbne_solve,
    sg_equilibrium,
    tau_exact,
    tau_hat,
    threshold_crossings,
    thresholds,
)
from obfgame.stackelberg import _verify_leader_optimality


def make_params(**overrides):
    base = dict(A_L=2.0, C_L=1.0, A_S=0.5, P_S=2.0, C_S=1.0,
                rho=1.0, N=100, M=50.0)
    base.update(overrides)
    return GameParams(**base)


def promise_regime_params(rng):
    """Random draw satisfying P_S - C_S > A_S with a single crossing."""
    A_S = rng.uniform(0.3, 1.5)
    C_S = rng.uniform(0.3, 1.5)
    P_S = (A_S + C_S) * rng.uniform(1.1, 2.5)
    params = dict(
        A_L=rng.uniform(0.5, 4.0), C_L=rng.uniform(0.05, 2.0),
        A_S=A_S, C_S=C_S, P_S=P_S,
        rho=rng.uniform(0.5, 2.0), N=int(rng.integers(50, 5000)))
    th = math.sqrt(1.0 / math.log(P_S / (P_S - C_S)))
    params["M"] = max(10.0 * th, 32.0)
    return GameParams(**params)


class TestTauHat:
    def test_half_deterrence_cost(self):
        params = make_params(P_S=2.0, C_S=1.0)
        assert tau_hat(params) == pytest.approx(1.2011224087864498, rel=1e-12)

    def test_mild_deterrence_cost(self):
        params = make_params(P_S=10.0, C_S=1.0)
        assert tau_hat(params) == pytest.approx(3.080782624761101, rel=1e-12)

    def test_cheap_deterrence_limit(self):
        params = make_params(P_S=1.0, C_S=1.0 - 1e-9)
        assert tau_hat(params) < 0.25

    def test_undefined_when_users_never_deterred(self):
        with pytest.raises(UndefinedThresholdError):
            tau_hat(make_params(P_S=1.0, C_S=1.5))
        with pytest.raises(UndefinedThresholdError):
            tau_hat(make_params(P_S=1.0, C_S=1.0))

    def test_infinite_for_free_obfuscation(self):
        assert math.isinf(tau_hat(make_params(C_S=0.0)))


def _bisection_oracle(P_S, A_S, C_S, kappa_value, M):
    """Independent root finder for P_S(1-e^{-1/s^2}) = A_S e^{-k s^2} + C_S."""
    def f(s):
        pressure = P_S * (1.0 - math.exp(-1.0 / s**2)) if s > 0 else P_S
        return pressure - A_S * math.exp(-kappa_value * s**2) - C_S

    n = 200_000
    prev = f(1e-12)
    for i in range(1, n + 1):
        x = i * M / n
        cur = f(x)
        if prev * cur <= 0:
            lo, hi = x - M / n, x
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if f(lo) * f(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)
        prev = cur
    raise AssertionError("oracle found no crossing")


class TestTauExact:
    def test_against_independent_bisection(self):
        params = make_params(A_S=1.0, P_S=3.0, C_S=1.0, rho=1.0, N=100, M=20.0)
        got = tau_exact(params)
        oracle = _bisection_oracle(3.0, 1.0, 1.0, 0.01, 20.0)
        assert got == pytest.approx(0.9580383999959041, abs=1e-9)
        assert got == pytest.approx(oracle, abs=1e-8)
        assert got < tau_hat(params)  # tau_hat = sqrt(1/ln 1.5) ~ 1.5704

    def test_residual_at_root(self):
        rng = np.random.default_rng(21)
        from obfgame import abstain_value, privacy_pressure

        for _ in range(50):
            params = promise_regime_params(rng)
            root = tau_exact(params)
            residual = (privacy_pressure(params, root)
                        - abstain_value(params, root, 0.0))
            assert abs(residual) <= 1e-9

    def test_no_crossing_in_status_quo(self):
        with pytest.raises(NoCrossingError) as info:
            tau_exact(make_params(A_S=1.0, P_S=1.5, C_S=1.0, N=10, M=10.0))
        assert info.value.dominant == "abstain"

    def test_multiple_crossings_reported_smallest_used(self):
        # pressure dips below the abstain value early, re-exceeds it once the
        # accuracy term has decayed, then falls below the flat cost for good
        params = make_params(A_L=2.0, C_L=1.0, A_S=1.0, P_S=1.02, C_S=0.01,
                             rho=1.0, N=10, M=12.0)
        crossings = threshold_crossings(params)
        assert len(crossings) == 3
        assert crossings == sorted(crossings)
        assert tau_exact(params) == crossings[0]


class TestThresholdsRecord:
    def test_orders_tau_exact_below_tau_hat(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            params = promise_regime_params(rng)
            record = thresholds(params)
            assert record.tau_exact is not None and record.tau_hat is not None
            assert record.tau_exact < record.tau_hat
            assert record.kappa == kappa(params)

    def test_absent_tau_hat_with_note(self):
        record = thresholds(make_params(P_S=1.0, C_S=1.5))
        assert record.tau_hat is None
        assert any("P_S <= C_S" in note for note in record.notes)
        free = thresholds(make_params(C_S=0.0))
        assert free.tau_hat is None
        assert any("infinite" in note for note in free.notes)


class TestInducedLeaderUtility:
    def test_no_promise_against_obfuscating_crowd(self):
        params = make_params(A_S=0.5, P_S=2.0, C_S=1.0, M=100.0)
        # surplus regime: gamma(0) = M, so the learner keeps almost nothing
        assert induced_leader_utility(params, 0.0) == pytest.approx(0.0, abs=1e-8)

    def test_dead_zone_pays_the_promise_cost(self):
        params = make_params(A_S=0.5, P_S=2.0, C_S=1.0, M=100.0)
        sigma = 0.5 * tau_exact(params)
        assert induced_leader_utility(params, sigma) == pytest.approx(
            -params.C_L, abs=1e-8)

    def test_deterred_branch_is_exact(self):
        params = make_params(A_S=0.5, P_S=2.0, C_S=1.0)
        th = tau_hat(params)
        want = params.A_L * math.exp(-kappa(params) * th**2) - params.C_L
        assert induced_leader_utility(params, th) == pytest.approx(want, rel=1e-12)

    def test_matches_learner_utility_of_induced_response(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            params = promise_regime_params(rng)
            sigma = rng.uniform(0, params.M)
            assert induced_leader_utility(params, sigma) == learner_utility(
                params, sigma, gamma(params, sigma))


class TestPiecewiseReference:
    def test_shape(self):
        params = make_params(A_S=0.5, P_S=2.0, C_S=1.0)
        th = tau_hat(params)
        assert leader_utility_piecewise(params, 0.0) == 0.0
        assert leader_utility_piecewise(params, 0.5 * th) == -params.C_L
        want = params.A_L * math.exp(-kappa(params) * th**2) - params.C_L
        assert leader_utility_piecewise(params, th) == pytest.approx(want, rel=1e-12)

    def test_argmax_is_promise_or_nothing(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            params = promise_regime_params(rng)
            grid = np.linspace(0, params.M, 2000)
            values = [leader_utility_piecewise(params, float(s)) for s in grid]
            best = max(values)
            th = tau_hat(params)
            candidates = (0.0, params.A_L * math.exp(-kappa(params) * th**2)
                          - params.C_L)
            assert best <= max(candidates) + 1e-12


class TestSgEquilibrium:
    def test_promise_pays_for_large_population(self):
        params = make_params(P_S=2.0, C_S=1.0, A_S=0.5, A_L=2.0, C_L=1.0,
                             rho=1.0, N=100)
        assert kappa(params) < math.log(2.0) ** 2
        assert sg_equilibrium(params) == pytest.approx(1.2011224087864498,
                                                       rel=1e-12)

    def test_promise_useless_for_single_user(self):
        params = make_params(P_S=2.0, C_S=1.0, A_S=0.5, A_L=2.0, C_L=1.0,
                             rho=1.0, N=1)
        assert sg_equilibrium(params) == 0.0

    def test_equal_benefit_and_cost_never_promises(self):
        params = make_params(A_L=1.0, C_L=1.0, A_S=0.5, P_S=2.0, C_S=1.0)
        assert sg_equilibrium(params) == 0.0

    def test_free_promise_always_promises(self):
        params = make_params(C_L=0.0, A_S=0.5, P_S=2.0, C_S=1.0)
        assert sg_equilibrium(params) == tau_hat(params)

    def test_free_obfuscation_never_promises(self):
        params = make_params(C_S=0.0, A_S=0.5, P_S=2.0)
        assert sg_equilibrium(params) == 0.0

    def test_requires_surplus_regime(self):
        with pytest.raises(ValueError):
            sg_equilibrium(make_params(A_S=1.0, P_S=1.5, C_S=1.0))

    def test_decision_matches_promise_profitability(self):
        # promise chosen exactly when the deterred-branch payoff beats zero,
        # i.e. kappa * tau_hat^2 < ln(A_L / C_L)
        rng = np.random.default_rng(25)
        for _ in range(200):
            params = promise_regime_params(rng)
            th = tau_hat(params)
            profitable = kappa(params) * th**2 < math.log(params.A_L / params.C_L)
            promised = sg_equilibrium(params) > 0
            if abs(kappa(params) * th**2
                   - math.log(params.A_L / params.C_L)) > 1e-9:
                assert promised == profitable


class TestStatusQuo:
    def test_present_when_accuracy_wins(self):
        report = classify_regime(make_params(A_S=1.0, P_S=1.5, C_S=1.0))
        assert report.regime is EquilibriumRegime.STATUS_QUO
        assert report.sigma_L_dagger == 0.0 and report.sigma_bar_dagger == 0.0
        assert report.learner_utility_at_eq == 2.0  # the learner's maximum A_L
        assert report.user_utility_at_eq == pytest.approx(1.0 - 1.5, rel=1e-15)

    def test_absent_when_privacy_wins(self):
        report = classify_regime(make_params(A_S=1.0, P_S=3.0, C_S=1.0))
        assert report.regime is not EquilibriumRegime.STATUS_QUO

    def test_absent_at_exact_boundary(self):
        report = classify_regime(make_params(A_S=1.0, P_S=2.0, C_S=1.0))
        assert report.regime is EquilibriumRegime.BOUNDARY


class TestClassifyRegime:
    def test_row_status_quo(self):
        report = classify_regime(make_params(A_S=1.0, P_S=1.5, C_S=1.0))
        assert report.regime is EquilibriumRegime.STATUS_QUO
        assert (report.sigma_bar_dagger, report.sigma_L_dagger) == (0.0, 0.0)

    def test_row_full_obfuscation(self):
        params = make_params(A_S=0.5, P_S=2.0, C_S=1.0, A_L=2.0, C_L=1.0,
                             rho=1.0, N=1)
        report = classify_regime(params)
        assert report.regime is EquilibriumRegime.FULL_OBFUSCATION
        assert (report.sigma_bar_dagger, report.sigma_L_dagger) == (params.M, 0.0)

    def test_row_privacy_promise(self):
        params = make_params(A_S=0.5, P_S=2.0, C_S=1.0, A_L=2.0, C_L=1.0,
                             rho=1.0, N=100)
        report = classify_regime(params)
        assert report.regime is EquilibriumRegime.PRIVACY_PROMISE
        assert report.sigma_bar_dagger == 0.0
        assert report.sigma_L_dagger == pytest.approx(1.2011224087864498,
                                                      rel=1e-12)

    def test_boundary_is_flagged_not_binned(self):
        report = classify_regime(make_params(A_S=1.0, P_S=2.0, C_S=1.0))
        assert report.regime is EquilibriumRegime.BOUNDARY
        assert report.boundary_reason is not None
        assert math.isnan(report.sigma_L_dagger)


class TestPbneSolve:
    def test_composes_status_quo(self):
        params = make_params(A_S=1.0, P_S=1.5, C_S=1.0)
        report = pbne_solve(params)
        reference = classify_regime(params)
        assert report.regime is EquilibriumRegime.STATUS_QUO
        assert report.sigma_L_dagger == reference.sigma_L_dagger
        assert report.learner_utility_at_eq == reference.learner_utility_at_eq

    def test_privacy_promise_row(self):
        params = make_params(A_S=0.5, P_S=2.0, C_S=1.0, rho=1.0, N=100)
        report = pbne_solve(params)
        assert report.regime is EquilibriumRegime.PRIVACY_PROMISE
        assert report.sigma_L_dagger == pytest.approx(tau_hat(params), rel=1e-12)
        assert report.sigma_bar_dagger == 0.0
        assert fixed_point_check(params, report.sigma_L_dagger,
                                 report.sigma_bar_dagger)

    def test_full_obfuscation_row_pays_nothing(self):
        params = make_params(A_S=0.5, P_S=2.0, C_S=1.0, rho=1.0, N=1, M=100.0)
        report = pbne_solve(params)
        assert report.regime is EquilibriumRegime.FULL_OBFUSCATION
        assert (report.sigma_L_dagger, report.sigma_bar_dagger) == (0.0, 100.0)
        assert report.learner_utility_at_eq == pytest.approx(0.0, abs=1e-8)

    def test_agrees_with_classify_regime(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            params = promise_regime_params(rng)
            closed = classify_regime(params)
            if closed.regime is EquilibriumRegime.BOUNDARY:
                continue
            solved = pbne_solve(params)
            assert solved.regime is closed.regime
            assert solved.sigma_L_dagger == pytest.approx(
                closed.sigma_L_dagger, abs=1e-12)
            assert solved.sigma_bar_dagger == closed.sigma_bar_dagger

    def test_same_derivation_as_classify_regime(self):
        # Boundary rows included: both report the same regime, flag and
        # reason; only pbne_solve locates tau_exact
        rng = np.random.default_rng(27)
        rows = [make_params(A_S=1.0, P_S=2.0, C_S=1.0),
                make_params(A_S=1.0, P_S=1.5, C_S=1.0),
                make_params(A_S=0.5, P_S=2.0, C_S=1.0, N=1),
                make_params(A_S=0.5, P_S=2.0, C_S=1.0, N=100)]
        # kappa = ln(A_L/C_L) ln 2, the promise threshold, up to rounding
        rows.append(make_params(A_S=0.5, P_S=2.0, C_S=1.0, A_L=math.e,
                                rho=1.0 / math.sqrt(math.log(2.0)), N=1))
        rows += [promise_regime_params(rng) for _ in range(100)]
        seen = set()
        for params in rows:
            closed, solved = classify_regime(params), pbne_solve(params)
            seen.add(closed.regime)
            assert solved.regime is closed.regime
            assert solved.boundary_reason == closed.boundary_reason
            assert closed.thresholds.tau_exact is None
            want = (tau_exact(params)
                    if params.P_S - params.C_S > params.A_S else None)
            assert solved.thresholds.tau_exact == want
        assert seen == set(EquilibriumRegime)

    def test_kappa_scale_invariance(self):
        # (rho, N) -> (rho / sqrt 2, 2N) preserves kappa and the decision
        params = make_params(A_S=0.5, P_S=2.0, C_S=1.0, rho=1.0, N=100)
        scaled = make_params(A_S=0.5, P_S=2.0, C_S=1.0,
                             rho=1.0 / math.sqrt(2.0), N=200)
        assert kappa(scaled) == pytest.approx(kappa(params), rel=1e-12)
        a, b = pbne_solve(params), pbne_solve(scaled)
        assert a.regime is b.regime
        assert a.sigma_L_dagger == pytest.approx(b.sigma_L_dagger, rel=1e-12)

    def test_verifier_fires_on_suboptimal_promise(self):
        # gamma is identically zero here and C_L = 0 keeps the induced curve
        # jump-free, so the scan tolerance reduces to 1e-6
        params = make_params(A_L=2.0, C_L=0.0, A_S=1.0, P_S=1.2, C_S=1.0,
                             rho=1.0, N=10, M=10.0)
        with pytest.raises(InconsistencyError) as info:
            _verify_leader_optimality(params, 5.0, 10_000)
        sigma, utility = info.value.scanned
        assert sigma == 0.0 and utility == pytest.approx(2.0, rel=1e-12)
        assert info.value.closed_form[0] == 5.0
