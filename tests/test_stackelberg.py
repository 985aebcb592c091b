import ast
import collections
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from obfgame import (
    EquilibriumRegime,
    GameParams,
    InconsistencyError,
    InfeasiblePromiseError,
    ModelConventions,
    NoCrossingError,
    ResponseKind,
    UndefinedThresholdError,
    abstain_value,
    best_response,
    classify_regime,
    gamma,
    fixed_point_check,
    induced_leader_utility,
    kappa,
    leader_utility_piecewise,
    learner_utility,
    mfg_equilibria,
    pbne_solve,
    privacy_pressure,
    sg_equilibrium,
    tau_exact,
    tau_hat,
    threshold_crossings,
    thresholds,
    user_utility,
)
from obfgame import crossings, model, stackelberg
from obfgame.mfg import INDIFFERENCE_TOL
from obfgame.model import _pressure_gap
from obfgame.stackelberg import _verify_leader_optimality


def make_params(**overrides):
    base = dict(A_L=2.0, C_L=1.0, A_S=0.5, P_S=2.0, C_S=1.0,
                rho=1.0, N=100, M=50.0)
    base.update(overrides)
    return GameParams(**base)


def certify(params, promise, exact):
    """Run the leader certificate on a report of ``promise`` (no Boundary
    tie) whose threshold record carries ``exact`` as tau_exact."""
    report = dataclasses.replace(
        classify_regime(params), sigma_L_dagger=promise,
        learner_utility_at_eq=induced_leader_utility(params, promise),
        thresholds=dataclasses.replace(thresholds(params), tau_exact=exact),
        boundary_reason=None)
    return _verify_leader_optimality(params, report)


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

    def test_tiny_deterrence_cost(self):
        # P_S/(P_S - C_S) rounds to 1 here, so its log reads 0
        params = make_params(C_S=1e-17)
        assert tau_hat(params) == pytest.approx(math.sqrt(2e17), rel=1e-12)
        assert classify_regime(params).regime is (
            EquilibriumRegime.FULL_OBFUSCATION)
        assert pbne_solve(params).regime is EquilibriumRegime.FULL_OBFUSCATION

    def test_subnormal_deterrence_cost(self):
        # ln(P_S/(P_S - C_S)) ~ 5e-311 here, whose reciprocal overflows;
        # tau_hat is still sqrt(P_S/C_S) ~ 1.4e155, not infinite
        params = make_params(C_S=1e-310)
        want = math.sqrt(2.0) / math.sqrt(1e-310)
        assert tau_hat(params) == pytest.approx(want, rel=1e-9)
        record = thresholds(params)
        assert record.tau_hat == tau_hat(params) and record.notes == ()
        # where C_S/P_S underflows to 0 the log reads 0: no finite promise
        record = thresholds(make_params(C_S=5e-324))
        assert record.tau_hat is None
        assert record.notes == (
            "tau_hat infinite: C_S = 0, no finite promise deters",)


class TestFloatRangeEnds:
    # the README example, with A_L/C_L leaving the float range
    def test_benefit_cost_quotient_underflows(self):
        params = make_params(A_L=1e-200, C_L=1e200)
        report = classify_regime(params)
        assert report.regime is EquilibriumRegime.FULL_OBFUSCATION
        assert report.conditions.kappa_threshold == pytest.approx(
            (math.log(1e-200) - math.log(1e200)) * math.log(2.0), rel=1e-12)
        assert pbne_solve(params).regime is EquilibriumRegime.FULL_OBFUSCATION

    def test_benefit_cost_quotient_overflows(self):
        # the threshold is ~7e-308, far below kappa = 0.01: no promise pays
        params = make_params(A_L=1e300, C_L=1e-310, C_S=1e-310, M=1e150)
        report = classify_regime(params)
        assert report.regime is EquilibriumRegime.FULL_OBFUSCATION
        assert 0 < report.conditions.kappa_threshold < 1e-300
        assert report.thresholds.tau_hat == pytest.approx(
            math.sqrt(2.0) / math.sqrt(1e-310), rel=1e-9)
        assert sg_equilibrium(params) == 0.0


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

    def test_bracket_with_equal_ends_gives_its_deterred_end(self):
        # the scan's array gap changes sign inside a bracket whose ends the
        # scalar gap reads as exactly -C_S; the secant divided by zero there
        params = make_params(A_L=33.52, C_L=0.0718, A_S=0.965, P_S=129.26,
                             C_S=6.6e-17, rho=0.0271, N=2, M=1.4e10)
        report = pbne_solve(params)
        assert report.regime is EquilibriumRegime.FULL_OBFUSCATION
        assert gamma(params, report.thresholds.tau_exact) == 0.0

    def test_search_stops_at_the_first_root(self, monkeypatch):
        # README's example has one crossing: tau_exact refines one bracket
        # and takes the laws at no piece end past it, while
        # threshold_crossings walks on to M
        brackets, variances = [], []
        refine, abstain = crossings._refine, crossings._abstain
        monkeypatch.setattr(crossings, "_refine", lambda *args: (
            brackets.append(args[1:3]) or refine(*args)))
        monkeypatch.setattr(crossings, "_abstain", lambda p, v, crowd: (
            variances.append(v) or abstain(p, v, crowd)))
        params = make_params()
        assert tau_exact(params) == 0.8515356605619541
        [(lo, hi)] = brackets
        assert lo < 0.8515356605619541 <= hi < params.M
        assert max(variances) == hi * hi
        brackets.clear()
        variances.clear()
        assert threshold_crossings(params) == [0.8515356605619541]
        assert brackets == [(lo, hi)]
        assert max(variances) == params.M * params.M

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

    def test_crossing_where_an_ulp_exceeds_the_width(self, run_python):
        # above sigma ~ 8192 one ulp is wider than ROOT_BISECTION_WIDTH, so
        # refining the third bracket ends only when no float lies inside it;
        # a subprocess keeps a refinement that never ends from hanging the
        # suite
        script = (
            "from obfgame import GameParams, abstain_value, privacy_pressure,"
            " threshold_crossings\n"
            "p = GameParams(A_L=2, C_L=1, A_S=0.5, P_S=1, C_S=1e-8, rho=1,"
            " N=1000, M=20000)\n"
            "print([(r, privacy_pressure(p, r) - abstain_value(p, r, 0.0))"
            " for r in threshold_crossings(p)])\n")
        done = run_python("-c", script, timeout=60)
        assert done.returncode == 0, done.stderr
        roots = ast.literal_eval(done.stdout)
        assert [r for r, _ in roots] == pytest.approx(
            [1.2023751385, 91.297558932, 9999.999975], rel=1e-9)
        assert all(abs(residual) <= 1e-9 for _, residual in roots)

    # M ~ 2.9e11 lies far above three crossings (50-digit mpmath:
    # 2.1146040922626729, 602.15318997929176 and 46178.105060037), which a
    # uniform 1,001-point grid over [0, M] put in its first cell
    FAR_BELOW_M = dict(A_L=0.04214984326721766, C_L=0.0016299681700637691,
                       A_S=0.06159414423947732, P_S=0.30732290332814677,
                       C_S=1.4411948858553079e-10, rho=29.588035814084858,
                       N=37, M=290116576066.50555)

    def test_first_crossing_far_below_M(self):
        params = GameParams(**self.FAR_BELOW_M)
        roots = threshold_crossings(params)
        assert len(roots) == 3
        assert roots[:2] == pytest.approx(
            [2.1146040922626729, 602.15318997929176], rel=1e-9)
        # 1 - exp(-eps) cancels at the third, which keeps ~7 digits
        assert roots[2] == pytest.approx(46178.105060037, rel=1e-6)
        assert tau_exact(params) == roots[0]
        assert gamma(params, roots[0]) == 0.0
        report = pbne_solve(params)
        assert report.regime is EquilibriumRegime.FULL_OBFUSCATION
        assert report.learner_utility_at_eq == 0.0
        assert report.thresholds.tau_exact == roots[0]
        # the exact optimum is a promise at the first crossing, paying ~0.04
        assert _verify_leader_optimality(params, report) == (
            roots[0], induced_leader_utility(params, roots[0]))

    def test_search_at_the_ends_of_the_inverse_laws(self):
        for overrides, count in [
                # pressure never falls to an abstain value of 0 (C_S = 0),
                # yet it crosses the decaying accuracy term twice
                (dict(C_S=0.0), 2),
                # the inverse privacy law leaves the float range: pressure
                # stays at P_S on (0, M] and dominates throughout
                (dict(conventions=ModelConventions(
                    c_p=1e300, privacy_exponent=0.5)), 0)]:
            params = make_params(**overrides)
            roots = threshold_crossings(params)
            assert len(roots) == count
            _, brackets, dense_roots = dense_crossings(params)
            assert len(brackets) == count
            for root, (lo, hi) in zip(roots, brackets):
                assert lo <= root <= hi
                assert gamma(params, root) == 0.0
            assert roots == pytest.approx(dense_roots, rel=1e-11)
            assert_tau_exact_is_first(params, roots)

    def test_three_crossings_off_the_default_conventions(self):
        # c_g and c_p other than 1, with M far above the last crossing
        params = GameParams(
            A_L=2.0, C_L=0.1, A_S=0.03953496677558228,
            P_S=167.36686643495943, C_S=7.875144371106212e-13,
            rho=0.649560569641872, N=99197, M=16866774967.877542,
            conventions=ModelConventions(c_g=0.30404262940022936,
                                         c_p=0.010302085916093153))
        roots = threshold_crossings(params)
        # 50-digit mpmath roots; the third is 1479680.887..., which the
        # computed gap misses by 0.14% as 1 - exp(-eps) cancels there
        assert len(roots) == 3
        assert roots[:2] == pytest.approx(
            [6.6046499635848922858, 1196.4512450081149009], rel=1e-9)
        _, brackets, _ = dense_crossings(params)
        assert len(brackets) == 3
        for root, (lo, hi) in zip(roots, brackets):
            assert lo <= root <= hi
            assert gamma(params, root) == 0.0

    def test_roots_far_below_the_bracket_width(self):
        # the crowd obfuscates on about (1.5e-84, 1.5e-35): a bracket stops
        # at ROOT_BISECTION_WIDTH of its upper end, not at that width itself,
        # so neither root is a bracket's end at 0 or at a piece end
        params = GameParams(
            A_L=1.0, C_L=0.1, A_S=40.34196025751622, P_S=33.07525197595392,
            C_S=5.6647863144135184e-14, rho=2.203626325696507e-58, N=1219,
            M=1.8296405518331405e+24,
            conventions=ModelConventions(c_g=5.43238039850177e+54,
                                         c_p=4.080224699750741e-85))
        roots = threshold_crossings(params)
        assert len(roots) == 2
        assert all(0.0 < root <= params.M for root in roots)
        assert all(gamma(params, root) == 0.0 for root in roots)
        # the gap obfuscates within the width of each root, toward the other
        width = crossings.ROOT_BISECTION_WIDTH
        first, second = roots
        assert _pressure_gap(params, (first * (1.0 + width))**2, 0.0) > 0.0
        assert _pressure_gap(params, (second * (1.0 - width))**2, 0.0) > 0.0
        # 60-digit mpmath roots; 1 - exp(-eps) cancels at the second, where
        # eps ~ 2e-15 and the computed gap changes sign 0.24% early
        assert first == pytest.approx(1.4710985629089054e-84, rel=1e-11)
        assert second == pytest.approx(1.5434830156456598e-35, rel=3e-3)
        assert_tau_exact_is_first(params, roots)

    @pytest.mark.parametrize("scale", [1e-8, 1e-100, 1e100])
    def test_search_is_scale_free(self, scale):
        # sigma -> scale sigma with c_g / scale^2 and c_p scale^2 leaves the
        # gap's shape alone: README's crossing, scaled, to the dense scan's
        params = make_params(M=50.0 * scale, conventions=ModelConventions(
            c_g=scale**-2, c_p=scale**2))
        roots = threshold_crossings(params)
        _, brackets, dense_roots = dense_crossings(params)
        assert len(roots) == len(brackets) == 1
        assert roots == pytest.approx(dense_roots, rel=1e-11)
        assert roots[0] / scale == pytest.approx(0.8515356605619541, rel=1e-11)
        assert gamma(params, roots[0]) == 0.0

    def test_crossings_where_pressure_falls_in_steps(self, run_python):
        # near the last two crossings 1 - exp(-eps) cancels, so the computed
        # pressure falls in steps of ~1e-6 of itself; a search that stalled
        # there never ended, so it runs in a subprocess
        point = dict(A_L=21.318089760080912, C_L=0.18241878032329456,
                     A_S=6.067920942937873, P_S=11.212778807660674,
                     C_S=3.522354149965924e-10, rho=89.24757214425966,
                     N=52512, M=2369655.135376051)
        script = ("from obfgame import GameParams, gamma, threshold_crossings\n"
                  f"p = GameParams(**{point!r})\n"
                  "print([(r, gamma(p, r)) for r in threshold_crossings(p)])\n")
        done = run_python("-c", script, timeout=60)
        assert done.returncode == 0, done.stderr
        roots, crowds = zip(*ast.literal_eval(done.stdout))
        # 50-digit mpmath roots; the last two only to the cancellation
        assert roots[0] == pytest.approx(1.1329625776500885, rel=1e-12)
        assert roots[1:] == pytest.approx(
            [97472.69157197922, 178418.59612401172], rel=1e-5)
        assert crowds == (0.0, 0.0, 0.0)


class TestCriticalPoints:
    """crossings._critical_points(a, c, e, top): the variances below top
    where v^(e+1) d' = a v^(e+1) - (e + 1) v^e + c e vanishes."""

    @pytest.mark.parametrize("e", [0.5, 1.0])
    def test_each_point_is_a_root(self, e):
        rng = np.random.default_rng(17)
        for a, c in (10.0 ** rng.uniform(-15.0, 8.0, (2000, 2))).tolist():
            for v in crossings._critical_points(a, c, e, math.inf):
                terms = (a * v**(e + 1), (e + 1) * v**e, c * e)
                assert abs(terms[0] - terms[1] + terms[2]) <= 1e-14 * max(
                    terms)

    @pytest.mark.parametrize("a, c", [(1.0, 1.0), (0.5, 3.0), (1e3, 1e3)])
    def test_none_where_the_quadratic_has_no_roots(self, a, c):
        assert crossings._critical_points(a, c, 1.0, math.inf) == []

    def test_cubic_points_follow_its_discriminant(self):
        # a t^3 - 1.5 t + 0.5 c has discriminant 13.5 a - 6.75 a^2 c^2: two
        # positive roots where it is positive, none where it is negative
        rng = np.random.default_rng(19)
        counts = []
        for a, c in (10.0 ** rng.uniform(-8.0, 4.0, (2000, 2))).tolist():
            discriminant = 13.5 * a - 6.75 * a * a * c * c
            points = crossings._critical_points(a, c, 0.5, math.inf)
            assert len(points) == (2 if discriminant > 0 else 0)
            assert points == sorted(points)
            counts.append(len(points))
        assert 0 in counts and 2 in counts

    @pytest.mark.parametrize("e, low", [(1.0, 0.5), (0.5, 1.0 / 9.0)])
    @pytest.mark.parametrize("a", [1e-10, 1e-310])
    def test_tiny_a_keeps_only_points_below_top(self, e, low, a):
        # the larger point, ~2/a, lies beyond M^2 = 2500, or beyond the float
        # range at a = 1e-310; the smaller tends to c/2 (e = 1) or (c/3)^2
        [point] = crossings._critical_points(a, 1.0, e, 2500.0)
        assert point == pytest.approx(low, rel=1e-8)

    def test_a_point_beyond_the_float_range_is_dropped(self):
        # a c^2 = 0.1 < 2, but the smaller point (c/3)^2 ~ 1e319 overflows
        assert crossings._critical_points(1e-321, 1e160, 0.5, 2500.0) == []


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

    # the README example with one change each: tau_exact is absent with a
    # note naming the side that dominates (0, M]
    PRESSURE = ("tau_exact absent: pressure dominates on (0, M]",)

    def test_absent_tau_exact_below_an_infeasible_promise(self):
        params = make_params(M=0.5)
        assert thresholds(params).notes == self.PRESSURE
        for solve in (classify_regime, pbne_solve):
            with pytest.raises(InfeasiblePromiseError):
                solve(params)

    def test_absent_tau_exact_not_sought_in_the_status_quo(self):
        params = make_params(A_S=2.0)
        assert thresholds(params).notes == (
            "tau_exact absent: abstain dominates on (0, M]",)
        report = pbne_solve(params)
        assert report.regime is EquilibriumRegime.STATUS_QUO
        assert report.thresholds.tau_exact is None
        assert report.thresholds.notes == ()

    def test_absent_tau_exact_noted_under_full_obfuscation(self):
        report = pbne_solve(make_params(N=1, M=0.5))
        assert report.regime is EquilibriumRegime.FULL_OBFUSCATION
        assert (report.sigma_L_dagger, report.sigma_bar_dagger) == (0.0, 0.5)
        assert report.thresholds.tau_exact is None
        assert report.thresholds.notes == self.PRESSURE


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
        # a status quo row: the crowd abstains at no promise, so the exact
        # optimum is U(0) = A_L and the bound only exp(-kappa M^2) A_L
        params = make_params(A_L=2.0, C_L=0.0, A_S=1.0, P_S=1.2, C_S=1.0,
                             rho=1.0, N=10, M=10.0)
        with pytest.raises(InconsistencyError) as info:
            certify(params, 5.0, None)
        sigma, utility = info.value.exact
        assert sigma == 0.0 and utility == pytest.approx(2.0, rel=1e-12)
        assert info.value.closed_form[0] == 5.0


class TestLeaderCertificate:
    def test_certificate_reads_the_threshold_record(self, monkeypatch):
        # pbne_solve takes tau_hat from the record _closed_form built
        rng = np.random.default_rng(23)
        rows = [make_params(), make_params(A_S=2.0), make_params(N=2)]
        rows += [promise_regime_params(rng) for _ in range(20)]
        reports = [pbne_solve(params) for params in rows]

        def forbidden(params):
            raise AssertionError("tau_hat recomputed")

        monkeypatch.setattr(stackelberg, "tau_hat", forbidden)
        assert [pbne_solve(params) for params in rows] == reports

    # the README example: bound 0.0142, tau_exact 0.8515, tau_hat 1.2011
    @pytest.mark.parametrize("promise", [0.0, 0.43, 3.6, 10.0, 25.0, 50.0,
                                         "tau_hat"])
    def test_readme_example_accepts_only_tau_hat(self, promise):
        params = make_params()
        exact = tau_exact(params)
        optimum = (exact, induced_leader_utility(params, exact))
        if promise == "tau_hat":
            assert certify(params, tau_hat(params), exact) == optimum
            return
        with pytest.raises(InconsistencyError) as info:
            certify(params, promise, exact)
        assert info.value.exact == optimum
        assert info.value.closed_form == (
            promise, induced_leader_utility(params, promise))

    @pytest.mark.parametrize("N", [100, 10_000])
    def test_promise_that_does_not_deter_raises(self, N):
        # with c_p = 2 the crowd still obfuscates at tau_hat; at N = 10,000
        # only the deterrence check catches it, as full obfuscation keeps
        # exp(-kappa M^2) = 0.78 of the accuracy and the bound with it
        params = make_params(N=N, conventions=ModelConventions(c_p=2.0))
        assert gamma(params, tau_hat(params)) == params.M
        with pytest.raises(InconsistencyError) as info:
            pbne_solve(params)
        assert info.value.closed_form[0] == tau_hat(params)
        if N == 10_000:
            assert "does not deter" in str(info.value)
            assert certify(params, tau_hat(params), tau_exact(params))[0] == 0.0

    def test_threshold_ignoring_c_g_raises(self):
        # kappa = 0.5 exceeds ln(A_L/C_L) ln 2 = 0.48, so the closed form
        # promises nothing, but with c_g = 0.5 a promise at tau_exact pays
        # 0.628 against ~0 for no promise
        params = make_params(N=2, conventions=ModelConventions(c_g=0.5))
        with pytest.raises(InconsistencyError) as info:
            pbne_solve(params)
        assert info.value.closed_form[0] == 0.0
        assert info.value.exact == pytest.approx(
            (tau_exact(params), 0.6282826312646095), rel=1e-12)

    @pytest.mark.parametrize("fault", ["FullObfuscation row", "half tau_hat",
                                       "StatusQuo label"])
    def test_certificate_catches_a_wrong_closed_form(self, monkeypatch,
                                                      fault):
        # a PrivacyPromise game in the default conventions, with the closed
        # form replaced by a wrong one; the last leaves no promise, and as
        # the crowd obfuscates at 0 the certificate must still search for
        # tau_exact, where a promise pays 1.871 against ~2.8e-11
        params = make_params(C_L=0.1, A_S=1.0, P_S=3.0, C_S=0.5)
        cond, reason, regime, th = stackelberg._closed_form(params)
        assert (regime, reason) == (EquilibriumRegime.PRIVACY_PROMISE, None)
        assert th.tau_hat == 2.3419681782097466
        assert tau_exact(params) == 1.209559348721365
        wrong = {
            "FullObfuscation row": (cond, reason,
                                    EquilibriumRegime.FULL_OBFUSCATION, th),
            "half tau_hat": (cond, reason, regime, dataclasses.replace(
                th, tau_hat=0.5 * th.tau_hat)),
            "StatusQuo label": (cond, reason, EquilibriumRegime.STATUS_QUO,
                                th),
        }[fault]
        monkeypatch.setattr(stackelberg, "_closed_form", lambda p: wrong)
        with pytest.raises(InconsistencyError) as info:
            pbne_solve(params)
        assert info.value.exact == (1.209559348721365, 1.8709523303815567)
        assert info.value.closed_form[0] == (
            0.5 * th.tau_hat if fault == "half tau_hat" else 0.0)

    def test_kappa_tie_without_promise_solves(self):
        # kappa = ln 6 ln 2, the promise threshold: the tie goes to no
        # promise, and the certificate counts tau_hat's payoff as at most 0
        params = make_params(A_L=3.0, C_L=0.5, N=1, rho=1.0 / math.sqrt(
            math.log(6.0) * math.log(2.0)))
        report = pbne_solve(params)
        assert report.regime is EquilibriumRegime.BOUNDARY
        assert report.sigma_L_dagger == 0.0


def scalar_cells(params):
    """Regime, tau_hat and U_L cells of a sweep row, from classify_regime."""
    try:
        report = classify_regime(params)
    except InfeasiblePromiseError as exc:
        return "Infeasible", repr(exc.tau_hat), "nan"
    tau_h = report.thresholds.tau_hat
    return (report.regime.value, "" if tau_h is None else repr(tau_h),
            repr(report.learner_utility_at_eq))


def column_labels(conventions=ModelConventions(), **columns):
    """Check _closed_form_columns against classify_regime at every point of
    the grid the columns span; return the row kinds seen."""
    kind, tau_h, utility = np.broadcast_arrays(
        *stackelberg._closed_form_columns(conventions=conventions, **columns))
    labels = [r.value for r in EquilibriumRegime] + ["Infeasible"]
    seen = set()
    for index in np.ndindex(kind.shape):
        params = GameParams(conventions=conventions, **{
            name: np.broadcast_to(value, kind.shape)[index].item()
            for name, value in columns.items()})
        tau = float(tau_h[index])
        got = (labels[kind[index]], "" if math.isnan(tau) else repr(tau),
               repr(float(utility[index])))
        assert got == scalar_cells(params), params
        seen.add(got[0])
    return seen


class TestClosedFormColumns:
    def test_acceptance_grid_matches_classify_regime(self):
        # acceptance 1's grid, one axis per swept field; no point of it lies
        # within BOUNDARY_BAND of a boundary
        seen = column_labels(
            A_L=2.0, C_L=np.linspace(0.05, 2.5, 50).reshape(1, -1, 1),
            A_S=1.0, P_S=np.linspace(0.5, 5.0, 50).reshape(-1, 1, 1),
            C_S=1.0, rho=1.0, N=np.array([1, 10, 100, 1000]).reshape(1, 1, -1),
            M=50.0)
        assert seen == {"StatusQuo", "FullObfuscation", "PrivacyPromise"}

    def test_retained_accuracy_on_each_kinds_fields(self):
        # P_S, C_L, M, rho and N on their own axes with c_g != 1: the crowd's
        # term spans M, rho and N, the promise's P_S too, and the grid C_L
        def axis(values, i):
            return np.array(values).reshape([-1 if j == i else 1
                                             for j in range(5)])
        seen = column_labels(
            ModelConventions(c_g=0.7), A_L=2.0, A_S=0.5, C_S=1.0,
            P_S=axis([0.75, 1.75, 2.5, 4.0], 0),
            C_L=axis([0.0, 0.5, 1.5], 1), M=axis([0.5, 3.0, 40.0], 2),
            rho=axis([0.3, 1.0, 2.5], 3), N=axis([1, 7, 300], 4))
        assert seen == {"StatusQuo", "FullObfuscation", "PrivacyPromise",
                        "Infeasible"}

    def test_float_N_above_2_53_as_an_int(self):
        # the sweep's N axis is a float grid; above 2**53 a float N rounds
        # N - 1, so the crowd's term must take (N-1)/N from int(N) as
        # GameParams does.  300 groups of 8 even N (exact as floats), with
        # kappa M^2 near 1 so that U_L does not underflow.
        rng = np.random.default_rng(0)
        N = 2.0**53 + 2.0 * rng.integers(1, 10**6, size=(300, 8))
        M = rng.uniform(1.3, 5.0, size=(300, 1))
        rho = rng.uniform(0.5, 2.0, size=(300, 1)) * 1.05e-8 * M
        fields = dict(A_L=2.0, C_L=1.0, A_S=0.5, P_S=2.0, C_S=1.0, rho=rho,
                      N=N, M=M)
        assert column_labels(**fields) == {"FullObfuscation",
                                           "PrivacyPromise"}
        kind, _, utility = stackelberg._closed_form_columns(
            conventions=ModelConventions(), **fields)
        assert np.count_nonzero((kind == 1) & (utility > 0)) > 100

    @staticmethod
    def traced_peak(**columns) -> int:
        """The tracemalloc peak of the column form over these columns."""
        tracemalloc.start()
        try:
            stackelberg._closed_form_columns(
                **{**dict(A_L=2.0, C_L=1.0, A_S=0.5, P_S=2.0, C_S=1.0,
                          rho=1.0, N=100, M=50.0), **columns},
                conventions=ModelConventions())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_columns_spanned_by_one_field_build_no_lists(self):
        # C_L alone at 10^5 steps: each law holds one object array over its
        # own shape, and the field check reads the column without a list of
        # it (3.8 MiB; 6.4 MiB with that list and a grid array per step)
        peak = self.traced_peak(C_L=np.linspace(0.05, 2.5, 10**5))
        assert peak < 5 * 2**20

    def test_grid_builds_one_array_per_output(self):
        # P_S x C_L x N at 100^3: kind and U_L are one grid array each,
        # patched in place (23 MiB; 48 MiB with a grid array per step)
        P_S, C_L, N = np.ix_(np.linspace(0.5, 5.0, 100),
                             np.linspace(0.05, 2.5, 100),
                             np.arange(1.0, 101.0))
        assert self.traced_peak(P_S=P_S, C_L=C_L, N=N) < 32 * 2**20

    def test_one_table_for_floats_and_columns(self):
        # (surplus, A_S, kappa, threshold) -> (row, surplus band, kappa
        # band): status quo, a surplus tie, a promise, a kappa tie within
        # PROMISE_TIE_TOL, a kappa band, full obfuscation, an infinite and
        # a nan threshold
        cases = [((0.5, 1.0, 0.1, 0.3), (0, False, False)),
                 ((1.0, 1.0 + 1e-10, 0.1, 0.3), (0, True, False)),
                 ((2.0, 1.0, 0.1, 0.3), (2, False, False)),
                 ((2.0, 1.0, 0.3, 0.3 + 1e-13), (1, False, True)),
                 ((2.0, 1.0, 0.3, 0.3 + 1e-10), (2, False, True)),
                 ((2.0, 1.0, 0.5, 0.3), (1, False, False)),
                 ((2.0, 1.0, 0.1, math.inf), (2, False, False)),
                 ((2.0, 1.0, 0.1, math.nan), (1, False, False))]
        for args, want in cases:
            got = stackelberg._table(*args)
            assert got == want
            # Python ints and bools: the float path calls no numpy
            assert [type(value) for value in got] == [int, bool, bool]
        args, wants = zip(*cases)
        columns = stackelberg._table(*map(np.array, zip(*args)))
        assert [tuple(c.tolist()) for c in columns] == list(zip(*wants))

    def test_kappa_band_is_a_boundary(self):
        # kappa = 1/rho^2 meets the threshold ln(2) ln(2) at rho = 1/ln 2;
        # 1e-8 away in rho it is outside the band on either side
        rho = np.array([1 - 1e-8, 1.0, 1 + 1e-8]) / math.log(2.0)
        seen = column_labels(A_L=2.0, C_L=1.0, A_S=0.5, P_S=2.0, C_S=1.0,
                             rho=rho, N=1, M=50.0)
        assert seen == {"FullObfuscation", "Boundary", "PrivacyPromise"}

    # points where numpy's log, square or exp, float arithmetic on a huge
    # N, or c_g kappa taken last, in place of the scalar code's would move
    # tau_hat or U_L by an ulp (the first three are points of
    # np.linspace(1.6, 5.0, 400))
    @pytest.mark.parametrize("point, c_g", [
        (dict(A_L=150.0, P_S=4.292731829573935, rho=0.5, N=5, M=50.0), 1.0),
        (dict(A_L=150.0, P_S=3.7218045112781954, rho=0.5, N=5, M=50.0), 1.0),
        (dict(A_L=150.0, P_S=2.0516290726817044, rho=0.5, N=5, M=50.0), 1.0),
        (dict(A_L=2.0, P_S=2.0, rho=1e-8, N=2**53 + 2, M=2.0), 1.0),
        (dict(A_L=2.0, P_S=2.0, rho=0.3, N=19, M=1.5), 0.7),
    ], ids=["log", "square", "exp", "share", "order"])
    def test_rounding_traps_match_classify_regime(self, point, c_g):
        seen = column_labels(ModelConventions(c_g=c_g), C_L=1.0, A_S=0.5,
                             C_S=1.0, **point)
        assert seen <= {"PrivacyPromise", "FullObfuscation"}


@st.composite
def game_params(draw):
    """Draws like the solve benchmark's: surplus, status quo and every
    promise decision, with M = max(10 tau_hat, 32)."""
    A_S, C_S = draw(st.floats(0.3, 1.5)), draw(st.floats(0.3, 1.5))
    P_S = (A_S + C_S) * draw(st.floats(0.5, 3.0))
    th = math.sqrt(1.0 / math.log(P_S / (P_S - C_S))) if P_S > C_S else 0.0
    return GameParams(A_L=draw(st.floats(0.5, 4.0)),
                      C_L=draw(st.floats(0.05, 2.5)), A_S=A_S, P_S=P_S,
                      C_S=C_S, rho=draw(st.floats(0.5, 2.0)),
                      N=draw(st.integers(1, 5000)), M=max(10.0 * th, 32.0))


def assert_tau_exact_is_first(params, roots):
    """tau_exact, which stops the search at its first root, gives the first
    of the full list, or raises where the list is empty."""
    if roots:
        assert tau_exact(params) == roots[0]
    else:
        with pytest.raises(NoCrossingError):
            tau_exact(params)


class TestProperties:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(params=game_params())
    def test_every_crossing_is_deterred(self, params):
        roots = threshold_crossings(params)
        for root in roots:
            assert gamma(params, root) == 0.0
        assert_tau_exact_is_first(params, roots)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(params=game_params(), shrink=st.sampled_from([1.0, 0.05]))
    def test_classify_regime_agrees_with_pbne_solve(self, params, shrink):
        # off the Boundary the two reports differ only in that pbne_solve
        # locates tau_exact, or notes its absence after the closed form's
        # notes; a shrunk M puts some promises beyond it
        params = dataclasses.replace(params, M=shrink * params.M)
        try:
            closed = classify_regime(params)
        except InfeasiblePromiseError:
            with pytest.raises(InfeasiblePromiseError):
                pbne_solve(params)
            return
        assume(closed.regime is not EquilibriumRegime.BOUNDARY)
        solved = pbne_solve(params)
        notes = solved.thresholds.notes
        assert notes[:len(closed.thresholds.notes)] == closed.thresholds.notes
        th = dataclasses.replace(solved.thresholds, tau_exact=None,
                                 notes=closed.thresholds.notes)
        # repr compares every field, nan included (kappa_threshold where
        # P_S <= C_S)
        assert (repr(dataclasses.replace(solved, thresholds=th))
                == repr(closed))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(params=game_params(), share=st.floats(0.0, 1.0))
    def test_best_response_and_induced_response_read_one_rule(
            self, params, share):
        # away from the indifference band the tolerant rule of best
        # responses agrees with the strict rule of gamma, and the fixed
        # points follow the strict rule at crowds 0 and M; the gaps are
        # taken from the public laws
        sigma_L = share**2 * params.M
        pressure = privacy_pressure(params, sigma_L)
        gap_0 = pressure - abstain_value(params, sigma_L, 0.0)
        gap_M = pressure - abstain_value(params, sigma_L, params.M)
        assume(abs(gap_0) > INDIFFERENCE_TOL)
        obfuscates = best_response(params, sigma_L, 0.0).kind is ResponseKind.MAX
        assert obfuscates == (gamma(params, sigma_L) == params.M)
        eq = mfg_equilibria(params, sigma_L)
        assert (0.0 in eq.equilibria) == (gap_0 <= 0)
        assert (params.M in eq.equilibria) == (gap_M >= 0)
        assert eq.selected == gamma(params, sigma_L)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(params=game_params(), share=st.floats(0.0, 1.0))
    def test_induced_response_is_a_fixed_point(self, params, share):
        sigma_L = share * params.M
        assert fixed_point_check(params, sigma_L, gamma(params, sigma_L))


@st.composite
def wide_params(draw):
    """Log-uniform draws over wide ranges, with a surplus (P_S - C_S > A_S):
    A_S, A_L in [1e-2, 1e2], C_S in [1e-18, 1e2], P_S = (A_S + C_S)
    [1, 30], C_L in [1e-3, 1e2], rho in [1e-2, 1e2], N in [1, 1e5] and M in
    [0.1, 1e12], where M can lie far above every crossing; c_g and c_p in
    [1e-3, 1e3], and privacy_exponent 0.5 or 1."""
    def log_uniform(low, high):
        return 10.0 ** draw(st.floats(math.log10(low), math.log10(high)))

    A_S, C_S = log_uniform(1e-2, 1e2), log_uniform(1e-18, 1e2)
    P_S = (A_S + C_S) * log_uniform(1.0, 30.0)
    assume(P_S - C_S > A_S)
    conventions = ModelConventions(
        c_g=log_uniform(1e-3, 1e3), c_p=log_uniform(1e-3, 1e3),
        privacy_exponent=draw(st.sampled_from([0.5, 1.0])))
    return GameParams(A_L=log_uniform(1e-2, 1e2), C_L=log_uniform(1e-3, 1e2),
                      A_S=A_S, P_S=P_S, C_S=C_S, rho=log_uniform(1e-2, 1e2),
                      N=int(log_uniform(1.0, 1e5)), M=log_uniform(0.1, 1e12),
                      conventions=conventions)


def dense_crossings(params, points=4001):
    """A reference for the crossings from the scalar gap alone: 0 and a
    geometric grid from 1e-16 M to M, the grid cells where the gap changes
    sign, and each such cell bisected to the deterred end of its crossing."""
    grid = [0.0] + [params.M * 1e-16 ** (1.0 - k / (points - 1))
                    for k in range(points)]

    def deterred(sigma):
        return _pressure_gap(params, sigma**2, 0.0) <= 0.0

    signs = [deterred(x) for x in grid]
    brackets = [(lo, hi) for lo, hi, a, b in
                zip(grid, grid[1:], signs, signs[1:]) if a != b]
    roots = []
    for lo, hi in brackets:
        lo_deterred = deterred(lo)
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if deterred(mid) == lo_deterred:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        roots.append(lo if lo_deterred else hi)
    return grid, brackets, roots


class TestCrossingsOnWideDraws:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(params=wide_params())
    def test_first_crossing_is_the_dense_scans_first(self, params):
        _, brackets, _ = dense_crossings(params)
        roots = threshold_crossings(params)
        assert bool(roots) == bool(brackets)
        if brackets:
            assert brackets[0][0] <= roots[0] <= brackets[0][1]
        assert_tau_exact_is_first(params, roots)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(params=wide_params())
    def test_certified_optimum_beats_every_dense_promise(self, params):
        # the certificate's sup max(U(0), U(tau_exact)) is the exact one:
        # no promise on the dense grid, nor at a crossing, pays more (where
        # the closed form fails the certificate, the error carries the sup)
        try:
            _, sup = _verify_leader_optimality(params, pbne_solve(params))
        except InfeasiblePromiseError:
            assume(False)
        except InconsistencyError as exc:
            _, sup = exc.exact
        grid, _, roots = dense_crossings(params)
        utility = max([induced_leader_utility(params, np.array(grid)).max(),
                       *(induced_leader_utility(params, r) for r in roots)])
        assert sup >= utility - 1e-12 * params.A_L


def bench_solve_draws(count, seed=0):
    """Draws over the ranges of the benchmark's solve batch (bench/
    workloads.py), uniform rather than stratified: every regime and N from 2
    to 5,000, with M = max(10 tau_hat, 32)."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        A_S, C_S = rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5)
        P_S = (A_S + C_S) * rng.uniform(0.5, 3.0)
        tau = (math.sqrt(1.0 / math.log(P_S / (P_S - C_S)))
               if P_S > C_S else 0.0)
        draws.append(GameParams(
            A_L=rng.uniform(0.5, 4.0), C_L=rng.uniform(0.05, 2.0), A_S=A_S,
            P_S=P_S, C_S=C_S, rho=rng.uniform(0.5, 2.0),
            N=int(rng.uniform(2, 5001)), M=max(10.0 * tau, 32.0)))
    return draws


def same_bits(a, b):
    return float(a).hex() == float(b).hex()


def assert_kernels_are_the_public_laws(params):
    """The utilities the report takes from the kernels, and the induced
    leader utility at a float promise, equal the public laws bit for bit."""
    reports = []
    for solve in (classify_regime, pbne_solve):
        try:
            reports.append(solve(params))
        except (InfeasiblePromiseError, InconsistencyError):
            pass
    for report in reports:
        sigma, crowd = report.sigma_L_dagger, report.sigma_bar_dagger
        if math.isnan(sigma):  # a Boundary row of classify_regime
            assert math.isnan(report.learner_utility_at_eq)
            assert math.isnan(report.user_utility_at_eq)
            continue
        assert same_bits(report.learner_utility_at_eq,
                         learner_utility(params, sigma, crowd))
        assert same_bits(report.user_utility_at_eq,
                         user_utility(params, sigma, crowd, crowd))
    th = thresholds(params)
    for sigma in (0.0, th.tau_hat, th.tau_exact, params.M):
        if sigma is not None and sigma <= params.M:
            assert same_bits(
                induced_leader_utility(params, sigma),
                learner_utility(params, sigma, gamma(params, sigma)))


class TestKernelPath:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(params=wide_params())
    def test_kernels_are_the_public_laws_on_wide_draws(self, params):
        assert_kernels_are_the_public_laws(params)

    def test_kernels_are_the_public_laws_on_bench_draws(self):
        for params in bench_solve_draws(300):
            assert_kernels_are_the_public_laws(params)

    def test_solve_calls_no_public_law(self, monkeypatch):
        # the report and the certificate evaluate the kernels on variances
        # whose range is known, so neither the public laws nor _quiet run
        calls = collections.Counter()

        def spy(module, name):
            law = getattr(module, name)

            def counted(*args, **kwargs):
                calls[f"{module.__name__}.{name}"] += 1
                return law(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        for module, name in [(model, "_quiet"), (model, "learner_utility"),
                             (model, "user_utility"),
                             (stackelberg, "learner_utility")]:
            spy(module, name)
        regimes = {pbne_solve(params).regime
                   for params in bench_solve_draws(200, seed=1)}
        assert len(regimes) >= 3
        assert calls == {}
        # the spies are live: the piecewise reference on an array of
        # promises still takes the public law
        leader_utility_piecewise(make_params(), np.array([0.0, 1.0]))
        assert calls == {"obfgame.stackelberg.learner_utility": 1,
                         "obfgame.model._quiet": 1}
