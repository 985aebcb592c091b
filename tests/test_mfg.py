import dataclasses
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from obfgame import (
    GameParams,
    MfgRegime,
    ModelConventions,
    ResponseKind,
    abstain_value,
    best_response,
    best_response_oracle,
    br_curve,
    cascade_simulate,
    fixed_point_check,
    gamma,
    induced_leader_utility,
    mfg_equilibria,
    privacy_pressure,
    tau_exact,
    threshold_crossings,
)
from obfgame import mfg
from obfgame.mfg import INDIFFERENCE_TOL, _response


def make_params(**overrides):
    base = dict(A_L=2.0, C_L=1.0, A_S=1.0, P_S=2.0, C_S=1.0,
                rho=1.0, N=100, M=50.0)
    base.update(overrides)
    return GameParams(**base)


# Bistable worked example: at sigma_L=1 both all-zero and all-M are fixed
# points, and a one-percent seed tips the population over.
BISTABLE = dict(A_S=1.0, C_S=0.2, P_S=1.8, rho=1.0, N=100, M=100.0)


class TestBestResponse:
    def test_low_pressure_abstains(self):
        params = make_params(A_S=1.0, P_S=1.5, C_S=1.0)
        resp = best_response(params, 0.0, 0.0)
        assert resp.kind is ResponseKind.ZERO
        assert resp.value_set == (0.0, 0.0)

    def test_high_pressure_obfuscates(self):
        params = make_params(A_S=1.0, P_S=4.0, C_S=1.0)
        resp = best_response(params, 0.0, 0.0)
        assert resp.kind is ResponseKind.MAX
        assert resp.value_set == (params.M, params.M)

    def test_exact_tie_is_indifferent(self):
        # at sigma_L = 0 pressure is exactly P_S and the abstain value is
        # exactly A_S + C_S
        params = make_params(A_S=1.0, P_S=2.0, C_S=1.0)
        resp = best_response(params, 0.0, 0.0)
        assert resp.kind is ResponseKind.INDIFFERENT
        assert resp.value_set == (0.0, params.M)

    def test_at_most_one_transition_in_crowd_level(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            params = make_params(
                A_S=rng.uniform(0.3, 2.0), P_S=rng.uniform(0.2, 5.0),
                C_S=rng.uniform(0.0, 1.5), rho=rng.uniform(0.5, 2.0),
                N=int(rng.integers(2, 500)), M=rng.uniform(5.0, 80.0))
            sigma_L = rng.uniform(0.0, params.M)
            kinds = [best_response(params, sigma_L, float(s)).kind
                     for s in np.linspace(0, params.M, 101)]
            # Zero* -> Indifferent* -> Max*: no regression to an earlier stage
            stage = {ResponseKind.ZERO: 0, ResponseKind.INDIFFERENT: 1,
                     ResponseKind.MAX: 2}
            stages = [stage[k] for k in kinds]
            assert stages == sorted(stages)


class TestBestResponseOracle:
    def test_abstain_regime(self):
        params = make_params(A_S=1.0, P_S=1.5, C_S=1.0, N=1, M=10.0)
        assert list(best_response_oracle(params, 0.0, 0.0, 10_000)) == [0.0]

    def test_obfuscation_regime(self):
        params = make_params(A_S=1.0, P_S=4.0, C_S=1.0, N=1, M=10.0)
        assert list(best_response_oracle(params, 0.0, 0.0, 10_000)) == [10.0]

    def test_interior_optimum_flags_approximation_violation(self):
        # cheap own noise (large N) plus live accuracy value: partial
        # obfuscation beats both corners, disagreeing with the corner rule
        params = make_params(A_S=1.0, P_S=4.0, C_S=1.0, N=100, M=200.0)
        points = best_response_oracle(params, 0.0, 0.0, 10_000)
        assert best_response(params, 0.0, 0.0).kind is ResponseKind.MAX
        assert all(0.0 < p < params.M for p in points)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            best_response_oracle(make_params(), 0.0, 0.0, 1)


class TestMfgEquilibria:
    def test_no_obfuscation_regime(self):
        params = make_params(A_S=1.0, P_S=1.5, C_S=1.0, N=100, M=5.0)
        eq = mfg_equilibria(params, 0.0)
        assert eq.regime is MfgRegime.NO_OBFUSCATION
        assert eq.equilibria == (0.0,)
        assert eq.selected == 0.0

    def test_bistable_selects_zero(self):
        params = make_params(**BISTABLE)
        eq = mfg_equilibria(params, 1.0)
        assert eq.regime is MfgRegime.BISTABLE
        assert eq.equilibria == (0.0, params.M)
        assert eq.selected == 0.0

    def test_full_obfuscation(self):
        params = make_params(A_S=1.0, P_S=4.0, C_S=1.0, M=100.0)
        eq = mfg_equilibria(params, 0.0)
        assert eq.regime is MfgRegime.FULL_OBFUSCATION
        assert eq.equilibria == (params.M,)
        assert eq.selected == params.M

    def test_every_equilibrium_is_a_fixed_point(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            params = make_params(
                A_S=rng.uniform(0.3, 2.0), P_S=rng.uniform(0.2, 5.0),
                C_S=rng.uniform(0.0, 1.5), rho=rng.uniform(0.5, 2.0),
                N=int(rng.integers(1, 500)), M=rng.uniform(5.0, 80.0))
            sigma_L = rng.uniform(0.0, params.M)
            eq = mfg_equilibria(params, sigma_L)
            assert eq.selected in eq.equilibria
            for point in eq.equilibria:
                assert fixed_point_check(params, sigma_L, point)


class TestGamma:
    def test_status_quo_promise_free(self):
        params = make_params(A_S=1.0, P_S=1.5, C_S=1.0)
        assert gamma(params, 0.0) == 0.0

    def test_high_surplus_triggers_obfuscation(self):
        params = make_params(A_S=1.0, P_S=4.0, C_S=1.0)
        assert gamma(params, 0.0) == params.M

    def test_promise_at_tau_hat_deters(self):
        from obfgame import tau_hat

        params = make_params(A_S=0.5, P_S=2.0, C_S=1.0)
        assert gamma(params, tau_hat(params)) == 0.0

    def test_single_downward_jump(self):
        params = make_params(A_S=0.5, P_S=2.0, C_S=1.0)
        values = [gamma(params, float(s))
                  for s in np.linspace(0, params.M, 500)]
        drops = sum(1 for a, b in zip(values, values[1:]) if b < a)
        assert values[0] == params.M and values[-1] == 0.0 and drops == 1

    def test_strict_rule_inside_the_indifference_band(self):
        # at the last float promise where pressure still exceeds the abstain
        # value the gap is far below INDIFFERENCE_TOL: a lone user is
        # indifferent there, but the induced response and the fixed points
        # follow the strict rule
        params = make_params(A_S=0.5, P_S=2.0, C_S=1.0)

        def gap(sigma_L):
            return (privacy_pressure(params, sigma_L)
                    - abstain_value(params, sigma_L, 0.0))

        lo, hi = 0.5, 2.0
        assert gap(lo) > 0 > gap(hi)
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if gap(mid) > 0 else (lo, mid)
        assert 0 < gap(lo) < INDIFFERENCE_TOL and gap(hi) <= 0
        assert best_response(params, lo, 0.0).kind is ResponseKind.INDIFFERENT
        assert gamma(params, lo) == params.M and gamma(params, hi) == 0.0
        assert mfg_equilibria(params, lo).selected == params.M
        assert 0.0 not in mfg_equilibria(params, lo).equilibria
        assert 0.0 in mfg_equilibria(params, hi).equilibria


@st.composite
def _crossing_promises(draw):
    """A log-uniform game over wide ranges, with a surplus (P_S - C_S > A_S)
    and M up to 1e12, and the promises where gamma decides at a crossing:
    tau_exact, every other root of threshold_crossings and the floats either
    side of each, within [0, M], beside one drawn promise."""
    def log_uniform(low, high):
        return 10.0 ** draw(st.floats(math.log10(low), math.log10(high)))

    A_S, C_S = log_uniform(1e-2, 1e2), log_uniform(1e-18, 1e2)
    P_S = (A_S + C_S) * log_uniform(1.0, 30.0)
    assume(P_S - C_S > A_S)
    conventions = ModelConventions(
        c_g=log_uniform(1e-3, 1e3), c_p=log_uniform(1e-3, 1e3),
        privacy_exponent=draw(st.sampled_from([0.5, 1.0])))
    params = GameParams(
        A_L=log_uniform(1e-2, 1e2), C_L=log_uniform(1e-3, 1e2), A_S=A_S,
        P_S=P_S, C_S=C_S, rho=log_uniform(1e-2, 1e2),
        N=int(log_uniform(1.0, 1e5)), M=log_uniform(0.1, 1e12),
        conventions=conventions)
    promises = [draw(st.floats(0.0, 1.0)) * params.M]
    for root in threshold_crossings(params):
        promises += [math.nextafter(root, 0.0), root,
                     math.nextafter(root, math.inf)]
    return params, [x for x in promises if x <= params.M]


class TestOneArithmetic:
    """Every decision runs on Python floats: an array of promises or of
    crowd levels is decided point by point as each of its floats is."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(game=_crossing_promises())
    def test_floats_and_arrays_decide_alike(self, game):
        params, promises = game
        for sigma_L in promises:
            on_array = gamma(params, np.array([sigma_L]))
            assert on_array.tolist() == [gamma(params, sigma_L)]
            for level, response in br_curve(params, sigma_L, 11):
                assert response == best_response(params, sigma_L, level)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(game=_crossing_promises())
    def test_leader_utility_on_an_array_is_its_floats(self, game):
        # numpy's exp and math's differ by an ulp on some promises, so an
        # array is evaluated as its floats are, not by numpy's learner law
        params, promises = game
        on_array = induced_leader_utility(params, np.array(promises))
        assert on_array.tolist() == [induced_leader_utility(params, sigma_L)
                                     for sigma_L in promises]

    def test_the_array_deters_at_tau_exact(self):
        # numpy's exp and math's round this game's pressure or abstain value
        # 1 ulp apart at tau_exact: an array of it used to read M
        params = GameParams(
            A_L=1.3455560212858342, C_L=0.5564095431679249,
            A_S=0.6177958695373931, P_S=3.085404013955012,
            C_S=0.66806300703873, rho=1.2052916977742767, N=4426, M=32.0)
        root = tau_exact(params)
        assert root == 1.3620266875366105
        assert gamma(params, root) == 0.0
        assert gamma(params, np.array([root])).tolist() == [0.0]

    def test_every_decision_reads_python_floats(self, monkeypatch):
        seen = []
        real = mfg._response

        def spy(params, sigma_L, crowd, *args):
            seen.append((type(sigma_L), type(crowd)))
            return real(params, sigma_L, crowd, *args)

        monkeypatch.setattr(mfg, "_response", spy)
        params = make_params(**BISTABLE)
        promises = np.linspace(0.0, 3.0, 7)
        assert gamma(params, promises).shape == (7,)
        assert gamma(params, promises.reshape(7, 1, 1)).shape == (7, 1, 1)
        induced_leader_utility(params, promises)
        br_curve(params, 1.0, 9)
        mfg_equilibria(params, 1.0)
        assert len(seen) == 7 + 7 + 7 + 9 + 2
        assert set(seen) == {(float, float)}


class TestFixedPointCheck:
    def test_max_is_not_fixed_in_abstain_regime(self):
        params = make_params(A_S=1.0, P_S=1.5, C_S=1.0, N=100, M=5.0)
        assert not fixed_point_check(params, 0.0, params.M)

    def test_indifference_accepts_anything(self):
        # with N=1 the crowd term vanishes, so the tie P_S == A_S + C_S makes
        # the user indifferent at every crowd level
        params = make_params(A_S=1.0, P_S=2.0, C_S=1.0, N=1)
        for sigma_bar in (0.0, 12.3, params.M):
            assert fixed_point_check(params, 0.0, sigma_bar)


class TestCascade:
    def test_abstain_regime_collapses_from_any_seed(self):
        params = make_params(A_S=1.0, P_S=1.5, C_S=1.0, N=100, M=5.0)
        trace = cascade_simulate(params, 0.0, 0.5, rng_seed=3, max_rounds=20)
        assert trace.converged
        assert trace.adoption_fraction[-1] == 0.0
        assert trace.final_mean_variance == 0.0

    def test_bistable_seed_tips_the_population(self):
        params = make_params(**BISTABLE)
        up = cascade_simulate(params, 1.0, 0.01, rng_seed=1, max_rounds=20)
        assert up.converged and up.adoption_fraction[-1] == 1.0
        down = cascade_simulate(params, 1.0, 0.0, rng_seed=1, max_rounds=20)
        assert down.converged and down.adoption_fraction[-1] == 0.0

    def test_full_obfuscation_in_one_pass(self):
        params = make_params(A_S=1.0, P_S=4.0, C_S=1.0, M=100.0)
        trace = cascade_simulate(params, 0.0, 0.0, rng_seed=0, max_rounds=20)
        assert trace.converged
        assert trace.adoption_fraction[1] == 1.0

    def test_absorbing_states_are_never_left(self):
        params = make_params(**BISTABLE)
        stay_up = cascade_simulate(params, 1.0, 1.0, rng_seed=5, max_rounds=10)
        assert stay_up.adoption_fraction == [1.0, 1.0]
        stay_down = cascade_simulate(params, 1.0, 0.0, rng_seed=5, max_rounds=10)
        assert stay_down.adoption_fraction == [0.0, 0.0]

    def test_sync_schedule_converges_too(self):
        params = make_params(**BISTABLE)
        trace = cascade_simulate(params, 1.0, 0.01, schedule="sync",
                                 rng_seed=0, max_rounds=20)
        assert trace.converged and trace.adoption_fraction[-1] == 1.0

    def test_deterministic_given_seed(self):
        params = make_params(**BISTABLE)
        a = cascade_simulate(params, 1.0, 0.3, rng_seed=17, max_rounds=20)
        b = cascade_simulate(params, 1.0, 0.3, rng_seed=17, max_rounds=20)
        assert a.adoption_fraction == b.adoption_fraction
        assert a.rounds == b.rounds

    def test_converged_means_last_two_rounds_identical(self):
        params = make_params(**BISTABLE)
        trace = cascade_simulate(params, 1.0, 0.01, rng_seed=1, max_rounds=20)
        assert trace.converged and trace.rounds[-1] == trace.rounds[-2]

    def test_non_convergence_is_flagged_not_raised(self):
        params = make_params(**BISTABLE)
        trace = cascade_simulate(params, 1.0, 0.01, rng_seed=1, max_rounds=1)
        assert not trace.converged

    def test_seed_fraction_k_over_n_seeds_k_agents(self):
        # ceil(0.07 * 100) would seed 8: 0.07 * 100 = 7.000000000000001
        for n in (1, 3, 7, 100, 300):
            params = make_params(N=n)
            for k in range(n + 1):
                trace = cascade_simulate(params, 0.0, k / n, max_rounds=1)
                assert trace.rounds[0] == k and type(trace.rounds[0]) is int
                assert trace.adoption_fraction[0] == k / n

    def test_rejects_bad_arguments(self):
        params = make_params()
        with pytest.raises(ValueError):
            cascade_simulate(params, 0.0, 1.5)
        with pytest.raises(ValueError):
            cascade_simulate(params, 0.0, 0.5, max_rounds=0)
        with pytest.raises(ValueError):
            cascade_simulate(params, 0.0, 0.5, schedule="wave")


# The benchmark's cascade game: acceptance 8's bistable example at N = 10^4,
# with M = 10 sqrt(N).  At promise 1, a seed of k = 7 agents is its only count
# where agents at both corners want the other one.
BENCH_CASCADE = dict(BISTABLE, N=10**4, M=1000.0)


def _refuse_generator(*args, **kwargs):
    raise AssertionError("numpy.random.default_rng called")


class TestCascadeRandomOrder:
    def test_no_generator_unless_both_corners_move(self, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", _refuse_generator)
        bench = make_params(**BENCH_CASCADE)
        # sync, even where agents at both corners move
        for fraction in (0.0, 7e-4, 0.01, 1.0):
            trace = cascade_simulate(bench, 1.0, fraction, schedule="sync")
            assert trace.converged
        # async rounds that move one corner
        trace = cascade_simulate(bench, 1.0, 0.01, rng_seed=1)
        assert trace.adoption_fraction == [0.01, 1.0, 1.0]
        # runs converged from the start
        for fraction in (0.0, 1.0):
            trace = cascade_simulate(bench, 1.0, fraction, rng_seed=1)
            assert trace.adoption_fraction == [fraction] * 2

    def test_both_corner_round_draws_its_order(self, monkeypatch):
        bench = make_params(**BENCH_CASCADE)
        real = np.random.default_rng
        seeds = []

        def recording(seed):
            seeds.append(seed)
            return real(seed)

        n = bench.N
        obfuscate, abstain = _rule_by_count(bench, 1.0)
        # up[k] = obfuscate[k] and down[k] = abstain[k - 1]
        assert np.nonzero(obfuscate[1:] & abstain[:-1])[0].tolist() == [6]
        monkeypatch.setattr(np.random, "default_rng", recording)
        # the first agents drawn from seeds 41349 and 8117 are agents 6 and
        # 7, the last seeded agent and the first unseeded one
        drawn = (0, 1, 2, 3, 41349, 8117)
        for rng_seed in drawn:
            trace = cascade_simulate(bench, 1.0, 7e-4, rng_seed=rng_seed)
            # every agent goes where the first of the order goes: agents
            # 0..6 sit at M and move to 0, the others move to M
            end = float(real(rng_seed).integers(n) >= 7)
            assert trace.adoption_fraction == [7e-4, end, end]
        assert seeds == list(drawn)

    @pytest.mark.parametrize("schedule", ["async", "sync"])
    @pytest.mark.parametrize("fraction", [0.0, 7e-4, 0.01])
    def test_rejects_seeds_numpy_refuses(self, schedule, fraction):
        bench = make_params(**BENCH_CASCADE)
        with pytest.raises(ValueError, match="rng_seed"):
            cascade_simulate(bench, 1.0, fraction, schedule=schedule,
                             rng_seed=-1)
        with pytest.raises(ValueError, match=re.escape(
                "rng_seed must be an integer, got 1.5")):
            cascade_simulate(bench, 1.0, fraction, schedule=schedule,
                             rng_seed=1.5)


def _exp10(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def _games(draw, max_n):
    """A game over wide ranges and a promise, with P_S placed so that the
    pressure meets the abstain value at a drawn level of the crowd."""
    conventions = ModelConventions(
        c_g=draw(_exp10(-2, 4)), c_p=draw(_exp10(-2, 4)),
        privacy_exponent=draw(st.sampled_from([0.5, 1.0])))
    params = GameParams(
        A_L=2.0, C_L=1.0, A_S=draw(_exp10(-3, 3)), P_S=1.0,
        C_S=draw(st.one_of(st.just(0.0), _exp10(-6, 2))),
        rho=draw(_exp10(-2, 2)), N=draw(st.integers(1, max_n)),
        M=draw(_exp10(-4, 4)), conventions=conventions)
    sigma_L = draw(st.floats(0.0, 1.0)) * params.M
    crossing = draw(st.floats(0.0, 1.0)) * params.M
    P_S = (abstain_value(params, sigma_L, crossing)
           / privacy_pressure(params, sigma_L))
    assume(P_S > 0)
    return dataclasses.replace(params, P_S=P_S), sigma_L


class TestCascadeProperties:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(game=_games(max_n=2000))
    def test_response_table_is_monotone_in_the_crowd(self, game):
        # the table cascade_simulate reads: the others' mean deviation for
        # k = 0..N-1 others at M.  It runs abstain, then indifferent, then
        # obfuscate, because the gap does not fall as k grows.
        params, sigma_L = game
        obfuscate, abstain = _rule_by_count(params, sigma_L)
        assert not np.any(abstain[1:] & ~abstain[:-1])
        assert not np.any(obfuscate[:-1] & ~obfuscate[1:])

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(game=_games(max_n=300), seed_fraction=st.floats(0.0, 1.0),
           rng_seed=st.integers(0, 2**32 - 1))
    def test_async_round_moves_no_agent_or_all(self, game, seed_fraction,
                                                rng_seed):
        params, sigma_L = game
        trace = cascade_simulate(params, sigma_L, seed_fraction,
                                 rng_seed=rng_seed)
        moved = [a != b for a, b in zip(trace.rounds, trace.rounds[1:])]
        assert sum(moved) <= 1
        for after, changed in zip(trace.rounds[1:], moved):
            assert not changed or after in (0, params.N)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(game=_games(max_n=2000), seed_fraction=st.floats(0.0, 1.0),
           near=st.sampled_from([None, "up", "down"]),
           offset=st.integers(-2, 2),
           schedule=st.sampled_from(["async", "sync"]),
           rng_seed=st.integers(0, 2**32 - 1),
           max_rounds=st.sampled_from([1, 3, 100]))
    def test_matches_the_full_response_table(self, game, seed_fraction, near,
                                             offset, schedule, rng_seed,
                                             max_rounds):
        params, sigma_L = game
        n = params.N
        up, down = _response_table(params, sigma_L)
        if near is not None:
            # seed near the count where the table switches, where seeing k
            # or k - 1 others at M decides the round
            switch = (n - np.count_nonzero(up) if near == "up"
                      else np.count_nonzero(down))
            seed_fraction = min(max(switch + offset, 0), n) / n
        args = (params, sigma_L, seed_fraction, schedule, rng_seed, max_rounds)
        trace = cascade_simulate(*args)
        rounds, fractions, converged, mean_variance = _table_cascade(*args)
        assert trace.rounds == _counts(rounds, schedule)
        assert trace.adoption_fraction == fractions
        assert trace.converged == converged
        assert trace.final_mean_variance == mean_variance
        if trace.converged:
            # the last count is one where neither corner moves
            k = trace.rounds[-1]
            assert not up[k] and not down[k]

    def test_each_round_reads_two_responses(self, monkeypatch):
        # at N = 10^6 a round evaluates the rule for the two agents at its
        # count, each on a float crowd as best_response does, never for a
        # crowd of N
        crowds = []
        real = mfg._response

        def spy(params, sigma_L, crowd, *args):
            crowds.append(crowd)
            return real(params, sigma_L, crowd, *args)

        monkeypatch.setattr(mfg, "_response", spy)
        params = make_params(**dict(BENCH_CASCADE, N=10**6, M=1e4))
        for schedule in ("async", "sync"):
            crowds.clear()
            trace = cascade_simulate(params, 1.0, 0.01, schedule=schedule)
            assert trace.converged and trace.adoption_fraction[-1] == 1.0
            assert 0 < len(crowds) <= 2 * (len(trace.rounds) - 1)
            assert all(type(crowd) is float for crowd in crowds)

    def test_allocates_nothing_n_sized(self):
        # a million agents in well under the 8 bytes apiece an array of them
        # would take.  The second game is the async swap: at k = 2568 agents
        # at both corners want the other one, and one agent is drawn.
        runs = {(1e4, 0.01, "async"): [10**4, 10**6, 10**6],
                (1e4, 0.01, "sync"): [10**4, 10**6, 10**6],
                (5e3, 2568e-6, "async"): [2568, 10**6, 10**6],
                (5e3, 2568e-6, "sync"): [2568, 10**6 - 2568, 10**6, 10**6]}
        for (M, fraction, schedule), rounds in runs.items():
            params = make_params(**dict(BENCH_CASCADE, N=10**6, M=M))
            # untraced first: the first draw imports numpy.random's modules
            cascade_simulate(params, 1.0, fraction, schedule=schedule)
            tracemalloc.start()
            try:
                trace = cascade_simulate(params, 1.0, fraction,
                                         schedule=schedule)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert trace.rounds == rounds
            assert peak < 64 * 1024

    def test_a_trillion_agents(self):
        # kappa M^2 = 100 as at N = 100
        params = make_params(**dict(BENCH_CASCADE, N=10**12, M=1e7))
        for schedule in ("async", "sync"):
            trace = cascade_simulate(params, 1.0, 0.01, schedule=schedule)
            assert trace.adoption_fraction == [0.01, 1.0, 1.0]
            assert trace.rounds == [10**10, 10**12, 10**12]
        # the async swap draws one agent of 10^12: at M = 5e7, agents at
        # both corners want the other one at k = 25,680,176
        params = make_params(**dict(BENCH_CASCADE, N=10**12, M=5e7))
        fraction = 25_680_176 / 10**12
        trace = cascade_simulate(params, 1.0, fraction)
        assert trace.rounds == [25_680_176, 10**12, 10**12]
        trace = cascade_simulate(params, 1.0, fraction, schedule="sync")
        assert trace.rounds[1] == 10**12 - 25_680_176


def _rule_by_count(params, sigma_L):
    """The corner rule's (obfuscate, abstain) as two boolean arrays over
    k = 0..N-1 others at M, each read on the float crowd
    sqrt(M^2 k / (N - 1)) capped at M, as cascade_simulate reads it."""
    n, M = params.N, params.M
    return np.array([_response(params, sigma_L, min(
        M, math.sqrt(M * M * k / max(n - 1, 1)))) for k in range(n)]).T


def _response_table(params, sigma_L):
    """up[k] and down[k] for k = 0..N: whether an agent at 0, or at M, moves
    to the other corner when k agents sit at M, read from the corner rule
    for every count of others at M."""
    obfuscate, abstain = _rule_by_count(params, sigma_L)
    return np.append(obfuscate, False), np.insert(abstain, 0, False)


def _table_cascade(params, sigma_L, seed_fraction, schedule, rng_seed,
                   max_rounds):
    """The cascade read from the full response table, with the seed placed
    on a grid of k/N."""
    n, M = params.N, params.M
    up, down = _response_table(params, sigma_L)
    states = np.zeros(n, dtype=bool)
    states[: np.searchsorted(np.arange(n + 1) / n, seed_fraction)] = True
    rounds = [np.where(states, M, 0.0)]
    fractions = [states.mean()]
    converged = False
    for _ in range(max_rounds):
        k = np.count_nonzero(states)
        if up[k] and down[k]:
            if schedule == "sync":
                states = ~states
            else:
                first = np.random.default_rng(rng_seed).integers(n)
                states[:] = not states[first]
        elif up[k] or down[k]:
            states[:] = up[k]
        rounds.append(np.where(states, M, 0.0))
        fractions.append(states.mean())
        if not (up[k] or down[k]):
            converged = True
            break
    return (rounds, [float(f) for f in fractions], converged,
            float(M * M * states.mean()))


def _counts(rounds, schedule):
    """The count at M per entry of a reference run, after checking that
    every state is the seeded prefix, unanimous, or (sync) the seed's
    complement, so that its count is the whole state."""
    seed = rounds[0] > 0
    k = np.count_nonzero(seed)
    assert seed[:k].all() and not seed[k:].any()
    for state in (r > 0 for r in rounds):
        assert (np.array_equal(state, seed) or state.all() or not state.any()
                or (schedule == "sync" and np.array_equal(state, ~seed)))
    return [np.count_nonzero(r) for r in rounds]


def _mean_other_deviation(states, i, M):
    n = states.size
    if n == 1:
        return 0.0
    others_at_max = int(states.sum()) - int(states[i])
    return math.sqrt(M * M * others_at_max / (n - 1))


def _reference_cascade(params, sigma_L, seed_fraction, schedule, rng_seed,
                       max_rounds):
    """The per-agent loop: one best_response and one O(N) sum per update."""
    n, M = params.N, params.M
    rng = np.random.default_rng(rng_seed)
    states = np.zeros(n, dtype=bool)
    states[: np.searchsorted(np.arange(n + 1) / n, seed_fraction)] = True
    rounds = [np.where(states, M, 0.0)]
    fractions = [states.mean()]
    converged = False
    for _ in range(max_rounds):
        changed = False
        if schedule == "async":
            # a uniformly random order, drawn first mover first as
            # cascade_simulate draws it, then the other agents permuted
            first = rng.integers(n)
            for i in itertools.chain([first], rng.permutation(
                    np.delete(np.arange(n), first))):
                resp = best_response(params, sigma_L,
                                     _mean_other_deviation(states, i, M))
                if resp.kind is ResponseKind.INDIFFERENT:
                    continue
                target = resp.kind is ResponseKind.MAX
                if states[i] != target:
                    states[i] = target
                    changed = True
        else:
            prev = states.copy()
            for i in range(n):
                resp = best_response(params, sigma_L,
                                     _mean_other_deviation(prev, i, M))
                if resp.kind is ResponseKind.INDIFFERENT:
                    continue
                states[i] = resp.kind is ResponseKind.MAX
            changed = bool(np.any(states != prev))
        rounds.append(np.where(states, M, 0.0))
        fractions.append(states.mean())
        if not changed:
            converged = True
            break
    return (rounds, [float(f) for f in fractions], converged,
            float(M * M * states.mean()))


class TestCascadeEquivalence:
    def _cases(self):
        rng = np.random.default_rng(31)
        for _ in range(120):
            params = GameParams(
                A_L=2.0, C_L=1.0, A_S=rng.uniform(0.5, 1.5),
                C_S=rng.uniform(0.0, 0.5), P_S=rng.uniform(0.5, 3.0),
                rho=rng.uniform(0.5, 2.0), N=int(rng.integers(1, 120)),
                M=rng.uniform(0.1, 30.0))
            yield (params, rng.uniform(0.0, min(3.0, params.M)),
                   float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)])))
        # indifference for a lone agent, and for crowds below a level of
        # the others' deviation
        for n, M in ((1, 1.0), (50, 1e-4), (50, 5e-4), (50, 1e-3)):
            params = make_params(A_S=1.0, P_S=2.0, C_S=1.0, N=n, M=M)
            for fraction in (0.0, 0.3, 1.0):
                yield params, 0.0, fraction
        yield make_params(**BISTABLE), 1.0, 0.01
        # tables that move both ways at k: with k agents at M, those at M
        # (seeing k - 1 others there) abstain and those at 0 obfuscate.
        # Seeded at k, the first agent in the order decides the direction;
        # at N = 2k the sync schedule flips every agent each round.
        for n, k, b in ((200, 100, 0.02), (701, 300, 0.005),
                        (1500, 1100, 0.001)):
            # the accuracy level is about b k at promise 0; P_S puts the
            # crossing at k - 1/2
            params = make_params(A_S=1.0, C_S=0.1,
                                 P_S=0.1 + math.exp(-(k - 0.5) * b), rho=1.0,
                                 N=n, M=n * math.sqrt(b))
            for seeded in (k - 2, k, k + 1):
                yield params, 0.0, seeded / n

    def _knife_edge_cases(self):
        # the gap at a random count j of others at M is placed at
        # +-INDIFFERENCE_TOL, where the last bit of the pressure or the
        # abstain value decides the round, and the seed reads it in round one
        rng = np.random.default_rng(47)
        for _ in range(300):
            conventions = ModelConventions(
                c_g=10 ** rng.uniform(-2, 2), c_p=10 ** rng.uniform(-2, 2),
                privacy_exponent=float(rng.choice([0.5, 1.0])))
            params = GameParams(
                A_L=2.0, C_L=1.0, A_S=10 ** rng.uniform(-3, 3), P_S=1.0,
                C_S=float(rng.choice([0.0, 10 ** rng.uniform(-6, 2)])),
                rho=10 ** rng.uniform(-2, 2), N=int(rng.integers(1, 201)),
                M=10 ** rng.uniform(-3, 4), conventions=conventions)
            n, M = params.N, params.M
            sigma_L = rng.uniform(0.0, M)
            j = int(rng.integers(0, n))
            crowd = min(M, math.sqrt(M * M * j / max(n - 1, 1)))
            gap = float(rng.choice([-INDIFFERENCE_TOL, INDIFFERENCE_TOL]))
            P_S = ((abstain_value(params, sigma_L, crowd) + gap)
                   / privacy_pressure(params, sigma_L))
            if P_S > 0:
                yield (dataclasses.replace(params, P_S=P_S), sigma_L,
                       (j + int(rng.integers(0, 2))) / n)

    def _compare_with_per_agent_loop(self, cases):
        compared = 0
        for params, sigma_L, fraction in cases:
            for schedule, max_rounds in itertools.product(("async", "sync"),
                                                          (1, 2, 30)):
                args = (params, sigma_L, fraction, schedule, 7, max_rounds)
                trace = cascade_simulate(*args)
                try:
                    want = _reference_cascade(*args)
                except ValueError:
                    # the loop's root of M^2 (N-1)/(N-1) can round above M
                    M, n = params.M, params.N
                    assert math.sqrt(M * M * (n - 1) / (n - 1)) > M
                    continue
                rounds, fractions, converged, mean_variance = want
                assert trace.rounds == _counts(rounds, schedule)
                assert trace.adoption_fraction == fractions
                assert trace.converged == converged
                assert trace.final_mean_variance == mean_variance
                compared += 1
        return compared

    def test_matches_per_agent_loop(self):
        assert self._compare_with_per_agent_loop(self._cases()) >= 800

    def test_knife_edge_games_match_per_agent_loop(self):
        compared = self._compare_with_per_agent_loop(self._knife_edge_cases())
        assert compared >= 1500

    def test_decides_as_best_response_at_the_tolerance(self):
        # the gap of the agent at 0 in round one is within rounding of
        # INDIFFERENCE_TOL: numpy's exp and math.exp round the abstain
        # value 1 ulp apart there, and best_response reads it on floats
        conventions = ModelConventions(c_g=0.19109957881867867,
                                       c_p=1.4469849506431132,
                                       privacy_exponent=0.5)
        params = GameParams(A_L=2.0, C_L=0.5, A_S=0.8350975843875466,
                            P_S=0.8350962625252973, C_S=0.0,
                            rho=4.15598797436479, N=3,
                            M=0.03536300231917791, conventions=conventions)
        args = (params, 0.003560488478980799, 1 / 3, "sync", 0, 1)
        trace = cascade_simulate(*args)
        assert trace.adoption_fraction == [1 / 3, 0.0]
        assert trace.adoption_fraction == _reference_cascade(*args)[1]

    def test_full_adoption_where_the_root_rounds_above_M(self):
        # sqrt(0.3^2 * 3 / 3) = 0.30000000000000004 > M: seeded at 0, the
        # agents at M read it in round two; seeded at 3, the agent at 0
        # reads it in round one
        params = make_params(A_S=1.0, P_S=4.0, C_S=1.0, N=4, M=0.3)
        for schedule, fraction in itertools.product(("async", "sync"),
                                                    (0.0, 0.75)):
            trace = cascade_simulate(params, 0.0, fraction, schedule=schedule)
            assert trace.converged and trace.adoption_fraction[-1] == 1.0

    def test_full_adoption_where_the_crowd_overflows(self):
        # M^2 j leaves the float range at j = 2, which the agents at M read
        # seeded at 0 and the agent at 0 reads seeded at 2: the crowd is M,
        # with no overflow warning
        params = make_params(A_S=1.0, P_S=4.0, C_S=1.0, N=3, M=1.3e154)
        for schedule, fraction in itertools.product(("async", "sync"),
                                                    (0.0, 2 / 3)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                trace = cascade_simulate(params, 0.0, fraction,
                                         schedule=schedule)
            assert trace.adoption_fraction == [fraction, 1.0, 1.0]
            assert trace.converged
            assert trace.final_mean_variance == 1.3e154 * 1.3e154


class TestBrCurve:
    def test_abstain_everywhere(self):
        params = make_params(A_S=1.0, P_S=1.5, C_S=1.0, N=100, M=5.0)
        curve = br_curve(params, 0.0, 50)
        assert all(r.kind is ResponseKind.ZERO for _, r in curve)

    def test_switching_curve(self):
        params = make_params(**BISTABLE)
        kinds = [r.kind for _, r in br_curve(params, 1.0, 200)]
        assert kinds[0] is ResponseKind.ZERO
        assert kinds[-1] is ResponseKind.MAX
        transitions = sum(1 for a, b in zip(kinds, kinds[1:]) if a is not b)
        assert transitions <= 2  # Zero -> (Indifferent) -> Max

    def test_obfuscate_everywhere(self):
        params = make_params(A_S=1.0, P_S=4.0, C_S=1.0, M=100.0)
        curve = br_curve(params, 0.0, 50)
        assert all(r.kind is ResponseKind.MAX for _, r in curve)

    def test_two_points_minimum(self):
        assert len(br_curve(make_params(), 0.0, 2)) == 2
        with pytest.raises(ValueError):
            br_curve(make_params(), 0.0, 1)
