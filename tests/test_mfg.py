import dataclasses
import itertools
import math

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
    mfg_equilibria,
    privacy_pressure,
)
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
        assert all(np.array_equal(x, y) for x, y in zip(a.rounds, b.rounds))

    def test_converged_means_last_two_rounds_identical(self):
        params = make_params(**BISTABLE)
        trace = cascade_simulate(params, 1.0, 0.01, rng_seed=1, max_rounds=20)
        assert np.array_equal(trace.rounds[-1], trace.rounds[-2])

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
                assert np.count_nonzero(trace.rounds[0]) == k
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

        n, M = bench.N, bench.M
        crowd = np.minimum(M, np.sqrt(M * M * np.arange(n) / (n - 1)))
        obfuscate, abstain = _response(bench, 1.0, crowd)
        # up[k] = obfuscate[k] and down[k] = abstain[k - 1]
        assert np.nonzero(obfuscate[1:] & abstain[:-1])[0].tolist() == [6]
        monkeypatch.setattr(np.random, "default_rng", recording)
        for rng_seed in range(4):
            trace = cascade_simulate(bench, 1.0, 7e-4, rng_seed=rng_seed)
            # every agent goes where the first of the order goes: agents
            # 0..6 sit at M and move to 0, the others move to M
            end = float(real(rng_seed).permutation(n)[0] >= 7)
            assert trace.adoption_fraction == [7e-4, end, end]
        assert seeds == [0, 1, 2, 3]

    @pytest.mark.parametrize("schedule", ["async", "sync"])
    @pytest.mark.parametrize("fraction", [0.0, 7e-4, 0.01])
    def test_rejects_seeds_numpy_refuses(self, schedule, fraction):
        bench = make_params(**BENCH_CASCADE)
        with pytest.raises(ValueError, match="rng_seed"):
            cascade_simulate(bench, 1.0, fraction, schedule=schedule,
                             rng_seed=-1)
        with pytest.raises(TypeError):
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
        n, M = params.N, params.M
        crowd = np.minimum(M, np.sqrt(M * M * np.arange(n) / max(n - 1, 1)))
        obfuscate, abstain = _response(params, sigma_L, crowd)
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
        moved = [not np.array_equal(a, b)
                 for a, b in zip(trace.rounds, trace.rounds[1:])]
        assert sum(moved) <= 1
        for after, changed in zip(trace.rounds[1:], moved):
            assert not changed or np.all(after == after[0])


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
            for i in rng.permutation(n):
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

    def test_matches_per_agent_loop(self):
        compared = 0
        for params, sigma_L, fraction in self._cases():
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
                assert len(trace.rounds) == len(rounds)
                assert all(np.array_equal(a, b)
                           for a, b in zip(trace.rounds, rounds))
                assert trace.adoption_fraction == fractions
                assert trace.converged == converged
                assert trace.final_mean_variance == mean_variance
                compared += 1
        assert compared >= 800

    def test_full_adoption_where_the_root_rounds_above_M(self):
        # sqrt(0.3^2 * 3 / 3) = 0.30000000000000004 > M
        params = make_params(A_S=1.0, P_S=4.0, C_S=1.0, N=4, M=0.3)
        for schedule in ("async", "sync"):
            trace = cascade_simulate(params, 0.0, 0.0, schedule=schedule)
            assert trace.converged and trace.adoption_fraction[-1] == 1.0


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
