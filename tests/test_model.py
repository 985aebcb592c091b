import math

import numpy as np
import pytest

from obfgame import (
    GameParams,
    ModelConventions,
    NoiseProfile,
    abstain_value,
    accuracy_level,
    kappa,
    learner_utility,
    privacy_level,
    privacy_pressure,
    user_utility,
)


def make_params(**overrides):
    base = dict(A_L=2.0, C_L=1.0, A_S=1.0, P_S=2.0, C_S=0.5,
                rho=1.0, N=100, M=50.0)
    base.update(overrides)
    return GameParams(**base)


def random_params(rng):
    return make_params(
        A_L=rng.uniform(0.5, 4.0),
        C_L=rng.uniform(0.0, 2.0),
        A_S=rng.uniform(0.3, 2.0),
        P_S=rng.uniform(0.2, 5.0),
        C_S=rng.uniform(0.0, 1.5),
        rho=rng.uniform(0.5, 2.0),
        N=int(rng.integers(1, 500)),
        M=rng.uniform(5.0, 80.0),
    )


class TestKappa:
    def test_identity_case(self):
        assert kappa(make_params(rho=1.0, N=1)) == 1.0

    def test_large_population(self):
        assert kappa(make_params(rho=1.0, N=100)) == 0.01

    def test_rho_and_population_trade_off(self):
        assert kappa(make_params(rho=2.0, N=25)) == pytest.approx(0.01, rel=1e-15)


class TestAccuracyLevel:
    def test_zero_noise(self):
        assert accuracy_level(make_params(), NoiseProfile(0, 0, 0)) == 0.0

    def test_learner_noise_only(self):
        params = make_params(rho=1.0, N=100)
        assert accuracy_level(params, NoiseProfile(1, 0, 0)) == pytest.approx(
            0.01, rel=1e-12)

    def test_symmetric_profile_collapses(self):
        # ((N-1)/N) s^2 + (1/N) s^2 == s^2 for every N
        rng = np.random.default_rng(3)
        for _ in range(100):
            params = random_params(rng)
            s = rng.uniform(0, params.M)
            sigma_L = rng.uniform(0, params.M)
            got = accuracy_level(params, NoiseProfile(sigma_L, s, s))
            want = params.conventions.c_g * kappa(params) * (sigma_L**2 + s**2)
            assert got == pytest.approx(want, rel=1e-12)

    def test_monotone_in_each_argument(self):
        params = make_params()
        base = accuracy_level(params, NoiseProfile(1, 1, 1))
        for bumped in [(2, 1, 1), (1, 2, 1), (1, 1, 2)]:
            assert accuracy_level(params, NoiseProfile(*bumped)) >= base

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            accuracy_level(make_params(M=1.0), NoiseProfile(2.0, 0, 0))


class TestPrivacyLevel:
    def test_zero_noise_is_unbounded(self):
        assert privacy_level(make_params(), 0.0, 0.0) == math.inf

    def test_unit_learner_noise(self):
        assert privacy_level(make_params(), 1.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_combined_noise(self):
        assert privacy_level(make_params(), 1.0, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_square_root_exponent(self):
        params = make_params(
            conventions=ModelConventions(privacy_exponent=0.5))
        assert privacy_level(params, 2.0, 0.0) == pytest.approx(0.5, rel=1e-12)

    def test_strictly_decreasing_and_finite(self):
        params = make_params()
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = rng.uniform(0.01, params.M / 2)
            b = a * rng.uniform(1.01, 2.0)
            assert privacy_level(params, b, 0.0) < privacy_level(params, a, 0.0)
            assert privacy_level(params, 0.0, b) < privacy_level(params, 0.0, a)
            assert math.isfinite(privacy_level(params, a, b))


class TestUserUtility:
    def test_zero_noise(self):
        params = make_params(A_S=1.0, P_S=2.0)
        # full accuracy, full privacy loss, no obfuscation cost
        assert user_utility(params, NoiseProfile(0, 0, 0)) == pytest.approx(
            params.A_S - params.P_S, rel=1e-15)

    def test_promise_only(self):
        params = make_params(A_S=1.0, P_S=2.0, C_S=0.5, rho=1.0, N=100)
        got = user_utility(params, NoiseProfile(1, 0, 0))
        assert got == pytest.approx(-0.2741912839079472, rel=1e-12)

    def test_promise_plus_own_noise(self):
        params = make_params(A_S=1.0, P_S=2.0, C_S=0.5, rho=1.0, N=100)
        got = user_utility(params, NoiseProfile(1, 0, 1))
        assert got == pytest.approx(-0.2969878468588558, rel=1e-12)

    def test_recomposition_from_primitives(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            params = random_params(rng)
            noise = NoiseProfile(*(rng.uniform(0, params.M) for _ in range(3)))
            eps_g = accuracy_level(params, noise)
            eps_p = privacy_level(params, noise.sigma_L, noise.sigma_S)
            want = (params.A_S * math.exp(-eps_g)
                    - params.P_S * (1 - math.exp(-eps_p))
                    - (params.C_S if noise.sigma_S > 0 else 0.0))
            assert user_utility(params, noise) == pytest.approx(want, rel=1e-12)


class TestLearnerUtility:
    def test_no_noise_attains_maximum(self):
        params = make_params(A_L=2.0)
        assert learner_utility(params, 0.0, 0.0) == params.A_L

    def test_promise_cost(self):
        params = make_params(A_L=2.0, C_L=1.0, rho=1.0, N=100)
        assert learner_utility(params, 1.0, 0.0) == pytest.approx(
            0.9800996674983362, rel=1e-12)

    def test_full_obfuscation_kills_utility(self):
        params = make_params(A_L=2.0, rho=1.0, N=100, M=100.0)
        assert learner_utility(params, 0.0, params.M) == pytest.approx(
            0.0, abs=1e-8)

    def test_recomposition_from_primitives(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            params = random_params(rng)
            sigma_L = rng.uniform(0, params.M)
            sigma_bar = rng.uniform(0, params.M)
            eps_g = accuracy_level(
                params, NoiseProfile(sigma_L, sigma_bar, sigma_bar))
            want = (params.A_L * math.exp(-eps_g)
                    - (params.C_L if sigma_L > 0 else 0.0))
            assert learner_utility(params, sigma_L, sigma_bar) == pytest.approx(
                want, rel=1e-12)


class TestPrivacyPressure:
    def test_no_promise_means_full_pressure(self):
        params = make_params(P_S=2.0)
        assert privacy_pressure(params, 0.0) == params.P_S

    def test_unit_promise(self):
        params = make_params(P_S=2.0)
        assert privacy_pressure(params, 1.0) == pytest.approx(
            1.2642411176571153, rel=1e-12)

    def test_strictly_decreasing_to_zero(self):
        params = make_params()
        grid = np.linspace(0.0, params.M, 200)
        values = [privacy_pressure(params, float(s)) for s in grid]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 0.01 * params.P_S


class TestAbstainValue:
    def test_zero_noise(self):
        params = make_params(A_S=1.0, C_S=0.5)
        assert abstain_value(params, 0.0, 0.0) == params.A_S + params.C_S

    def test_promise_only(self):
        params = make_params(A_S=1.0, C_S=1.0, rho=1.0, N=100)
        assert abstain_value(params, 1.0, 0.0) == pytest.approx(
            1.990049833749168, rel=1e-12)

    def test_crowd_noise_erases_accuracy_value(self):
        params = make_params(A_S=1.0, C_S=1.0, rho=1.0, N=100, M=100.0)
        assert abstain_value(params, 0.0, params.M) == pytest.approx(
            params.C_S, abs=1e-8)

    def test_decreasing_and_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            params = random_params(rng)
            a = rng.uniform(0, params.M / 2)
            b = a + rng.uniform(0.1, params.M / 2)
            assert abstain_value(params, b, 0.0) <= abstain_value(params, a, 0.0)
            assert abstain_value(params, 0.0, b) <= abstain_value(params, 0.0, a)
            value = abstain_value(params, a, b)
            # the open lower bound closes under fp underflow of A_S * exp(-x)
            assert params.C_S <= value <= params.A_S + params.C_S


class TestValidation:
    def test_rejects_nonpositive_benefits(self):
        for field in ("A_L", "A_S", "P_S", "rho", "M"):
            with pytest.raises(ValueError):
                make_params(**{field: 0.0})

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            make_params(C_S=-0.1)

    def test_rejects_bad_population(self):
        with pytest.raises(ValueError):
            make_params(N=0)
        with pytest.raises(ValueError):
            make_params(N=2.5)

    @pytest.mark.parametrize("field, value", [
        ("C_S", math.nan), ("C_L", math.nan), ("M", math.inf),
        ("A_L", math.inf), ("rho", math.inf), ("P_S", math.inf),
        ("A_S", math.nan), ("C_L", math.inf), ("N", True),
    ])
    def test_rejects_non_finite_and_bool_fields(self, field, value):
        with pytest.raises(ValueError):
            make_params(**{field: value})

    def test_rejects_bad_conventions(self):
        with pytest.raises(ValueError):
            ModelConventions(c_g=0.0)
        with pytest.raises(ValueError):
            ModelConventions(privacy_exponent=0.7)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            NoiseProfile(-1.0, 0.0, 0.0)

    def test_numeric_fields_normalized(self):
        params = make_params(N=10, M=50)
        assert isinstance(params.M, float) and isinstance(params.N, int)
