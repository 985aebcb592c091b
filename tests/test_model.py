import dataclasses
import itertools
import math
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obfgame import (
    EquilibriumRegime,
    GameParams,
    ModelConventions,
    abstain_value,
    accuracy_level,
    best_response,
    cascade_simulate,
    gamma,
    induced_leader_utility,
    kappa,
    leader_utility_piecewise,
    learner_utility,
    pbne_solve,
    privacy_level,
    privacy_pressure,
    user_utility,
)
from obfgame import model, stackelberg


# a valid point, and valid and invalid values of each field to add to it
GRID_BASE = dict(A_L=2.0, C_L=1.0, A_S=1.0, P_S=2.0, C_S=0.5, rho=1.0, N=100,
                 M=50.0)
GRID_VALUES = {
    **{name: [1.0, 0.5, 0.0, -1.0, math.inf, math.nan, 1e200, 1e-170]
       for name in ("A_L", "C_L", "A_S", "P_S", "C_S", "M")},
    "rho": [1.0, 0.5, 0.0, -1.0, math.nan, 1e-152, 1e-170, 1e170],
    "N": [1, 100, 3.0, 0, 2.5, -1, True, 10**400],
}


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
    # GameParams derives kappa once; it must be the formula's bits, also
    # where N is near 2^53 and int(N) != float(N)
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(rho=st.floats(1e-3, 1e3), N=st.one_of(
               st.integers(1, 10**6), st.integers(2**53 - 99, 2**53 + 99)),
           new_rho=st.floats(1e-3, 1e3), new_N=st.one_of(
               st.integers(1, 10**6), st.integers(2**53 - 99, 2**53 + 99)))
    def test_derived_once_to_the_bit(self, rho, N, new_rho, new_N):
        params = make_params(rho=rho, N=N)
        moved = dataclasses.replace(params, rho=new_rho, N=new_N)
        for p in (params, moved):
            assert kappa(p).hex() == (1.0 / (p.rho**2 * p.N)).hex()

    def test_derived_kappa_is_not_a_field(self):
        params = make_params()
        assert "kappa" not in repr(params)
        with pytest.raises(dataclasses.FrozenInstanceError):
            params._kappa = 1.0
        with pytest.raises(TypeError):
            make_params(_kappa=1.0)

    def test_identity_case(self):
        assert kappa(make_params(rho=1.0, N=1)) == 1.0

    def test_large_population(self):
        assert kappa(make_params(rho=1.0, N=100)) == 0.01

    def test_rho_and_population_trade_off(self):
        assert kappa(make_params(rho=2.0, N=25)) == pytest.approx(0.01, rel=1e-15)


class TestAccuracyLevel:
    def test_zero_noise(self):
        assert accuracy_level(make_params(), 0, 0, 0) == 0.0

    def test_learner_noise_only(self):
        params = make_params(rho=1.0, N=100)
        assert accuracy_level(params, 1, 0, 0) == pytest.approx(
            0.01, rel=1e-12)

    def test_symmetric_profile_collapses(self):
        # ((N-1)/N) s^2 + (1/N) s^2 == s^2 for every N
        rng = np.random.default_rng(3)
        for _ in range(100):
            params = random_params(rng)
            s = rng.uniform(0, params.M)
            sigma_L = rng.uniform(0, params.M)
            got = accuracy_level(params, sigma_L, s, s)
            want = params.conventions.c_g * kappa(params) * (sigma_L**2 + s**2)
            assert got == pytest.approx(want, rel=1e-12)

    def test_monotone_in_each_argument(self):
        params = make_params()
        base = accuracy_level(params, 1, 1, 1)
        for bumped in [(2, 1, 1), (1, 2, 1), (1, 1, 2)]:
            assert accuracy_level(params, *bumped) >= base

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            accuracy_level(make_params(M=1.0), 2.0, 0, 0)


class TestPrivacyLevel:
    def test_zero_noise_is_unbounded(self):
        assert privacy_level(make_params(), 0.0, 0.0) == math.inf

    @pytest.mark.parametrize("sigma", [1e-158, 1e-155])
    def test_tiny_noise_is_unbounded(self, sigma):
        # sigma^2 is nonzero but its reciprocal exceeds the float range
        params = make_params()
        assert privacy_level(params, sigma, 0.0) == math.inf
        assert privacy_level(params, np.array([sigma]), 0.0)[0] == math.inf
        assert privacy_pressure(params, sigma) == params.P_S

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
        assert user_utility(params, 0, 0, 0) == pytest.approx(
            params.A_S - params.P_S, rel=1e-15)

    def test_promise_only(self):
        params = make_params(A_S=1.0, P_S=2.0, C_S=0.5, rho=1.0, N=100)
        got = user_utility(params, 1, 0, 0)
        assert got == pytest.approx(-0.2741912839079472, rel=1e-12)

    def test_promise_plus_own_noise(self):
        params = make_params(A_S=1.0, P_S=2.0, C_S=0.5, rho=1.0, N=100)
        got = user_utility(params, 1, 0, 1)
        assert got == pytest.approx(-0.2969878468588558, rel=1e-12)

    def test_recomposition_from_primitives(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            params = random_params(rng)
            sigma_L, sigma_bar, sigma_S = (rng.uniform(0, params.M)
                                           for _ in range(3))
            eps_g = accuracy_level(params, sigma_L, sigma_bar, sigma_S)
            eps_p = privacy_level(params, sigma_L, sigma_S)
            want = (params.A_S * math.exp(-eps_g)
                    - params.P_S * (1 - math.exp(-eps_p))
                    - (params.C_S if sigma_S > 0 else 0.0))
            assert user_utility(params, sigma_L, sigma_bar, sigma_S) == (
                pytest.approx(want, rel=1e-12))


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
            eps_g = accuracy_level(params, sigma_L, sigma_bar, sigma_bar)
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


class TestArrayForms:
    # each public law with the number of deviations it takes
    LAWS = ((accuracy_level, 3), (privacy_level, 2), (user_utility, 3),
            (learner_utility, 2), (privacy_pressure, 1), (abstain_value, 2))

    def test_matches_float_evaluation(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            params = make_params(
                A_S=rng.uniform(0.3, 2.0), P_S=rng.uniform(0.2, 5.0),
                C_S=rng.uniform(0.0, 1.5), C_L=rng.uniform(0.0, 2.0),
                rho=rng.uniform(0.5, 2.0), N=int(rng.integers(1, 300)),
                M=rng.uniform(5.0, 80.0),
                conventions=ModelConventions(
                    c_g=rng.uniform(0.5, 2.0), c_p=rng.uniform(0.5, 2.0),
                    privacy_exponent=float(rng.choice([0.5, 1.0]))))
            for law, arity in self.LAWS:
                # zeros in every slot at once (zero total noise) and at M
                args = [np.concatenate(([0.0, params.M],
                                        rng.uniform(0, params.M, 7)))
                        for _ in range(arity)]
                want = [law(params, *(float(a[i]) for a in args))
                        for i in range(9)]
                assert all(type(w) is float for w in want), law.__name__
                got = law(params, *args)
                assert got.shape == (9,)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15,
                                           err_msg=law.__name__)
                if arity == 1:
                    continue
                # a float beside arrays broadcasts against them
                sigma_L = float(args[0][4])
                got = law(params, sigma_L, *args[1:])
                want = [law(params, sigma_L, *(float(a[i]) for a in args[1:]))
                        for i in range(9)]
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15,
                                           err_msg=law.__name__)

    def test_float_and_array_square_a_deviation_alike(self):
        # x**2 (C pow) and x*x differ in the last bit on some floats; the
        # laws square a float deviation and an array's entries one way
        params = GameParams(A_L=2.0, C_L=1.0, A_S=0.5, P_S=2.0, C_S=1.0,
                            rho=1.0, N=100, M=50.0)
        rng = random.Random(1)
        sigmas = [rng.uniform(0.0, 50.0) for _ in range(20_000)]
        assert any(s**2 != s * s for s in sigmas)
        as_floats = [accuracy_level(params, s, 0.0, 0.0) for s in sigmas]
        in_arrays = [accuracy_level(params, np.array([s]), 0.0, 0.0)[0]
                     for s in sigmas]
        assert as_floats == in_arrays

    def test_elementwise_calls_f_on_python_numbers(self):
        seen = []

        def f(x, y):
            seen.append((x, y))
            return math.nan if x is True else x // 10**399 * y

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model._elementwise(
                f, np.array([True, 10**400], dtype=object).reshape(-1, 1),
                np.array([0.5, 1.5]))
            # f compares a nan, overflows and returns nan: no warning
            assert np.isnan(model._elementwise(
                stackelberg._inverse_root, np.array([math.nan]))).all()
            assert model._elementwise(
                lambda x: x * 1e308, np.array([10.0])) == math.inf
        assert got.dtype == float and got.shape == (2, 2)
        assert np.isnan(got[0]).all() and got[1].tolist() == [5.0, 15.0]
        # in whatever order numpy visits the grid
        assert sorted((type(x).__name__, type(y).__name__, y)
                      for x, y in seen) == [
            ("bool", "float", 0.5), ("bool", "float", 1.5),
            ("int", "float", 0.5), ("int", "float", 1.5)]
        assert {x for x, _ in seen if x is not True} == {10**400}

    @pytest.mark.parametrize("text", [
        "1", b"1", np.array(["1", "2"]), np.array([1.0, "1"], dtype=object)],
        ids=["str", "bytes", "str-array", "object-array"])
    def test_refuses_text_deviations(self, text):
        # numpy's float cast parses text: user_utility(p, "1", 0, 0) once
        # answered, an ulp away from user_utility(p, 1.0, 0, 0)
        params = make_params()
        for law, args in [(user_utility, (text, 0.0, 0.0)),
                          (learner_utility, (0.0, text)),
                          (best_response, (text, 0.0)), (gamma, (text,)),
                          (induced_leader_utility, (text,)),
                          (leader_utility_piecewise, (text,))]:
            with pytest.raises(ValueError,
                               match=r"^sigma_\w+ must hold numbers, got "):
                law(params, *args)

    @pytest.mark.parametrize("bad", [-1.0, 60.0, math.nan])
    def test_every_entry_is_checked(self, bad):
        params = make_params(M=50.0)
        with pytest.raises(ValueError, match=r"sigma_bar_other=.* outside "
                                             r"\[0, M=50\.0\]"):
            abstain_value(params, 1.0, np.array([0.0, 3.0, bad]))
        with pytest.raises(ValueError, match="sigma_L="):
            privacy_pressure(params, bad)


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

    def test_counts_are_integral_reals(self):
        # numpy's bool is no more a count than True is, and a numpy float or
        # a Fraction is one where it is integral, as a float is
        for N in (np.True_, np.float32(2.5), np.float16(1.5), Fraction(5, 2)):
            with pytest.raises(ValueError,
                               match="^N must be an integer >= 1$"):
                make_params(N=N)
        for N in (np.int64(3), np.float32(3.0), np.uint8(3), Fraction(3, 1)):
            N = make_params(N=N).N
            assert type(N) is int and N == 3

    # an int beyond the float range is not finite either
    @pytest.mark.parametrize("field, value", [
        ("C_S", math.nan), ("C_L", math.nan), ("M", math.inf),
        ("A_L", math.inf), ("rho", math.inf), ("P_S", math.inf),
        ("A_S", math.nan), ("C_L", math.inf), ("N", True),
        pytest.param("A_L", 10**400, id="A_L-10**400"),
        pytest.param("M", 10**400, id="M-10**400"),
        pytest.param("C_S", -10**400, id="C_S--10**400"),
    ])
    def test_rejects_non_finite_and_bool_fields(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            make_params(**{field: value})

    # the laws need M*M and kappa = 1/(rho^2 N) as finite positive floats
    @pytest.mark.parametrize("field, value, message", [
        ("M", 1e200, "M=1e+200 must have a finite positive square"),
        ("M", 1e-170, "M=1e-170 must have a finite positive square"),
        ("rho", 1e-170, "rho=1e-170 and N=100 must give a finite positive"),
        ("rho", 1e170, "rho=1e+170 and N=100 must give a finite positive"),
        ("N", 10**400, "must give a finite positive kappa"),
    ], ids=["M-over", "M-under", "rho-under", "rho-over", "N-over"])
    def test_rejects_derived_constants_outside_float_range(
            self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make_params(**{field: value})

    def test_rejects_overflowing_accuracy_scale(self):
        # kappa = 1e304 is a float but c_g kappa is not: the accuracy level
        # read inf x 0 = nan at zero noise, and solve wrote nan utilities
        assert kappa(make_params(rho=1e-152, N=1)) == pytest.approx(1e304)
        with pytest.raises(ValueError, match=re.escape(
                "rho=1e-152, N=1 and c_g=100000.0 must give a finite "
                "c_g * kappa")):
            make_params(rho=1e-152, N=1,
                        conventions=ModelConventions(c_g=1e5))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(extra=st.lists(st.sampled_from(
        [(name, value) for name, pool in GRID_VALUES.items()
         for value in pool]), max_size=3),
           c_g=st.sampled_from([1.0, 1e5]))
    def test_grid_check_agrees_with_construction(self, extra, c_g):
        # the sweep's column form refuses a grid by GameParams' rules on
        # each field's values and its derived constants on each point;
        # GameParams is the reference.  The grid is the default point with
        # up to three values added, each field on an axis of its own.
        conventions = ModelConventions(c_g=c_g)
        values = {name: [value] for name, value in GRID_BASE.items()}
        for name, value in extra:
            values[name].append(value)
        names = list(values)

        def accepted(point):
            try:
                GameParams(conventions=conventions, **dict(zip(names, point)))
            except ValueError:
                return False
            return True

        every = all(map(accepted, itertools.product(*values.values())))
        # object arrays keep each value's Python type (True, 10**400)
        columns = {name: np.array(pool, dtype=object).reshape(
            [-1 if axis == i else 1 for axis in range(len(names))])
            for i, (name, pool) in enumerate(values.items())}
        try:
            stackelberg._closed_form_columns(conventions=conventions,
                                             **columns)
        except ValueError:
            assert not every
        else:
            assert every

    def test_rejects_bad_conventions(self):
        with pytest.raises(ValueError):
            ModelConventions(c_g=0.0)
        for name in ("c_g", "c_p"):
            for value in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError, match=(
                        f"{name} must be finite and positive, got {value}")):
                    ModelConventions(**{name: value})
        with pytest.raises(ValueError):
            ModelConventions(privacy_exponent=0.7)

    def test_numeric_fields_normalized(self):
        params = make_params(N=10, M=50)
        assert isinstance(params.M, float) and isinstance(params.N, int)


# The README game where c_g kappa = 1e307 is a float but c_g kappa M^2 is not:
# the accuracy level of a crowd or a promise near M is inf, and the laws read
# exp(-inf) = 0 there, on arrays as on floats.
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestAccuracyOverflow:
    PARAMS = dict(A_L=2.0, C_L=1.0, A_S=0.5, P_S=2.0, C_S=1.0, rho=1e-152,
                  N=100, M=50.0)

    def params(self):
        return GameParams(**self.PARAMS,
                          conventions=ModelConventions(c_g=1e5))

    def test_array_laws_match_their_float_forms(self):
        params = self.params()
        levels = np.linspace(0.0, params.M, 6)
        assert accuracy_level(params, 1.0, levels, 0.0)[-1] == math.inf
        for law, args in ((accuracy_level, (1.0, levels, 0.0)),
                          (abstain_value, (1.0, levels)),
                          (learner_utility, (1.0, levels)),
                          (user_utility, (1.0, levels, levels)),
                          (privacy_level, (0.0, levels)),
                          (privacy_pressure, (levels,))):
            expected = [law(params, *(a if np.ndim(a) == 0 else float(v)
                                      for a in args)) for v in levels]
            np.testing.assert_allclose(law(params, *args), expected,
                                       rtol=1e-12, atol=1e-15,
                                       err_msg=law.__name__)

    def test_gamma_on_an_array(self):
        params = self.params()
        promises = np.linspace(0.0, params.M, 11)
        responses = gamma(params, promises)
        assert responses.tolist() == [gamma(params, float(s))
                                      for s in promises]
        assert responses[0] == params.M and responses[-1] == 0.0

    def test_cascade_simulate(self):
        for schedule in ("async", "sync"):
            trace = cascade_simulate(self.params(), 1.0, 0.01,
                                     schedule=schedule)
            assert trace.converged and trace.adoption_fraction[-1] == 1.0

    def test_pbne_solve(self):
        report = pbne_solve(self.params())
        assert report.regime is EquilibriumRegime.FULL_OBFUSCATION
        # A_L exp(-c_g kappa M^2) = A_L exp(-inf) = 0
        assert report.learner_utility_at_eq == 0.0
