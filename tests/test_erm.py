import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obfgame import (
    Classifier,
    Dataset,
    DegenerateRegressionError,
    ErmConfig,
    GeneratorSpec,
    PerturbationSpec,
    erm_fit,
    excess_risk,
    generate_synthetic,
    perturb_dataset,
    reference_classifier,
    scaling_experiment,
)
from obfgame import erm
from obfgame.erm import _newton, _per_user_stds, _softplus, _task_seed


class TestGenerateSynthetic:
    @pytest.mark.parametrize("d", [2.5, 2.0, True, np.True_],
                             ids=["2.5", "2.0", "True", "np.True_"])
    def test_generator_refuses_a_dimension_that_is_no_int(self, d):
        with pytest.raises(ValueError, match=re.escape(
                f"d must be an integer, got {d!r}")):
            GeneratorSpec(d, 1.0)

    def test_no_signal_means_tiny_optimum(self):
        data = generate_synthetic(2000, 3, 0.0, rng_seed=42)
        fit = erm_fit(data, ErmConfig(rho=0.1))
        assert fit.converged
        assert np.linalg.norm(fit.classifier.weights) <= 0.1

    def test_label_balance(self):
        data = generate_synthetic(1000, 5, 2.0, rng_seed=7)
        assert abs(float(np.mean(data.labels > 0)) - 0.5) <= 0.05

    @pytest.mark.parametrize("n, d, separation, seed", [
        (2, 1, 0.0, 0), (3, 4, 1.0, 9), (500, 5, 1.0, 7),
        (8000, 5, 1.5, 2**32 - 1),
    ])
    def test_draws_the_labels_of_choice(self, n, d, separation, seed):
        # the reference: choice's labels, then the features, from one stream;
        # equal features show the label draw leaves the stream where choice
        # leaves it, so every later draw is the same too
        rng = np.random.default_rng(seed)
        labels = rng.choice((-1.0, 1.0), size=n)
        features = rng.standard_normal((n, d))
        features[:, 0] += labels * separation
        data = generate_synthetic(n, d, separation, seed)
        assert np.array_equal(data.labels, labels)
        assert np.array_equal(data.features, features)

    def test_deterministic(self):
        a = generate_synthetic(100, 4, 1.0, rng_seed=9)
        b = generate_synthetic(100, 4, 1.0, rng_seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_class_means_separate(self):
        data = generate_synthetic(20000, 2, 2.0, rng_seed=1)
        pos = data.features[data.labels > 0, 0].mean()
        neg = data.features[data.labels < 0, 0].mean()
        assert pos == pytest.approx(2.0, abs=0.05)
        assert neg == pytest.approx(-2.0, abs=0.05)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            generate_synthetic(1, 2, 1.0, 0)
        with pytest.raises(ValueError):
            generate_synthetic(10, 0, 1.0, 0)

    @pytest.mark.parametrize("separation", [-1.0, math.nan, math.inf])
    def test_rejects_bad_separation(self, separation):
        with pytest.raises(ValueError, match=re.escape(f"got {separation!r}")):
            GeneratorSpec(2, separation)


class TestPerturbDataset:
    def test_zero_noise_is_identity(self):
        data = generate_synthetic(50, 3, 1.0, rng_seed=3)
        spec = PerturbationSpec(0.0, np.zeros(50), rng_seed=5)
        noisy = perturb_dataset(data, spec)
        assert np.array_equal(noisy.features, data.features)
        assert np.array_equal(noisy.labels, data.labels)

    def test_learner_noise_variance(self):
        data = generate_synthetic(10_000, 1, 1.0, rng_seed=11)
        spec = PerturbationSpec(1.0, np.zeros(10_000), rng_seed=13)
        noisy = perturb_dataset(data, spec)
        sample_var = float(np.var(noisy.features - data.features))
        assert abs(sample_var - 1.0) <= 0.05

    def test_variances_add(self):
        data = generate_synthetic(10_000, 1, 1.0, rng_seed=17)
        spec = PerturbationSpec(1.0, np.ones(10_000), rng_seed=19)
        noisy = perturb_dataset(data, spec)
        sample_var = float(np.var(noisy.features - data.features))
        assert abs(sample_var - 2.0) <= 0.1

    def test_single_and_double_perturbation_match_in_distribution(self):
        data = generate_synthetic(10_000, 1, 0.0, rng_seed=23)
        once = perturb_dataset(
            data, PerturbationSpec(0.0, np.full(10_000, math.sqrt(5.0)), 29))
        twice = perturb_dataset(
            data, PerturbationSpec(2.0, np.full(10_000, 1.0), 31))
        d_once = (once.features - data.features).ravel()
        d_twice = (twice.features - data.features).ravel()
        # moments of N(0, 5) agree within Monte-Carlo tolerance
        se_mean = math.sqrt(5.0 / 10_000)
        assert abs(d_once.mean() - d_twice.mean()) <= 8 * se_mean
        se_var = 5.0 * math.sqrt(2.0 / 10_000)
        assert abs(d_once.var() - d_twice.var()) <= 8 * se_var

    def test_labels_untouched(self):
        data = generate_synthetic(100, 2, 1.0, rng_seed=37)
        noisy = perturb_dataset(
            data, PerturbationSpec(3.0, np.ones(100), rng_seed=41))
        assert np.array_equal(noisy.labels, data.labels)

    def test_rejects_wrong_length(self):
        data = generate_synthetic(10, 2, 1.0, rng_seed=43)
        with pytest.raises(ValueError):
            perturb_dataset(data, PerturbationSpec(0.0, np.zeros(9), 0))

    @pytest.mark.parametrize("sigma_L, per_user, named", [
        (math.nan, [0.0, 1.0], "sigma_L must be finite and non-negative, "
                               "got nan"),
        (math.inf, [0.0, 1.0], "sigma_L must be finite and non-negative, "
                               "got inf"),
        (-1.0, [0.0, 1.0], "sigma_L must be finite and non-negative, "
                           "got -1.0"),
        (0.0, [0.0, math.inf], "sigma_S_per_user[1] must be finite and "
                               "non-negative, got inf"),
        (0.0, [math.nan, 1.0], "sigma_S_per_user[0] must be finite and "
                               "non-negative, got nan"),
        (0.0, [1.0, -2.0], "sigma_S_per_user[1] must be finite and "
                           "non-negative, got -2.0"),
    ])
    def test_rejects_bad_stds(self, sigma_L, per_user, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            PerturbationSpec(sigma_L, np.array(per_user), rng_seed=0)


class TestErmFit:
    def test_heavy_regularization_pins_origin(self):
        data = generate_synthetic(500, 4, 2.0, rng_seed=47)
        fit = erm_fit(data, ErmConfig(rho=1e6))
        assert np.linalg.norm(fit.classifier.weights) <= 1e-3

    def test_blocked_hessian_fits_like_one_block(self, monkeypatch):
        # the reference sums all n records at once; n spans two full blocks
        # and a partial one, and the sums differ only in rounding
        data = generate_synthetic(3 * erm._BLOCK - 7, 3, 1.0, rng_seed=11)
        config = ErmConfig(rho=0.1)
        blocked = erm_fit(data, config)
        monkeypatch.setattr(erm, "_BLOCK", data.n)
        whole = erm_fit(data, config)
        assert blocked.iterations == whole.iterations
        assert blocked.objectives == pytest.approx(whole.objectives,
                                                   rel=1e-12)
        assert np.allclose(blocked.classifier.weights,
                           whole.classifier.weights, rtol=0.0,
                           atol=2 * config.grad_tolerance / config.rho)

    def test_gradient_norm_contract(self):
        data = generate_synthetic(1000, 5, 1.0, rng_seed=53)
        config = ErmConfig(rho=0.05, grad_tolerance=1e-9)
        fit = erm_fit(data, config)
        assert fit.converged
        assert fit.grad_norm <= config.grad_tolerance

    def test_objective_decreases_monotonically(self):
        data = generate_synthetic(2000, 5, 1.5, rng_seed=59)
        fit = erm_fit(data, ErmConfig(rho=0.01))
        diffs = np.diff(fit.objectives)
        assert np.all(diffs <= 0)

    def test_non_convergence_flag(self):
        data = generate_synthetic(1000, 5, 2.0, rng_seed=61)
        fit = erm_fit(data, ErmConfig(rho=0.001, max_iters=2,
                                      grad_tolerance=1e-14))
        assert not fit.converged

    @pytest.mark.parametrize("seed, n_records, level, rep", [
        (7, 500, 3, 11),   # gradient descent stalled at max_iters
        (0, 1000, 4, 24),  # Armijo on f(cand) - f(w) stalls at the floor
    ])
    def test_known_stalls_converge(self, seed, n_records, level, rep):
        """Fits of acceptance 6's experiment (25 carriers, rho = 0.1) that
        earlier line searches left at a gradient norm of 1.14e-8."""
        v = [0.0, 0.5, 1.0, 2.0, 4.0][level]
        data = generate_synthetic(n_records, 5, 1.0,
                                  _task_seed(seed, 1, level, rep))
        noisy = perturb_dataset(data, PerturbationSpec(
            0.0, _per_user_stds(v, n_records, 25),
            _task_seed(seed, 2, level, rep)))
        config = ErmConfig(rho=0.1)
        fit = erm_fit(noisy, config)
        assert fit.converged
        assert fit.grad_norm <= config.grad_tolerance
        assert fit.iterations <= 10
        assert len(fit.objectives) == fit.iterations + 1
        assert np.all(np.diff(fit.objectives) <= 0)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(n=st.integers(2, 3000), d=st.integers(1, 8),
           separation=st.floats(0.0, 6.0),
           rho=st.floats(1e-4, 10.0),
           seed=st.integers(0, 2**32 - 1))
    def test_newton_converges_with_monotone_record(self, n, d, separation,
                                                   rho, seed):
        data = generate_synthetic(n, d, separation, rng_seed=seed)
        config = ErmConfig(rho=rho)
        fit = erm_fit(data, config)
        assert fit.converged
        assert fit.grad_norm <= config.grad_tolerance
        assert np.all(np.diff(fit.objectives) <= 0)

    def test_line_search_halves_and_converges(self, monkeypatch):
        # four records where one full Newton step fails the Armijo test:
        # that step is halved, and the fit still converges
        steps = []
        loss_change = erm._loss_change
        monkeypatch.setattr(erm, "_loss_change", lambda step, *rest: (
            steps.append(step) or loss_change(step, *rest)))
        data = Dataset([[0.702, 0.935], [-1.03, 0.129], [1.459, -4.071],
                        [0.271, -0.187]], [1, -1, 1, 1])
        fit = erm_fit(data, ErmConfig(rho=1e-4))
        assert min(steps) < 1.0
        assert fit.converged
        assert np.all(np.diff(fit.objectives) <= 0)

    def test_objective_record_matches_direct_evaluation(self):
        data = generate_synthetic(3000, 5, 2.0, rng_seed=63)
        fit = erm_fit(data, ErmConfig(rho=0.01))
        w, X, y = fit.classifier.weights, data.features, data.labels
        direct = (0.005 * float(w @ w)
                  + float(np.mean(np.logaddexp(0.0, -y * (X @ w)))))
        assert fit.objectives[0] == math.log(2.0)
        assert abs(fit.objectives[-1] - direct) <= 1e-14


class TestErmConfig:
    @pytest.mark.parametrize("max_iters", [-1, 2.5, True, "3"])
    def test_rejects_bad_max_iters(self, max_iters):
        message = ("max_iters must be >= 0" if max_iters == -1 else
                   f"max_iters must be an integer, got {max_iters!r}")
        with pytest.raises(ValueError, match=re.escape(message)):
            ErmConfig(rho=0.1, max_iters=max_iters)

    def test_zero_max_iters_stops_at_origin(self):
        data = generate_synthetic(100, 2, 1.0, rng_seed=3)
        fit = erm_fit(data, ErmConfig(rho=0.1, max_iters=0))
        assert not fit.converged
        assert fit.iterations == 0
        assert fit.objectives == [math.log(2.0)]
        assert np.array_equal(fit.classifier.weights, np.zeros(2))


class TestSoftplus:
    def test_matches_logaddexp_within_4_ulps(self):
        z = np.concatenate([np.linspace(-745.0, 745.0, 200_001),
                            np.linspace(-1.0, 1.0, 20_001)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _softplus(z)
        want = np.logaddexp(0.0, z)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))

    def test_infinities_and_nan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _softplus(np.array([np.inf, -np.inf, np.nan]))
        assert got[0] == np.inf
        assert got[1] == 0.0
        assert np.isnan(got[2])


def _stack(datasets):
    return (np.stack([data.features for data in datasets]),
            np.stack([data.labels for data in datasets]))


class TestStackedNewton:
    def _assert_each_matches_its_own_fit(self, datasets, config):
        fits = _newton(*_stack(datasets), config)
        assert len(fits) == len(datasets)
        for data, fit in zip(datasets, fits):
            alone = erm_fit(data, config)
            assert fit.iterations == alone.iterations
            assert fit.converged == alone.converged
            assert len(fit.objectives) == len(alone.objectives)
            assert len(fit.objectives) == fit.iterations + 1
            assert np.all(np.diff(fit.objectives) <= 0)
            gap = np.linalg.norm(fit.classifier.weights
                                 - alone.classifier.weights)
            assert gap <= 2 * config.grad_tolerance / config.rho
        return fits

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(n=st.integers(2, 400), d=st.integers(1, 6),
           separations=st.lists(st.floats(0.0, 6.0), min_size=1,
                                max_size=6),
           rho=st.floats(1e-3, 10.0),
           seed=st.integers(0, 2**32 - 1))
    def test_stack_fits_like_each_problem_alone(self, n, d, separations,
                                                rho, seed):
        datasets = [generate_synthetic(n, d, sep, _task_seed(seed, i))
                    for i, sep in enumerate(separations)]
        self._assert_each_matches_its_own_fit(datasets, ErmConfig(rho=rho))

    def test_active_set_shrinks_mid_run(self):
        """Fits that converge after 2, 4 and 5 steps leave the stack while
        two others run on to the cap of 6."""
        datasets = [generate_synthetic(400, 3, sep, rng_seed=5)
                    for sep in (0.0, 1.0, 6.0, 0.5, 3.0)]
        fits = self._assert_each_matches_its_own_fit(
            datasets, ErmConfig(rho=0.01, max_iters=6))
        assert [fit.iterations for fit in fits] == [2, 5, 6, 4, 6]
        assert [fit.converged for fit in fits] == [True, True, False, True,
                                                   False]


class TestReferenceClassifier:
    def test_seed_stability(self):
        gen = GeneratorSpec(5, 2.0)
        config = ErmConfig(rho=0.01, grad_tolerance=1e-9)
        f1 = reference_classifier(gen, config, n_ref=100_000,
                                  rng_seed=67).classifier
        f2 = reference_classifier(gen, config, n_ref=100_000,
                                  rng_seed=71).classifier
        rel = (np.linalg.norm(f1.weights - f2.weights)
               / np.linalg.norm(f1.weights))
        assert rel <= 0.02

    def test_signal_direction(self):
        gen = GeneratorSpec(1, 2.0)
        f = reference_classifier(gen, ErmConfig(rho=0.01), n_ref=50_000,
                                 rng_seed=73).classifier
        assert f.weights[0] > 0


class TestExcessRisk:
    def test_identical_classifiers_score_zero(self):
        f = Classifier(np.array([0.3, -0.7]))
        result = excess_risk(f, f, ErmConfig(rho=0.1), GeneratorSpec(2, 1.0),
                             n_eval=2000, rng_seed=79)
        assert result.estimate == 0.0
        assert result.std_error == 0.0

    def test_clean_fit_is_near_optimal(self):
        gen = GeneratorSpec(5, 1.0)
        config = ErmConfig(rho=0.1, grad_tolerance=1e-9)
        f_star = reference_classifier(gen, config, n_ref=100_000,
                                      rng_seed=83).classifier
        data = generate_synthetic(50_000, 5, 1.0, rng_seed=89)
        f_d = erm_fit(data, config).classifier
        result = excess_risk(f_d, f_star, config, gen, n_eval=20_000,
                             rng_seed=97)
        assert result.estimate <= 3.0 * result.std_error
        assert result.estimate >= -3.0 * result.std_error

    def test_worse_classifier_scores_positive(self):
        gen = GeneratorSpec(3, 2.0)
        config = ErmConfig(rho=0.1)
        f_star = reference_classifier(gen, config, n_ref=50_000,
                                      rng_seed=101).classifier
        off = Classifier(f_star.weights + np.array([1.0, -1.0, 0.5]))
        result = excess_risk(off, f_star, config, gen, n_eval=10_000,
                             rng_seed=103)
        assert result.estimate > 5.0 * result.std_error

    def test_row_wise_scoring_matches_the_column_form(self):
        # the reference scores both classifiers as columns of one (n, 2)
        # product; the rows sum in another order, so agreement is to rounding
        gen, config = GeneratorSpec(5, 1.0), ErmConfig(rho=0.1)
        f_d = Classifier(np.array([0.9, -0.4, 0.2, 0.0, 1.1]))
        f_star = Classifier(np.array([1.2, 0.1, -0.3, 0.05, 0.0]))
        data = generate_synthetic(8000, 5, 1.0, rng_seed=5)
        weights = np.stack([f_d.weights, f_star.weights], axis=1)
        losses = np.logaddexp(0.0, -data.labels[:, None]
                              * (data.features @ weights))
        diffs = losses[:, 0] - losses[:, 1]
        reg_gap = 0.5 * config.rho * (f_d.weights @ f_d.weights
                                      - f_star.weights @ f_star.weights)
        result = excess_risk(f_d, f_star, config, gen, 8000, rng_seed=5)
        assert result.estimate == pytest.approx(reg_gap + diffs.mean(),
                                                rel=1e-12)
        assert result.std_error == pytest.approx(
            diffs.std(ddof=1) / math.sqrt(8000), rel=1e-12)

    def test_rejects_small_eval(self):
        f = Classifier(np.zeros(2))
        with pytest.raises(ValueError):
            excess_risk(f, f, ErmConfig(rho=0.1), GeneratorSpec(2, 1.0),
                        n_eval=100, rng_seed=0)


class TestScalingExperiment:
    def test_moderate_run_shows_linear_scaling(self):
        gen = GeneratorSpec(5, 1.0)
        config = ErmConfig(rho=0.1)
        report = scaling_experiment(
            gen, 300, config, [0.0, 0.5, 1.0, 2.0, 4.0], replications=15,
            rng_seed=107, n_eval=4000, n_ref=30_000, carriers=25)
        assert report.slope > 0
        assert report.r_squared >= 0.8
        assert report.rank_correlation == 1.0
        assert len(report.levels) == 5
        assert all(lv.replications == 15 for lv in report.levels)
        assert all(lv.unconverged == 0 for lv in report.levels)
        assert report.unconverged == 0

    def test_counts_unconverged_fits(self):
        gen = GeneratorSpec(3, 1.0)
        config = ErmConfig(rho=0.1, max_iters=1)
        report = scaling_experiment(gen, 100, config, [0.0, 0.5, 1.0, 2.0],
                                    replications=10, rng_seed=5,
                                    n_eval=1000, n_ref=2000)
        assert [lv.unconverged for lv in report.levels] == [10] * 4
        assert report.unconverged == 41  # the reference fit counts too

    def test_requires_enough_levels_and_replications(self):
        gen = GeneratorSpec(3, 1.0)
        config = ErmConfig(rho=0.1)
        with pytest.raises(ValueError):
            scaling_experiment(gen, 100, config, [0.0, 1.0, 2.0],
                               replications=10, rng_seed=0)
        four = [0.0, 0.5, 1.0, 2.0]
        with pytest.raises(ValueError):
            scaling_experiment(gen, 100, config, four, replications=1,
                               rng_seed=0)

    @pytest.mark.parametrize("n_records, aggregates, message", [
        (100, [0.0, -1.0, 1.0, 2.0], "variance aggregate -1.0 "),
        (100, [0.0, math.nan, 1.0, 2.0], "variance aggregate nan "),
        (100, [0.0, 1.0, 2.0, math.inf], "variance aggregate inf "),
        (1, [0.0, 0.5, 1.0, 2.0], "n_records must be >= 2"),
    ])
    def test_rejects_bad_aggregates_and_sizes(self, n_records, aggregates,
                                              message):
        with pytest.raises(ValueError, match=re.escape(message)):
            scaling_experiment(GeneratorSpec(3, 1.0), n_records,
                               ErmConfig(rho=0.1), aggregates,
                               replications=10, rng_seed=0, n_eval=1000,
                               n_ref=2000)

    @pytest.mark.parametrize("n_eval, n_ref, message", [
        (500, 2000, "n_eval must be >= 1000"),
        (1000, 1, "n_ref must be >= 2"),
    ])
    def test_rejects_small_samples_before_fitting(self, monkeypatch, n_eval,
                                                  n_ref, message):
        def no_fit(*args):
            raise AssertionError("fitted before the sample sizes were checked")
        monkeypatch.setattr(erm, "_newton", no_fit)
        with pytest.raises(ValueError, match=re.escape(message)):
            scaling_experiment(GeneratorSpec(3, 1.0), 100, ErmConfig(rho=0.1),
                               [0.0, 0.5, 1.0, 2.0], replications=10,
                               rng_seed=0, n_eval=n_eval, n_ref=n_ref)

    # a count that is no int would size an array later, or a float reach the
    # replication loop after the 100,000-record reference fit
    @pytest.mark.parametrize("count", [
        dict(replications=10.5), dict(n_ref=2000.5), dict(n_eval=1000.0),
        dict(n_records=100.0)], ids=lambda count: next(iter(count)))
    def test_rejects_ill_typed_counts_before_drawing(self, monkeypatch,
                                                     count):
        def no_draw(*args):
            raise AssertionError("drew before the counts were checked")
        monkeypatch.setattr(erm, "_newton", no_draw)
        monkeypatch.setattr(erm, "generate_synthetic", no_draw)
        (name, value), = count.items()
        sizes = dict(n_records=100, replications=10, n_eval=1000, n_ref=2000)
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be an integer, got {value!r}")):
            scaling_experiment(GeneratorSpec(3, 1.0),
                               config=ErmConfig(rho=0.1),
                               aggregates=[0.0, 0.5, 1.0, 2.0], rng_seed=0,
                               **{**sizes, **count})

    @pytest.mark.parametrize("carriers", [0, 100])
    def test_rejects_bad_carriers_before_fitting(self, monkeypatch, carriers):
        def no_fit(*args):
            raise AssertionError("fitted before the carriers were checked")
        monkeypatch.setattr(erm, "_newton", no_fit)
        with pytest.raises(ValueError, match=re.escape(
                "carriers must be >= 1" if carriers < 1 else
                "carriers must lie in [1, n_records - 1]")):
            scaling_experiment(GeneratorSpec(3, 1.0), 100, ErmConfig(rho=0.1),
                               [0.0, 0.5, 1.0, 2.0], replications=10,
                               rng_seed=0, carriers=carriers)

    def test_degenerate_levels_rejected(self):
        gen = GeneratorSpec(3, 1.0)
        config = ErmConfig(rho=0.1)
        with pytest.raises(DegenerateRegressionError):
            scaling_experiment(gen, 100, config, [0.0, 0.0, 0.0, 0.0],
                               replications=10, rng_seed=0)

    def test_carrier_layout_preserves_aggregate(self):
        for carriers in (None, 1, 10, 99):
            stds = _per_user_stds(3.96, 100, carriers)
            assert stds[0] == 0.0
            assert float(np.mean(stds**2)) == pytest.approx(3.96, rel=1e-12)

    @pytest.mark.parametrize("label", [math.nan, math.inf, -math.inf, 0.0,
                                       2.0, -0.5])
    def test_dataset_refuses_labels_off_plus_minus_one(self, label):
        with pytest.raises(ValueError, match=re.escape(
                "labels must take values in {-1, +1}")):
            Dataset(np.zeros((3, 2)), np.array([1.0, -1.0, label]))

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.array([1.0, -1.0, 0.5]))
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.array([1.0, -1.0]))

    @pytest.mark.parametrize("features", [np.zeros(3), np.zeros((3, 2, 1))])
    def test_dataset_refuses_features_not_2d(self, features):
        with pytest.raises(ValueError, match="features must be a 2-D array"):
            Dataset(features, np.ones(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_classifier_refuses_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="weights must be finite"):
            Classifier(np.array([0.5, bad]))
