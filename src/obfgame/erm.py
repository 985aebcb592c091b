"""Noisy empirical-risk-minimization laboratory.

Trains a regularized logistic classifier on synthetically generated,
doubly-perturbed data and measures the excess expected loss against a
clean-data reference, to validate that the excess scales linearly in the
injected variance aggregate with a 1/N slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateRegressionError

__all__ = [
    "Dataset",
    "GeneratorSpec",
    "PerturbationSpec",
    "ErmConfig",
    "Classifier",
    "FitResult",
    "ExcessRisk",
    "ScalingLevel",
    "ScalingReport",
    "generate_synthetic",
    "perturb_dataset",
    "erm_fit",
    "reference_classifier",
    "excess_risk",
    "scaling_experiment",
]


@dataclass
class Dataset:
    """Labeled feature vectors: features (n, d), labels in {-1, +1}."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be 1-D with one entry per row")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must take values in {-1, +1}")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class GeneratorSpec:
    """Gaussian class-conditional generator: features N(y * mu, I) with
    mu = (separation, 0, ..., 0)."""

    d: int
    separation: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if not (math.isfinite(self.separation) and self.separation >= 0):
            raise ValueError(f"separation must be finite and non-negative, "
                             f"got {self.separation!r}")


@dataclass
class PerturbationSpec:
    """Per-user noise stds plus the learner's shared std."""

    sigma_L: float
    sigma_S_per_user: np.ndarray
    rng_seed: int

    def __post_init__(self):
        self.sigma_S_per_user = np.asarray(self.sigma_S_per_user, dtype=float)
        if self.sigma_L < 0 or np.any(self.sigma_S_per_user < 0):
            raise ValueError("noise stds must be non-negative")


@dataclass(frozen=True)
class ErmConfig:
    rho: float
    max_iters: int = 2000
    grad_tolerance: float = 1e-8

    def __post_init__(self):
        for name in ("rho", "grad_tolerance"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"{name} must be finite and positive, got {value}")


@dataclass
class Classifier:
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")


@dataclass
class FitResult:
    classifier: Classifier
    converged: bool
    iterations: int
    grad_norm: float
    objectives: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class ExcessRisk:
    estimate: float
    std_error: float
    n_eval: int


@dataclass(frozen=True)
class ScalingLevel:
    index: int
    v: float
    mean_excess_risk: float
    std_error: float
    replications: int
    unconverged: int  # fits of this level that stopped at max_iters


@dataclass(frozen=True)
class ScalingReport:
    levels: tuple[ScalingLevel, ...]
    slope: float
    intercept: float
    r_squared: float
    rank_correlation: float
    n_records: int
    unconverged: int  # unconverged fits over all levels plus the reference


def _task_seed(base: int, *index: int) -> int:
    """Stable per-task seed from the base seed and a task index."""
    return int(np.random.SeedSequence((base, *index)).generate_state(1)[0])


def generate_synthetic(n: int, d: int, separation: float,
                       rng_seed: int) -> Dataset:
    """Draw n labeled points: labels uniform on {-1, +1}, features Gaussian
    with mean y * (separation, 0, ..., 0) and identity covariance."""
    if n < 2:
        raise ValueError("n must be >= 2")
    spec = GeneratorSpec(d, separation)
    rng = np.random.default_rng(rng_seed)
    labels = rng.choice((-1.0, 1.0), size=n)
    features = rng.standard_normal((n, d))
    features[:, 0] += labels * spec.separation
    return Dataset(features, labels)


def perturb_dataset(data: Dataset, spec: PerturbationSpec) -> Dataset:
    """Add per-coordinate Gaussian noise: each row i gets user noise with std
    sigma_S_per_user[i], then every row gets learner noise with std sigma_L.
    Labels are unchanged."""
    if spec.sigma_S_per_user.shape != (data.n,):
        raise ValueError("sigma_S_per_user must have one entry per record")
    rng = np.random.default_rng(spec.rng_seed)
    user_noise = rng.standard_normal(data.features.shape)
    learner_noise = rng.standard_normal(data.features.shape)
    features = (data.features
                + user_noise * spec.sigma_S_per_user[:, None]
                + learner_noise * spec.sigma_L)
    return Dataset(features, data.labels.copy())


# Armijo sufficient-decrease fraction and the most step halvings tried.
_ARMIJO = 1e-4
_MAX_HALVINGS = 60


def _loss_change(step: float, q: np.ndarray, margins: np.ndarray,
                 s: np.ndarray) -> np.ndarray:
    """Per-record change of the logistic loss when the margins move from m to
    m - step * q, with s = sigmoid(-m).

    log1p(s * expm1(step * q)) is the change itself, exact to rounding even
    when it is far below the loss; it is used where |step * q| <= 1, which
    keeps expm1 finite and its log1p argument above -1 + 1/e.  Larger moves
    take the difference of the two losses."""
    a = step * q
    near = np.abs(a) <= 1.0
    change = np.log1p(s * np.expm1(np.where(near, a, 0.0)))
    if not near.all():
        far = ~near
        change[far] = (np.logaddexp(0.0, a[far] - margins[far])
                       - np.logaddexp(0.0, -margins[far]))
    return change


def erm_fit(data: Dataset, config: ErmConfig) -> FitResult:
    """Minimize rho/2 ||f||^2 + mean logistic loss by damped Newton.

    Each iteration computes the gradient and the d x d Hessian
    X' diag(sigma(m) sigma(-m)) X / n + rho I from one pass over the margins
    m and solves for the Newton step p.  The step length t (1, 1/2, 1/4, ...)
    is the first whose decrease passes the Armijo test, and the decrease is
    computed exactly: mean(log1p(s expm1(t q))) + rho/2 (t^2 ||p||^2 -
    2 t w.p) with q = y (X p) and s = sigma(-m), not as the difference of two
    objective values, which stalls at the rounding floor near the optimum.
    ``objectives`` starts at the objective at w = 0 (ln 2) and adds the
    accepted decreases, so it never increases.  When no step length passes
    (only possible at the rounding floor) the iterate stays put.

    The objective is strictly convex, so the minimizer is unique; iteration
    stops at grad_tolerance or max_iters (the latter sets converged=False).
    """
    X, y = data.features, data.labels
    n, d = X.shape
    rho = config.rho
    w = np.zeros(d)
    fval = math.log(2.0)
    objectives = [fval]
    iterations = 0
    while True:
        margins = y * (X @ w)
        s = np.exp(-np.logaddexp(0.0, margins))  # sigmoid(-m), stably
        grad = rho * w - X.T @ (y * s) / n
        grad_norm = float(np.sqrt(grad @ grad))
        if (grad_norm <= config.grad_tolerance
                or iterations == config.max_iters):
            break
        iterations += 1
        hessian = (X.T * (s * (1.0 - s))) @ X / n + rho * np.eye(d)
        p = np.linalg.solve(hessian, grad)
        q = y * (X @ p)
        slope, pp, wp = float(grad @ p), float(p @ p), float(w @ p)
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            decrease = (float(np.mean(_loss_change(step, q, margins, s)))
                        + 0.5 * rho * (step * step * pp - 2.0 * step * wp))
            if decrease <= -_ARMIJO * step * slope:
                w = w - step * p
                fval += decrease
                break
            step *= 0.5
        objectives.append(fval)
    converged = grad_norm <= config.grad_tolerance
    return FitResult(Classifier(w), converged, iterations, grad_norm, objectives)


def reference_classifier(gen: GeneratorSpec, config: ErmConfig,
                         n_ref: int = 100_000, rng_seed: int = 0) -> FitResult:
    """Approximate the population-optimal classifier by fitting one large
    clean sample from the generator; the fit carries its convergence."""
    data = generate_synthetic(n_ref, gen.d, gen.separation, rng_seed)
    return erm_fit(data, config)


def excess_risk(f_d: Classifier, f_star: Classifier, config: ErmConfig,
                gen: GeneratorSpec, n_eval: int, rng_seed: int) -> ExcessRisk:
    """Paired Monte-Carlo estimate of the clean expected regularized loss gap
    between f_d and f_star, with the paired-sample standard error."""
    if n_eval < 1000:
        raise ValueError("n_eval must be >= 1000")
    data = generate_synthetic(n_eval, gen.d, gen.separation, rng_seed)
    X, y = data.features, data.labels
    loss_d = np.logaddexp(0.0, -y * (X @ f_d.weights))
    loss_s = np.logaddexp(0.0, -y * (X @ f_star.weights))
    diffs = loss_d - loss_s
    reg_gap = 0.5 * config.rho * (float(f_d.weights @ f_d.weights)
                                  - float(f_star.weights @ f_star.weights))
    estimate = reg_gap + float(diffs.mean())
    std_error = float(diffs.std(ddof=1) / math.sqrt(n_eval))
    return ExcessRisk(estimate, std_error, n_eval)


def _per_user_stds(v: float, n_records: int,
                   carriers: int | None) -> np.ndarray:
    """Per-user stds carrying the aggregate v on the other users' noise: the
    variance mass v n spread evenly over the other n - 1 records
    (carriers=None) or over the first ``carriers`` of them.  The tracked user
    (row 0) adds no noise, so v = sum(stds^2) / n under either layout."""
    if carriers is None:
        carriers = n_records - 1
    elif not 1 <= carriers <= n_records - 1:
        raise ValueError("carriers must lie in [1, n_records - 1]")
    stds = np.zeros(n_records)
    stds[1:carriers + 1] = math.sqrt(v * n_records / carriers)
    return stds


def _rank(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    ranks[order] = np.arange(len(values), dtype=float)
    return ranks


def scaling_experiment(gen: GeneratorSpec, n_records: int, config: ErmConfig,
                       aggregates: Sequence[float],
                       replications: int, rng_seed: int,
                       n_eval: int = 8000, n_ref: int = 100_000,
                       carriers: int | None = None) -> ScalingReport:
    """Measure mean excess risk per variance aggregate v and regress it on v.

    Each level carries its v on the other users' noise (see
    ``_per_user_stds``); the learner and the tracked user add none.

    Every (level, replication) task draws its own training data, noise, and
    evaluation sample from seeds derived independently of the other tasks.
    Reports the least-squares slope and intercept, the coefficient of
    determination, the rank correlation between v and the level means, and
    how many fits (the reference fit included) stopped unconverged.
    """
    if n_records < 2:
        raise ValueError("n_records must be >= 2")
    if len(aggregates) < 4:
        raise ValueError("at least 4 noise levels are required")
    if replications < 10:
        raise ValueError("replications must be >= 10")
    v_values = np.array(aggregates, dtype=float)
    for v in v_values.tolist():
        if not (math.isfinite(v) and v >= 0):
            raise ValueError(f"variance aggregate {v!r} must be finite and "
                             "non-negative")
    if np.ptp(v_values) == 0.0:
        raise DegenerateRegressionError(
            "all noise levels share the same variance aggregate")

    reference = reference_classifier(gen, config, n_ref,
                                     _task_seed(rng_seed, 0))
    f_star = reference.classifier
    levels = []
    for li, v in enumerate(v_values.tolist()):
        stds = _per_user_stds(v, n_records, carriers)
        estimates = np.empty(replications)
        unconverged = 0
        for rep in range(replications):
            data = generate_synthetic(n_records, gen.d, gen.separation,
                                      _task_seed(rng_seed, 1, li, rep))
            noisy = perturb_dataset(data, PerturbationSpec(
                0.0, stds, _task_seed(rng_seed, 2, li, rep)))
            fit = erm_fit(noisy, config)
            unconverged += not fit.converged
            estimates[rep] = excess_risk(
                fit.classifier, f_star, config, gen, n_eval,
                _task_seed(rng_seed, 3, li, rep)).estimate
        levels.append(ScalingLevel(
            index=li,
            v=v,
            mean_excess_risk=float(estimates.mean()),
            std_error=float(estimates.std(ddof=1) / math.sqrt(replications)),
            replications=replications,
            unconverged=unconverged,
        ))

    means = np.array([lv.mean_excess_risk for lv in levels])
    design = np.vstack([v_values, np.ones_like(v_values)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, means, rcond=None)
    residuals = means - design @ (slope, intercept)
    total = float(np.sum((means - means.mean())**2))
    r_squared = 1.0 - float(np.sum(residuals**2)) / total if total > 0 else 0.0
    # ranks are distinct integers, so the Spearman formula is exact and a
    # perfectly co-monotone grid yields exactly +1
    diff = _rank(v_values) - _rank(means)
    n_lv = len(means)
    rank_correlation = 1.0 - 6.0 * float(diff @ diff) / (n_lv * (n_lv**2 - 1))
    total_unconverged = (sum(lv.unconverged for lv in levels)
                         + (not reference.converged))
    return ScalingReport(tuple(levels), float(slope), float(intercept),
                         r_squared, rank_correlation, n_records,
                         total_unconverged)
