"""Noisy empirical-risk-minimization laboratory.

Trains a regularized logistic classifier on synthetically generated,
doubly-perturbed data and measures the excess expected loss against a
clean-data reference, to validate that the excess scales linearly in the
injected variance aggregate with a 1/N slope.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateRegressionError, _check_count, _check_positive

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
        if not (np.abs(self.labels) == 1.0).all():
            raise ValueError("labels must take values in {-1, +1}")

    @property
    def n(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class GeneratorSpec:
    """Gaussian class-conditional generator: features N(y * mu, I) with
    mu = (separation, 0, ..., 0)."""

    d: int
    separation: float

    def __post_init__(self):
        _check_count("d", self.d, 1)
        _check_positive("separation", self.separation, zero=True)


@dataclass
class PerturbationSpec:
    """Per-user noise stds plus the learner's shared std."""

    sigma_L: float
    sigma_S_per_user: np.ndarray
    rng_seed: int

    def __post_init__(self):
        _check_count("rng_seed", self.rng_seed, 0)
        _check_positive("sigma_L", self.sigma_L, zero=True)
        stds = self.sigma_S_per_user = np.asarray(self.sigma_S_per_user,
                                                  dtype=float)
        for i in np.flatnonzero(~(np.isfinite(stds) & (stds >= 0)))[:1]:
            _check_positive(f"sigma_S_per_user[{i}]", stds[i], zero=True)


@dataclass(frozen=True)
class ErmConfig:
    rho: float
    max_iters: int = 2000
    grad_tolerance: float = 1e-8

    def __post_init__(self):
        _check_count("max_iters", self.max_iters, 0)
        _check_positive("rho", self.rho)
        _check_positive("grad_tolerance", self.grad_tolerance)


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
    _check_count("n", n, 2)
    _check_count("rng_seed", rng_seed, 0)
    spec = GeneratorSpec(d, separation)
    rng = np.random.default_rng(rng_seed)
    labels = rng.integers(0, 2, size=n) * 2.0 - 1.0  # choice((-1, 1))'s draw
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
    features = data.features + (rng.standard_normal(data.features.shape)
                                * spec.sigma_S_per_user[:, None])
    if spec.sigma_L:  # drawn last, so that skipping it moves no other draw
        features += rng.standard_normal(data.features.shape) * spec.sigma_L
    return Dataset(features, data.labels.copy())


# Armijo sufficient-decrease fraction and the most step halvings tried.
_ARMIJO = 1e-4
_MAX_HALVINGS = 60
# Records per block of the Hessian's weighted product: a block stays in
# cache, where the product of all 100,000 reference records went to memory.
_BLOCK = 4096


def _softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + exp(z)) as max(z, 0) + log1p(exp(-|z|)): it never overflows."""
    out = np.abs(z)
    np.exp(np.negative(out, out=out), out=out)
    np.log1p(out, out=out)
    out += np.maximum(z, 0.0)
    return out


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
        change[far] = (_softplus(a[far] - margins[far])
                       - _softplus(-margins[far]))
    return change


def _newton(X: np.ndarray, y: np.ndarray,
            config: ErmConfig) -> list[FitResult]:
    """Minimize rho/2 ||f||^2 + mean logistic loss by damped Newton for each
    problem of a stack: features X (B, n, d), labels y (B, n).

    The Newton step p solves the Hessian X' diag(sigma(m) sigma(-m)) X / n +
    rho I (summed over blocks of _BLOCK records) against the gradient at the
    margins m.  The step length t (1, 1/2, ...) is the first whose exact
    decrease (``_loss_change`` plus rho/2 (t^2 ||p||^2 - 2 t w.p); a
    difference of objectives stalls at the rounding floor) passes the Armijo
    test; where none does, the iterate stays put.
    ``objectives`` starts at ln 2 (w = 0) and adds the accepted decreases, so
    it never increases.  A fit stops at grad_tolerance or max_iters
    (converged=False) and leaves the stack, copied only when it shrinks.
    """
    B, n, d = X.shape
    rho, tol = config.rho, config.grad_tolerance
    w, fval = np.zeros((B, d)), np.full(B, math.log(2.0))
    fits, objectives = [None] * B, [[math.log(2.0)] for _ in range(B)]
    active = np.arange(B)  # the fits still iterating: the rows of X and y
    for iteration in itertools.count():
        margins = y * (X @ w[active][..., None])[..., 0]
        s = np.exp(-_softplus(margins))  # sigmoid(-m), stably
        grad = rho * w[active] - ((y * s)[:, None] @ X)[:, 0] / n
        norm = np.sqrt((grad * grad).sum(axis=1))
        stop = (norm <= tol) | (iteration == config.max_iters)
        for k, j in zip(np.flatnonzero(stop).tolist(), active[stop].tolist()):
            fits[j] = FitResult(Classifier(w[j]), bool(norm[k] <= tol),
                                iteration, float(norm[k]), objectives[j])
        if stop.all():
            return fits
        if stop.any():
            keep = ~stop
            active, X, y = active[keep], X[keep], y[keep]
            margins, s, grad = margins[keep], s[keep], grad[keep]
        h = (s * (1.0 - s))[..., None]
        hessian = sum(X[:, i:i + _BLOCK].transpose(0, 2, 1)
                      @ (X[:, i:i + _BLOCK] * h[:, i:i + _BLOCK])
                      for i in range(0, n, _BLOCK)) / n + rho * np.eye(d)
        p = np.linalg.solve(hessian, grad[..., None])[..., 0]
        q = y * (X @ p[..., None])[..., 0]
        slope, pp, wp = (np.stack([grad, p, w[active]]) * p).sum(axis=2)
        step, rows = 1.0, slice(None)  # the fits still searching
        for _ in range(_MAX_HALVINGS):
            decrease = (_loss_change(step, q[rows], margins[rows], s[rows])
                        .mean(axis=1) + 0.5 * rho * (step * step * pp[rows]
                                                     - 2.0 * step * wp[rows]))
            passed = decrease <= -_ARMIJO * step * slope[rows]
            moved = active[rows][passed]
            w[moved] -= step * p[rows][passed]
            fval[moved] += decrease[passed]
            rows = np.arange(len(active))[rows][~passed]
            if not rows.size:
                break
            step *= 0.5
        for j, f in zip(active.tolist(), fval[active].tolist()):
            objectives[j].append(f)


def erm_fit(data: Dataset, config: ErmConfig) -> FitResult:
    """Minimize rho/2 ||f||^2 + mean logistic loss (``_newton``, one fit)."""
    return _newton(data.features[None], data.labels[None], config)[0]


def reference_classifier(gen: GeneratorSpec, config: ErmConfig,
                         n_ref: int = 100_000, rng_seed: int = 0) -> FitResult:
    """Approximate the population-optimal classifier by fitting one large
    clean sample from the generator; the fit carries its convergence."""
    _check_count("n_ref", n_ref, 2)
    data = generate_synthetic(n_ref, gen.d, gen.separation, rng_seed)
    return erm_fit(data, config)


def _paired_gap(f_d: Classifier, f_star: Classifier, config: ErmConfig,
                gen: GeneratorSpec, n_eval: int,
                rng_seed: int) -> tuple[float, np.ndarray]:
    """``excess_risk``'s estimate and the record-wise loss gaps it averages."""
    data = generate_synthetic(n_eval, gen.d, gen.separation, rng_seed)
    margins = np.array([f_d.weights, f_star.weights]) @ data.features.T
    margins *= -data.labels  # one contiguous row per classifier
    diffs = np.subtract(*_softplus(margins))
    reg_gap = 0.5 * config.rho * (float(f_d.weights @ f_d.weights)
                                  - float(f_star.weights @ f_star.weights))
    return reg_gap + float(diffs.mean()), diffs


def excess_risk(f_d: Classifier, f_star: Classifier, config: ErmConfig,
                gen: GeneratorSpec, n_eval: int, rng_seed: int) -> ExcessRisk:
    """Paired Monte-Carlo estimate of the clean expected regularized loss gap
    between f_d and f_star, with the paired-sample standard error."""
    _check_count("n_eval", n_eval, 1000)
    estimate, diffs = _paired_gap(f_d, f_star, config, gen, n_eval, rng_seed)
    return ExcessRisk(estimate, float(diffs.std(ddof=1) / math.sqrt(n_eval)),
                      n_eval)


def _per_user_stds(v: float, n_records: int,
                   carriers: int | None) -> np.ndarray:
    """Per-user stds carrying the aggregate v on the other users' noise: the
    variance mass v n spread evenly over the other n - 1 records
    (carriers=None) or over the first ``carriers`` of them.  The tracked user
    (row 0) adds no noise, so v = sum(stds^2) / n under either layout."""
    carriers = n_records - 1 if carriers is None else carriers
    _check_count("carriers", carriers, 1)
    if carriers > n_records - 1:
        raise ValueError("carriers must lie in [1, n_records - 1]")
    stds = np.zeros(n_records)
    stds[1:carriers + 1] = math.sqrt(v * n_records / carriers)
    return stds


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
    for name, value, least in (("n_records", n_records, 2),
                               ("replications", replications, 10),
                               ("n_eval", n_eval, 1000), ("n_ref", n_ref, 2),
                               ("rng_seed", rng_seed, 0)):
        _check_count(name, value, least)
    if len(aggregates) < 4:
        raise ValueError("at least 4 noise levels are required")
    for i, v in enumerate(aggregates):
        _check_positive(f"aggregates[{i}]", v, zero=True)
    v_values = np.array(aggregates, dtype=float)
    if np.ptp(v_values) == 0.0:
        raise DegenerateRegressionError(
            "all noise levels share the same variance aggregate")

    stds = [_per_user_stds(v, n_records, carriers) for v in v_values.tolist()]
    reference = reference_classifier(gen, config, n_ref,
                                     _task_seed(rng_seed, 0))
    features = np.empty((replications, n_records, gen.d))
    labels = np.empty((replications, n_records))
    levels = []
    for li, (v, level_stds) in enumerate(zip(v_values.tolist(), stds)):
        for rep in range(replications):
            data = generate_synthetic(n_records, gen.d, gen.separation,
                                      _task_seed(rng_seed, 1, li, rep))
            noisy = perturb_dataset(data, PerturbationSpec(
                0.0, level_stds, _task_seed(rng_seed, 2, li, rep)))
            features[rep], labels[rep] = noisy.features, noisy.labels
        fits = _newton(features, labels, config)
        estimates = np.array([_paired_gap(
            fit.classifier, reference.classifier, config, gen, n_eval,
            _task_seed(rng_seed, 3, li, rep))[0]
            for rep, fit in enumerate(fits)])
        levels.append(ScalingLevel(
            li, v, float(estimates.mean()),
            float(estimates.std(ddof=1) / math.sqrt(replications)),
            replications, sum(not fit.converged for fit in fits)))

    means = np.array([lv.mean_excess_risk for lv in levels])
    design = np.vstack([v_values, np.ones_like(v_values)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, means, rcond=None)
    residuals = means - design @ (slope, intercept)
    total = float(np.sum((means - means.mean())**2))
    r_squared = 1.0 - float(np.sum(residuals**2)) / total if total > 0 else 0.0
    # ranks are distinct integers, so the Spearman formula is exact and a
    # perfectly co-monotone grid yields exactly +1
    ranks = np.argsort(np.argsort([v_values, means], kind="stable"))
    diff = ranks[0] - ranks[1]
    n_lv = len(means)
    rank_correlation = 1.0 - 6.0 * float(diff @ diff) / (n_lv * (n_lv**2 - 1))
    return ScalingReport(tuple(levels), float(slope), float(intercept),
                         r_squared, rank_correlation, n_records,
                         sum(lv.unconverged for lv in levels)
                         + (not reference.converged))
