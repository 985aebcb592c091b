"""Gaussian-mechanism differential-privacy calibration.

Computes the (epsilon, delta) leakage level implied by a given total noise
standard deviation and verifies the inverse scaling of epsilon with the
combined user-plus-learner noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InfiniteLeakageError, _check_positive

__all__ = [
    "DpSpec",
    "EpsilonResult",
    "DpScalingRow",
    "DpScalingReport",
    "gaussian_epsilon",
    "scaling_check",
]


@dataclass(frozen=True)
class DpSpec:
    """Failure probability delta and per-record L2 sensitivity."""

    delta: float
    sensitivity: float = 1.0

    def __post_init__(self):
        _check_positive("delta", self.delta)
        if self.delta >= 1.0:
            raise ValueError("delta must lie in (0, 1)")
        _check_positive("sensitivity", self.sensitivity)


@dataclass(frozen=True)
class EpsilonResult:
    """Calibrated epsilon with the classical-bound validity flag (the bound
    is only meaningful for epsilon < 1)."""

    epsilon: float
    valid: bool


@dataclass(frozen=True)
class DpScalingRow:
    index: int
    sigma_L: float
    sigma_S: float
    combined_std: float
    epsilon: float
    valid: bool


@dataclass(frozen=True)
class DpScalingReport:
    """Per-pair epsilons plus the product epsilon * combined_std, which the
    calibration makes an exact constant."""

    rows: tuple[DpScalingRow, ...]
    constant: float
    max_deviation: float


def gaussian_epsilon(spec: DpSpec, total_std: float) -> EpsilonResult:
    """Classical Gaussian-mechanism calibration
    epsilon = sensitivity * sqrt(2 ln(1.25/delta)) / total_std.  Raises
    ValueError unless total_std is finite and non-negative, naming it."""
    _check_positive("total_std", total_std, zero=True)
    if total_std == 0:
        raise InfiniteLeakageError(
            "zero total noise provides no differential privacy")
    epsilon = spec.sensitivity * math.sqrt(2.0 * math.log(1.25 / spec.delta)) / total_std
    return EpsilonResult(epsilon, epsilon < 1.0)


def scaling_check(spec: DpSpec,
                  sigma_pairs: Sequence[tuple[float, float]]) -> DpScalingReport:
    """Calibrate each (sigma_L, sigma_S) pair at combined std
    sqrt(sigma_L^2 + sigma_S^2) and report how far epsilon * combined_std
    strays from its analytic constant.  Raises ValueError, naming the pair,
    on a sigma that is no finite real >= 0 or an overflowing combined std."""
    constant = gaussian_epsilon(spec, 1.0).epsilon
    rows = []
    max_dev = 0.0
    for i, (sigma_L, sigma_S) in enumerate(sigma_pairs):
        pair = f"sigma pair {i} ({sigma_L}, {sigma_S})"
        _check_positive(f"{pair}: sigma_L", sigma_L, zero=True)
        _check_positive(f"{pair}: sigma_S", sigma_S, zero=True)
        combined = math.hypot(sigma_L, sigma_S)
        _check_positive(f"{pair}: combined std", combined, zero=True)
        result = gaussian_epsilon(spec, combined)
        rows.append(DpScalingRow(i, sigma_L, sigma_S, combined,
                                 result.epsilon, result.valid))
        max_dev = max(max_dev, abs(result.epsilon * combined - constant))
    return DpScalingReport(tuple(rows), constant, max_dev)
