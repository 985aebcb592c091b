"""Closed-form core of the obfuscation game.

Holds the game constants and the accuracy / privacy / utility functions that
every solver consumes.  All operations are pure functions of their arguments.

Model conventions: a learner promises perturbation with standard deviation
sigma_L, every user i chooses a standard deviation sigma_S in [0, M], and the
average deviation of the *other* users is sigma_bar_other.  Excess training
loss grows linearly in the weighted sum of those variances, scaled by
kappa = 1/(rho^2 N); privacy leakage decays as an inverse power of the
combined variance that protects one record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "ModelConventions",
    "GameParams",
    "NoiseProfile",
    "kappa",
    "accuracy_level",
    "privacy_level",
    "user_utility",
    "learner_utility",
    "privacy_pressure",
    "abstain_value",
]


@dataclass(frozen=True)
class ModelConventions:
    """Constants pinning down proportionalities the model leaves free.

    c_g scales the accuracy level, c_p the privacy level.  privacy_exponent
    is the exponent applied to the combined noise variance in the privacy
    level: 1.0 (default) makes the closed-form promise threshold exact, 0.5
    reproduces the literal inverse-square-root scaling of Gaussian-mechanism
    calibration.  infinity_sentinel represents the unbounded privacy level at
    zero total noise; exp(-sentinel) must evaluate to 0.
    """

    c_g: float = 1.0
    c_p: float = 1.0
    privacy_exponent: float = 1.0
    infinity_sentinel: float = math.inf

    def __post_init__(self):
        if not self.c_g > 0:
            raise ValueError("c_g must be positive")
        if not self.c_p > 0:
            raise ValueError("c_p must be positive")
        if self.privacy_exponent not in (0.5, 1.0):
            raise ValueError("privacy_exponent must be 0.5 or 1.0")
        if not self.infinity_sentinel > 0:
            raise ValueError("infinity_sentinel must be positive")


@dataclass(frozen=True)
class GameParams:
    """All scalar constants of the bi-level game.

    A_L / A_S: maximum accuracy benefit to the learner / to each user.
    C_L / C_S: flat perturbation cost of the learner / of each user.
    P_S: maximum privacy loss a user can suffer.
    rho: regularization constant of the learner's training objective.
    N: number of users.
    M: largest admissible perturbation standard deviation.
    """

    A_L: float
    C_L: float
    A_S: float
    P_S: float
    C_S: float
    rho: float
    N: int
    M: float
    conventions: ModelConventions = field(default_factory=ModelConventions)

    def __post_init__(self):
        for name in ("A_L", "C_L", "A_S", "P_S", "C_S", "rho", "M"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("A_L", "A_S", "P_S", "rho", "M"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        for name in ("C_L", "C_S"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if isinstance(self.N, bool) or (
                isinstance(self.N, float) and not self.N.is_integer()):
            raise ValueError("N must be an integer >= 1")
        if self.N < 1:
            raise ValueError("N must be an integer >= 1")
        for name in ("A_L", "C_L", "A_S", "P_S", "C_S", "rho", "M"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "N", int(self.N))


@dataclass(frozen=True)
class NoiseProfile:
    """One evaluation point of the noise landscape.

    sigma_L: learner noise std; sigma_bar_other: root-mean deviation of the
    other users; sigma_S: own deviation.
    """

    sigma_L: float
    sigma_bar_other: float
    sigma_S: float

    def __post_init__(self):
        for name in ("sigma_L", "sigma_bar_other", "sigma_S"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
            object.__setattr__(self, name, float(getattr(self, name)))


def _check_sigma(params: GameParams, **sigmas: float) -> None:
    for name, value in sigmas.items():
        if not 0 <= value <= params.M:
            raise ValueError(f"{name}={value} outside [0, M={params.M}]")


def kappa(params: GameParams) -> float:
    """Accuracy-sensitivity scale 1/(rho^2 N)."""
    return 1.0 / (params.rho**2 * params.N)


def accuracy_level(params: GameParams, noise: NoiseProfile) -> float:
    """Excess expected training loss caused by the given noise profile.

    Equals c_g * kappa * (sigma_L^2 + ((N-1)/N) sigma_bar_other^2
    + (1/N) sigma_S^2); zero at zero noise.
    """
    _check_sigma(params, sigma_L=noise.sigma_L,
                 sigma_bar_other=noise.sigma_bar_other, sigma_S=noise.sigma_S)
    n = params.N
    weighted = (noise.sigma_L**2
                + ((n - 1) / n) * noise.sigma_bar_other**2
                + noise.sigma_S**2 / n)
    return params.conventions.c_g * kappa(params) * weighted


def privacy_level(params: GameParams, sigma_L: float, sigma_S: float) -> float:
    """Differential-privacy leakage bound from the noise protecting one record.

    c_p * (sigma_L^2 + sigma_S^2) ** -privacy_exponent; the infinity sentinel
    at zero total noise (no randomness, unbounded leakage).
    """
    _check_sigma(params, sigma_L=sigma_L, sigma_S=sigma_S)
    total = sigma_L**2 + sigma_S**2
    cv = params.conventions
    if total == 0:
        return cv.infinity_sentinel
    return cv.c_p * total**-cv.privacy_exponent


def user_utility(params: GameParams, noise: NoiseProfile) -> float:
    """One user's payoff: accuracy benefit minus privacy loss minus flat
    obfuscation cost (incurred only for sigma_S > 0)."""
    eps_g = accuracy_level(params, noise)
    eps_p = privacy_level(params, noise.sigma_L, noise.sigma_S)
    cost = params.C_S if noise.sigma_S > 0 else 0.0
    return (params.A_S * math.exp(-eps_g)
            - params.P_S * (1.0 - math.exp(-eps_p))
            - cost)


def learner_utility(params: GameParams, sigma_L: float, sigma_bar: float) -> float:
    """Learner payoff when all users perturb at sigma_bar: accuracy benefit
    minus the flat promise cost (incurred only for sigma_L > 0)."""
    eps_g = accuracy_level(
        params, NoiseProfile(sigma_L, sigma_bar, sigma_bar))
    cost = params.C_L if sigma_L > 0 else 0.0
    return params.A_L * math.exp(-eps_g) - cost


def privacy_pressure(params: GameParams, sigma_L: float) -> float:
    """Privacy loss P_S(1 - exp(-eps_p(sigma_L, 0))) a user suffers when
    relying on the learner's promise alone.  Equals P_S at sigma_L = 0 and
    decreases strictly to 0 as the promise grows."""
    eps_p = privacy_level(params, sigma_L, 0.0)
    return params.P_S * (1.0 - math.exp(-eps_p))


def abstain_value(params: GameParams, sigma_L: float, sigma_bar_other: float) -> float:
    """Value of not obfuscating: retained accuracy benefit plus the avoided
    flat cost, A_S exp(-eps_g(sigma_L, sigma_bar_other, 0)) + C_S."""
    eps_g = accuracy_level(
        params, NoiseProfile(sigma_L, sigma_bar_other, 0.0))
    return params.A_S * math.exp(-eps_g) + params.C_S
