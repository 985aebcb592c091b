"""Semantic exceptions shared across the package."""

from __future__ import annotations

__all__ = [
    "ObfGameError",
    "ConfigError",
    "UndefinedThresholdError",
    "InfeasiblePromiseError",
    "NoCrossingError",
    "InconsistencyError",
    "InfiniteLeakageError",
    "DegenerateRegressionError",
]


class ObfGameError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ObfGameError, ValueError):
    """Malformed or incomplete run configuration (CLI exit 2): a ValueError."""


class UndefinedThresholdError(ObfGameError):
    """The deterrence threshold is undefined because users are never deterred
    (privacy loss does not exceed the obfuscation cost)."""


class InfeasiblePromiseError(ObfGameError, ValueError):
    """The closed-form promise tau_hat exceeds the noise cap M, so the
    privacy-promise row cannot be realized.  A ValueError, so that the CLI
    treats it as a config error outside sweeps."""

    def __init__(self, message: str, tau_hat: float):
        super().__init__(message)
        self.tau_hat = tau_hat


class NoCrossingError(ObfGameError):
    """Pressure minus abstain-value has no real root on (0, M].

    ``dominant`` names the side that dominates throughout: "pressure" when
    users always prefer obfuscating, "abstain" when they never do.
    """

    def __init__(self, message: str, dominant: str):
        super().__init__(message)
        self.dominant = dominant


class InconsistencyError(ObfGameError):
    """The closed-form promise fails its certificate: it does not deter, or
    the exact sup of the induced leader utility beats it beyond the closed
    form's stated bound.  Carries the promise and the exact optimum, so that
    callers can diagnose convention mismatches with the threshold formulas."""

    def __init__(self, message: str, closed_form: tuple[float, float],
                 exact: tuple[float, float]):
        super().__init__(message)
        self.closed_form = closed_form  # (sigma_L, utility)
        self.exact = exact              # exact optimum (sigma_L, utility)


class InfiniteLeakageError(ObfGameError, ValueError):
    """A differential-privacy level was requested for zero total noise.  A
    ValueError, so that the CLI treats it as a config error."""


class DegenerateRegressionError(ObfGameError, ValueError):
    """The scaling regression has no spread in its explanatory variable.  A
    ValueError, so that the CLI treats it as a config error."""
