"""Semantic exceptions and the refusal rules shared across the package."""

from __future__ import annotations

import math
import numbers

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


def _check_count(name: str, value, least: int) -> None:
    """Refuse a count or seed that is not an integer (Python's or numpy's,
    not a bool) or that is below ``least``, before it sizes or seeds."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


def _check_positive(name: str, value, zero: bool = False) -> None:
    """Refuse a value that is no real number (Python's or numpy's, not a
    bool), or not finite and positive (non-negative where ``zero``)."""
    # a float skips the ABC test: slow, and GameParams would run it 7 times
    if type(value) is not float and (isinstance(value, bool)
                                     or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not (finite and (value >= 0 if zero else value > 0)):
        bound = "non-negative" if zero else "positive"
        raise ValueError(f"{name} must be finite and {bound}, got {value}")
