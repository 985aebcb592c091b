"""Closed-form core of the obfuscation game.

Holds the game constants and the accuracy / privacy / utility functions that
every solver consumes.  All operations are pure functions of their arguments.
Each law is written once, as a kernel over variances; its public function
takes each deviation as a float or an array, checks it against [0, M], and
returns a float for floats and an array otherwise.  The accuracy kernel
takes the weight c_g kappa (GameParams derives it) and an int N, not the
params, so that the sweep's column form calls it on each grid point too.

Model conventions: a learner promises perturbation with standard deviation
sigma_L, every user i chooses a standard deviation sigma_S in [0, M], and the
average deviation of the *other* users is sigma_bar_other.  Excess training
loss grows linearly in the weighted sum of those variances, scaled by
kappa = 1/(rho^2 N); privacy leakage decays as an inverse power of the
combined variance that protects one record.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import _check_positive

__all__ = [
    "ModelConventions",
    "GameParams",
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
    calibration.
    """

    c_g: float = 1.0
    c_p: float = 1.0
    privacy_exponent: float = 1.0

    def __post_init__(self):
        for name in ("c_g", "c_p", "privacy_exponent"):
            _check_positive(name, getattr(self, name))
        if self.privacy_exponent not in (0.5, 1.0):
            raise ValueError("privacy_exponent must be 0.5 or 1.0")


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
        # not vars(self): a materialized __dict__ slows every field read
        _check_fields({name: (getattr(self, name),)
                       for name in (*_FLOATS, "N")})
        for name in _FLOATS:
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "N", int(self.N))
        # kappa and the weight c_g kappa: not fields, so replace() derives them
        object.__setattr__(self, "_kappa", _derived_kappa(
            self.M, self.rho, self.N, self.conventions.c_g))
        object.__setattr__(self, "_weight", self.conventions.c_g * self._kappa)


def _is_count(N) -> bool:
    """An integer N >= 1: an int, or an integral real other than a bool."""
    return (type(N) is int or isinstance(N, numbers.Real)
            and not isinstance(N, bool) and float(N).is_integer()) and N >= 1


# GameParams' float fields, each with whether zero is allowed (the costs)
_FLOATS = {"A_L": False, "C_L": True, "A_S": False, "P_S": False,
           "C_S": True, "rho": False, "M": False}


def _check_fields(values: dict) -> None:
    """Raise GameParams' ValueError for the first field in ``values`` (each
    field's values; floats, then N) that errors' rule or _is_count refuses.
    A numeric array's min and max decide for it: a nan reaches both."""
    for name, zero in _FLOATS.items():
        column = values[name]
        if isinstance(column, np.ndarray) and column.dtype.kind in "iuf":
            column = (column.min(), column.max()) if column.size else ()
        for value in column:
            _check_positive(name, value, zero)
    if not all(map(_is_count, values["N"])):
        raise ValueError("N must be an integer >= 1")


def _derived_kappa(M: float, rho: float, N: int, c_g: float) -> float:
    """kappa = 1/(rho^2 N) of fields that pass _check_fields, after checking
    that the laws get M^2, kappa and c_g kappa as finite positive floats;
    raises ValueError naming the first that is not."""
    if not 0 < M * M < math.inf:
        raise ValueError(f"M={M} must have a finite positive square M*M")
    try:
        scale = 1.0 / (rho**2 * N)
    except (OverflowError, ZeroDivisionError):  # rho^2 N under- or overflows
        scale = math.nan
    if not 0 < scale < math.inf:
        raise ValueError(
            f"rho={rho} and N={N} must give a finite positive "
            f"kappa = 1/(rho^2 N)")
    if not c_g * scale < math.inf:
        raise ValueError(
            f"rho={rho}, N={N} and c_g={c_g} must give a "
            f"finite c_g * kappa = c_g/(rho^2 N)")
    return scale


def kappa(params: GameParams) -> float:
    """Accuracy-sensitivity scale 1/(rho^2 N), as GameParams derived it."""
    return params._kappa


def _variance(params: GameParams, name: str, sigma):
    """sigma * sigma after checking that sigma lies in [0, M] (NaN does not):
    a float for a float, else a float array.  Every deviation is squared so,
    as C pow (a float's **) differs from it in the last bit on some."""
    if isinstance(sigma, (float, int)):
        if not 0 <= sigma <= params.M:
            raise ValueError(f"{name}={sigma} outside [0, M={params.M}]")
        sigma = float(sigma)
    else:
        sigma = _float_array(name, sigma)
        if sigma.size and not (sigma.min() >= 0 and sigma.max() <= params.M):
            bad = sigma[~((sigma >= 0) & (sigma <= params.M))].flat[0]
            raise ValueError(f"{name}={bad} outside [0, M={params.M}]")
    return sigma * sigma


def _float_array(name: str, values) -> np.ndarray:
    """values as a float array, refusing by name the text (str or bytes, or
    an array holding some) that numpy's float cast would parse."""
    array = np.asarray(values)
    if array.dtype.kind in "OSU" and any(
            isinstance(v, (str, bytes)) for v in array.flat):
        raise ValueError(f"{name} must hold numbers, got {values!r}")
    return array.astype(float, copy=False)


def _elementwise(f, *columns) -> np.ndarray:
    """f over the broadcast of the columns (numbers or arrays), called on
    Python numbers so that it rounds as on the scalar path, since numpy's log
    and exp differ from math's by an ulp on some inputs: the one place where
    a float rule meets an array.  Float items reach f as Python floats, object
    items unchanged.  f raises its own errors, so numpy's float-flag warnings
    (where f overflows, or compares a nan) are off."""
    with np.errstate(all="ignore"):
        values = np.frompyfunc(f, len(columns), 1)(*columns)
    return np.asarray(values, dtype=float)


# One kernel per law, over unchecked variances v = sigma^2: math's exp and no
# type test on floats, for callers that know their variances lie in [0, M^2].
# The public laws run it under _quiet, the one place that detects arrays.

def _quiet(kernel, params: GameParams, *v):
    """kernel(params, *v) on Python floats; where a variance is anything else
    (an array, or the numpy scalar of a 0-d one), with numpy's exp and its
    overflow and divide warnings off: a level beyond the float range is inf,
    as on floats, and the laws read exp(-inf) = 0."""
    if all(type(x) is float for x in v):
        return kernel(params, *v)
    with np.errstate(over="ignore", divide="ignore"):
        return kernel(params, *v, exp=np.exp)


def _accuracy(weight: float, n: int, v_L, v_bar_other, v_S):
    """weight (v_L + ((n-1)/n) v_bar_other + v_S/n), weight = c_g kappa; an
    int n keeps (n-1)/n correctly rounded where N exceeds 2**53."""
    return weight * (v_L + ((n - 1) / n) * v_bar_other + v_S / n)


def _privacy(params: GameParams, v_L, v_S):
    cv = params.conventions
    try:
        return cv.c_p * (v_L + v_S)**-cv.privacy_exponent
    except (OverflowError, ZeroDivisionError):  # a total 0 or below ~1e-308
        return math.inf


def _privacy_loss(params: GameParams, v_L, v_S, exp=math.exp):
    """P_S (1 - exp(-eps_p)); exactly P_S at zero total noise."""
    return params.P_S * (1.0 - exp(-_privacy(params, v_L, v_S)))


def _user(params: GameParams, v_L, v_bar_other, v_S, exp=math.exp):
    accuracy = _accuracy(params._weight, params.N, v_L, v_bar_other, v_S)
    return (params.A_S * exp(-accuracy) - _privacy_loss(params, v_L, v_S, exp)
            - params.C_S * (v_S > 0))


def _learner(params: GameParams, v_L, v_bar, exp=math.exp):
    accuracy = _accuracy(params._weight, params.N, v_L, v_bar, v_bar)
    return params.A_L * exp(-accuracy) - params.C_L * (v_L > 0)


def _abstain(params: GameParams, v_L, v_bar_other, exp=math.exp):
    accuracy = _accuracy(params._weight, params.N, v_L, v_bar_other, 0.0)
    return params.A_S * exp(-accuracy) + params.C_S


def _pressure_gap(params: GameParams, v_L, v_bar_other, exp=math.exp):
    """Privacy pressure minus the abstain value: the user's strict rule is to
    obfuscate exactly where this is positive."""
    return (_privacy_loss(params, v_L, 0.0, exp)
            - _abstain(params, v_L, v_bar_other, exp))


def accuracy_level(params: GameParams, sigma_L, sigma_bar_other, sigma_S):
    """Excess expected training loss caused by the given noise profile.

    Equals c_g * kappa * (sigma_L^2 + ((N-1)/N) sigma_bar_other^2
    + (1/N) sigma_S^2); zero at zero noise.
    """
    return _quiet(lambda p, *v, exp=None: _accuracy(p._weight, p.N, *v),
                  params, _variance(params, "sigma_L", sigma_L),
                  _variance(params, "sigma_bar_other", sigma_bar_other),
                  _variance(params, "sigma_S", sigma_S))


def privacy_level(params: GameParams, sigma_L, sigma_S):
    """Differential-privacy leakage bound from the noise protecting one record.

    c_p * (sigma_L^2 + sigma_S^2) ** -privacy_exponent; math.inf at zero
    total noise (no randomness, unbounded leakage).
    """
    return _quiet(lambda p, *v, exp=None: _privacy(p, *v), params,
                  _variance(params, "sigma_L", sigma_L),
                  _variance(params, "sigma_S", sigma_S))


def user_utility(params: GameParams, sigma_L, sigma_bar_other, sigma_S):
    """One user's payoff: accuracy benefit minus privacy loss minus flat
    obfuscation cost (incurred only for sigma_S > 0)."""
    return _quiet(_user, params, _variance(params, "sigma_L", sigma_L),
                  _variance(params, "sigma_bar_other", sigma_bar_other),
                  _variance(params, "sigma_S", sigma_S))


def learner_utility(params: GameParams, sigma_L, sigma_bar):
    """Learner payoff when all users perturb at sigma_bar: accuracy benefit
    minus the flat promise cost (incurred only for sigma_L > 0)."""
    return _quiet(_learner, params, _variance(params, "sigma_L", sigma_L),
                  _variance(params, "sigma_bar", sigma_bar))


def privacy_pressure(params: GameParams, sigma_L):
    """Privacy loss P_S(1 - exp(-eps_p(sigma_L, 0))) a user suffers when
    relying on the learner's promise alone.  Equals P_S at sigma_L = 0 and
    decreases strictly to 0 as the promise grows."""
    return _quiet(_privacy_loss, params,
                  _variance(params, "sigma_L", sigma_L), 0.0)


def abstain_value(params: GameParams, sigma_L, sigma_bar_other):
    """Value of not obfuscating: retained accuracy benefit plus the avoided
    flat cost, A_S exp(-eps_g(sigma_L, sigma_bar_other, 0)) + C_S."""
    return _quiet(_abstain, params, _variance(params, "sigma_L", sigma_L),
                  _variance(params, "sigma_bar_other", sigma_bar_other))
