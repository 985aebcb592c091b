"""Leader layer: deterrence thresholds, the induced leader utility, the
closed-form equilibrium promise, and regime classification with grid-scan
verification."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import InconsistencyError, NoCrossingError, UndefinedThresholdError
from .mfg import fixed_point_check, gamma
from .model import (
    GameParams,
    NoiseProfile,
    kappa,
    learner_utility,
    user_utility,
)

__all__ = [
    "BOUNDARY_BAND",
    "Thresholds",
    "EquilibriumRegime",
    "RegimeConditions",
    "EquilibriumReport",
    "tau_hat",
    "tau_exact",
    "threshold_crossings",
    "thresholds",
    "induced_leader_utility",
    "leader_utility_piecewise",
    "sg_equilibrium",
    "classify_regime",
    "pbne_solve",
]

# Parameter points whose classifying inequality sits within this band of
# equality are reported as Boundary rather than binned into a regime.
BOUNDARY_BAND = 1e-9

# Exact ties in the promise decision go to "no promise".
PROMISE_TIE_TOL = 1e-12

ROOT_SCAN_INTERVALS = 1000
ROOT_BISECTION_WIDTH = 1e-12
EQ9_GRID_POINTS = 10_000


class EquilibriumRegime(Enum):
    STATUS_QUO = "StatusQuo"
    FULL_OBFUSCATION = "FullObfuscation"
    PRIVACY_PROMISE = "PrivacyPromise"
    BOUNDARY = "Boundary"


@dataclass(frozen=True)
class Thresholds:
    """Deterrence thresholds for the current parameters.

    tau_exact: smallest promise at which privacy pressure stops exceeding the
    abstain value (absent when not computed or no crossing exists).
    tau_hat: closed-form upper approximation sqrt(1/ln(P_S/(P_S - C_S)))
    (absent when undefined or infinite; see notes).
    """

    tau_exact: float | None
    tau_hat: float | None
    kappa: float
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class RegimeConditions:
    """Evaluated values of the two classifying inequalities."""

    privacy_surplus: float     # P_S - C_S, compared against A_S
    accuracy_benefit: float    # A_S
    kappa: float               # compared against kappa_threshold
    kappa_threshold: float     # ln(A_L/C_L) * ln(P_S/(P_S - C_S)); inf/nan at edges


@dataclass(frozen=True)
class EquilibriumReport:
    sigma_L_dagger: float
    sigma_bar_dagger: float
    regime: EquilibriumRegime
    learner_utility_at_eq: float
    user_utility_at_eq: float
    thresholds: Thresholds
    conditions: RegimeConditions
    boundary_reason: str | None = None


def tau_hat(params: GameParams) -> float:
    """Closed-form promise sqrt(1/ln(P_S/(P_S - C_S))) that caps the privacy
    loss of a non-obfuscating user at exactly C_S.

    Raises UndefinedThresholdError when P_S <= C_S (users are never fully
    deterred).  Returns math.inf when C_S = 0 (free obfuscation cannot be
    priced out by any finite promise).
    """
    if params.P_S <= params.C_S:
        raise UndefinedThresholdError(
            f"tau_hat undefined: P_S={params.P_S} <= C_S={params.C_S}")
    if params.C_S == 0:
        return math.inf
    return math.sqrt(1.0 / math.log(params.P_S / (params.P_S - params.C_S)))


@lru_cache(maxsize=32)
def _sigma_grid(M: float, n_points: int) -> np.ndarray:
    grid = np.linspace(0.0, M, n_points)
    grid.setflags(write=False)
    return grid


@lru_cache(maxsize=32)
def _sigma_grid_squared(M: float, n_points: int) -> np.ndarray:
    grid = _sigma_grid(M, n_points) ** 2
    grid.setflags(write=False)
    return grid


@lru_cache(maxsize=32)
def _positive_mask(M: float, n_points: int) -> np.ndarray:
    mask = (_sigma_grid(M, n_points) > 0).astype(float)
    mask.setflags(write=False)
    return mask


def _pressure_vec_sq(params: GameParams, sigma_sq: np.ndarray) -> np.ndarray:
    """Privacy pressure over an array of squared promise levels.

    A zero entry yields an infinite leakage exponent, which -expm1 maps to
    exactly 1, so the sigma = 0 case needs no special branch.
    """
    cv = params.conventions
    with np.errstate(divide="ignore"):
        if cv.privacy_exponent == 1.0:
            eps = cv.c_p / sigma_sq
        else:
            eps = cv.c_p * sigma_sq**-cv.privacy_exponent
    return params.P_S * -np.expm1(-eps)


def _abstain_zero_vec_sq(params: GameParams, sigma_sq: np.ndarray) -> np.ndarray:
    cv = params.conventions
    return params.A_S * np.exp(-cv.c_g * kappa(params) * sigma_sq) + params.C_S


def _crossing_brackets(params: GameParams) -> list[tuple[float, float]]:
    """Sign-change brackets of pressure - abstain_value on a uniform scan."""
    grid = _sigma_grid(params.M, ROOT_SCAN_INTERVALS + 1)
    grid_sq = _sigma_grid_squared(params.M, ROOT_SCAN_INTERVALS + 1)
    f = _pressure_vec_sq(params, grid_sq) - _abstain_zero_vec_sq(params, grid_sq)
    brackets = [(float(grid[k]), float(grid[k]))
                for k in np.nonzero(f[1:] == 0.0)[0] + 1]
    for k in np.nonzero(f[:-1] * f[1:] < 0.0)[0]:
        brackets.append((float(grid[k]), float(grid[k + 1])))
    brackets.sort()
    return brackets


def _pressure_minus_abstain(params: GameParams, sigma: float) -> float:
    """Scalar pressure minus abstain value along the zero-crowd axis."""
    cv = params.conventions
    if sigma == 0:
        pressure = params.P_S
    else:
        eps_p = cv.c_p * (sigma * sigma) ** -cv.privacy_exponent
        pressure = params.P_S * -math.expm1(-eps_p)
    abstain = (params.A_S * math.exp(-cv.c_g * kappa(params) * sigma * sigma)
               + params.C_S)
    return pressure - abstain


def _bisect(params: GameParams, lo: float, hi: float) -> float:
    flo = _pressure_minus_abstain(params, lo)
    while hi - lo > ROOT_BISECTION_WIDTH:
        mid = 0.5 * (lo + hi)
        fmid = _pressure_minus_abstain(params, mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


@lru_cache(maxsize=4096)
def _threshold_crossings_cached(params: GameParams) -> tuple[float, ...]:
    roots = []
    for lo, hi in _crossing_brackets(params):
        roots.append(lo if lo == hi else _bisect(params, lo, hi))
    return tuple(roots)


def threshold_crossings(params: GameParams) -> list[float]:
    """All roots of pressure - abstain_value found on (0, M], smallest first.

    More than one root can occur away from the default conventions (and for
    extreme kappa); ``tau_exact`` always uses the smallest.  Results are
    cached per parameter set (the operation is pure).
    """
    return list(_threshold_crossings_cached(params))


def tau_exact(params: GameParams) -> float:
    """Smallest promise in (0, M) at which privacy pressure has fallen to the
    abstain value, located by a bracketing scan plus bisection.

    Raises NoCrossingError when the scan finds no sign change, reporting
    which side dominates throughout.
    """
    crossings = threshold_crossings(params)
    if not crossings:
        dominant = ("pressure"
                    if _pressure_minus_abstain(params, params.M) > 0
                    else "abstain")
        raise NoCrossingError(
            f"no crossing of pressure and abstain value on (0, M]: "
            f"{dominant} dominates everywhere", dominant)
    return crossings[0]


def thresholds(params: GameParams, include_exact: bool = True) -> Thresholds:
    """Assemble the threshold record, mapping undefined or infinite values to
    absent entries with a diagnostic note."""
    notes: list[str] = []
    tau_h: float | None
    try:
        tau_h = tau_hat(params)
        if math.isinf(tau_h):
            tau_h = None
            notes.append("tau_hat infinite: C_S = 0, no finite promise deters")
    except UndefinedThresholdError:
        tau_h = None
        notes.append("tau_hat undefined: P_S <= C_S")
    tau_e: float | None = None
    if include_exact:
        try:
            tau_e = tau_exact(params)
        except NoCrossingError as exc:
            notes.append(f"tau_exact absent: {exc.dominant} dominates on (0, M]")
    return Thresholds(tau_e, tau_h, kappa(params), tuple(notes))


def induced_leader_utility(params: GameParams, sigma_L: float) -> float:
    """Exact leader payoff at a promise, with the users at their induced
    symmetric response gamma(sigma_L)."""
    return learner_utility(params, sigma_L, gamma(params, sigma_L))


def leader_utility_piecewise(params: GameParams, sigma_L: float | np.ndarray
                             ) -> float | np.ndarray:
    """Reference approximation of the induced leader utility: zero payoff at
    no promise, a dead zone paying -C_L below tau_hat, and the deterred
    branch A_L exp(-c_g kappa sigma^2) - C_L from tau_hat on.  The exact
    curve switches earlier (at tau_exact); this form is the one whose argmax
    the closed-form promise reproduces.  Takes a promise or an array of
    promises and returns a float or an array to match; raises
    UndefinedThresholdError when tau_hat is undefined (P_S <= C_S)."""
    sigma = np.asarray(sigma_L, dtype=float)
    cv = params.conventions
    deterred = (params.A_L * np.exp(-cv.c_g * kappa(params) * sigma**2)
                - params.C_L)
    util = np.where(sigma >= tau_hat(params), deterred, -params.C_L)
    util = np.where(sigma == 0, 0.0, util)
    return float(util) if util.ndim == 0 else util


def _kappa_threshold(params: GameParams) -> float:
    """ln(A_L/C_L) * ln(P_S/(P_S - C_S)); 0 when C_S = 0, nan when
    P_S <= C_S, +/-inf when C_L = 0."""
    if params.P_S <= params.C_S:
        return math.nan
    if params.C_S == 0:
        return 0.0
    privacy_log = math.log(params.P_S / (params.P_S - params.C_S))
    if params.C_L == 0:
        return math.inf
    return math.log(params.A_L / params.C_L) * privacy_log


def _closed_form(params: GameParams) -> tuple[
        RegimeConditions, str | None, EquilibriumRegime]:
    """The paper's closed form: the two classifying inequalities, the reason
    the point lies within BOUNDARY_BAND of either (None when it does not),
    and the table row they select.  The row is derived on Boundary points
    too, so that pbne_solve can solve and verify them: a privacy surplus
    above A_S selects PrivacyPromise when kappa falls short of the promise
    threshold (exact ties go to no promise) and FullObfuscation otherwise."""
    cond = RegimeConditions(
        privacy_surplus=params.P_S - params.C_S,
        accuracy_benefit=params.A_S,
        kappa=kappa(params),
        kappa_threshold=_kappa_threshold(params),
    )
    surplus_wins = cond.privacy_surplus > cond.accuracy_benefit
    reason = None
    if abs(cond.privacy_surplus - cond.accuracy_benefit) <= BOUNDARY_BAND:
        reason = "privacy surplus within band of accuracy benefit"
    elif (surplus_wins and math.isfinite(cond.kappa_threshold)
          and abs(cond.kappa - cond.kappa_threshold) <= BOUNDARY_BAND):
        reason = "kappa within band of the promise threshold"
    if not surplus_wins:
        regime = EquilibriumRegime.STATUS_QUO
    elif (cond.kappa < cond.kappa_threshold
          and abs(cond.kappa - cond.kappa_threshold) > PROMISE_TIE_TOL):
        regime = EquilibriumRegime.PRIVACY_PROMISE
    else:
        regime = EquilibriumRegime.FULL_OBFUSCATION
    return cond, reason, regime


def _promise(params: GameParams, regime: EquilibriumRegime) -> float:
    """The promise of a table row: tau_hat in PrivacyPromise, else none."""
    if regime is not EquilibriumRegime.PRIVACY_PROMISE:
        return 0.0
    promise = tau_hat(params)
    if promise > params.M:
        raise ValueError(
            f"tau_hat={promise:.6g} exceeds M={params.M}; enlarge M")
    return promise


def sg_equilibrium(params: GameParams) -> float:
    """Closed-form optimal promise when P_S - C_S > A_S: no promise when
    kappa exceeds ln(A_L/C_L) ln(P_S/(P_S - C_S)), tau_hat when it falls
    short; exact ties resolve to no promise."""
    _, _, regime = _closed_form(params)
    if regime is EquilibriumRegime.STATUS_QUO:
        raise ValueError("sg_equilibrium requires P_S - C_S > A_S; "
                         "classify_regime reports the status quo")
    return _promise(params, regime)


def _report(params: GameParams, regime: EquilibriumRegime, sigma_L: float,
            sigma_bar: float, cond: RegimeConditions,
            include_exact: bool, reason: str | None = None) -> EquilibriumReport:
    return EquilibriumReport(
        sigma_L_dagger=sigma_L,
        sigma_bar_dagger=sigma_bar,
        regime=regime,
        learner_utility_at_eq=learner_utility(params, sigma_L, sigma_bar),
        user_utility_at_eq=user_utility(
            params, NoiseProfile(sigma_L, sigma_bar, sigma_bar)),
        thresholds=thresholds(params, include_exact=include_exact),
        conditions=cond,
        boundary_reason=reason,
    )


def classify_regime(params: GameParams) -> EquilibriumReport:
    """Closed-form regime classification.

    Rows: (1) P_S - C_S < A_S -> status quo (0, 0); (2) surplus above A_S
    with kappa above the promise threshold -> full obfuscation (M, 0);
    (3) surplus above A_S with kappa below -> privacy promise (0, tau_hat).
    Points within BOUNDARY_BAND of either inequality are flagged Boundary
    and carry no equilibrium values.  The thresholds omit tau_exact (no row
    depends on it); pbne_solve reports it.
    """
    cond, reason, regime = _closed_form(params)
    if reason is not None:
        return EquilibriumReport(
            sigma_L_dagger=math.nan,
            sigma_bar_dagger=math.nan,
            regime=EquilibriumRegime.BOUNDARY,
            learner_utility_at_eq=math.nan,
            user_utility_at_eq=math.nan,
            thresholds=thresholds(params, include_exact=False),
            conditions=cond,
            boundary_reason=reason,
        )
    sigma_bar = (params.M if regime is EquilibriumRegime.FULL_OBFUSCATION
                 else 0.0)
    return _report(params, regime, _promise(params, regime), sigma_bar, cond,
                   include_exact=False)


def _verify_leader_optimality(params: GameParams, sigma_dagger: float,
                              n_points: int) -> None:
    """Check the promise against a grid scan of the exact induced utility.

    The scan may beat the closed form by up to the largest one-cell utility
    variation (the induced curve is discontinuous at the deterrence
    threshold); anything beyond that signals a convention mismatch.
    """
    grid = _sigma_grid(params.M, n_points)
    grid_sq = _sigma_grid_squared(params.M, n_points)
    pressure = _pressure_vec_sq(params, grid_sq)
    abstain = _abstain_zero_vec_sq(params, grid_sq)
    bar_sq = np.where(pressure > abstain, params.M**2, 0.0)
    cv = params.conventions
    util = (params.A_L * np.exp(-cv.c_g * kappa(params) * (grid_sq + bar_sq))
            - params.C_L * _positive_mask(params.M, n_points))
    scan_max = float(util.max())
    scan_arg = float(grid[int(util.argmax())])
    cell_variation = float(np.abs(np.diff(util)).max())
    closed = induced_leader_utility(params, sigma_dagger)
    if scan_max - closed > max(1e-6, cell_variation):
        raise InconsistencyError(
            f"promise {sigma_dagger:.6g} (utility {closed:.6g}) is beaten by "
            f"the scan optimum {scan_arg:.6g} (utility {scan_max:.6g})",
            closed_form=(sigma_dagger, closed),
            scanned=(scan_arg, scan_max))


def pbne_solve(params: GameParams,
               eq9_grid: int = EQ9_GRID_POINTS) -> EquilibriumReport:
    """Solve the full bi-level game and verify both equilibrium conditions.

    The follower condition is checked through fixed_point_check on the
    induced response; the leader condition through a grid scan of the exact
    induced utility.  Verification failure raises InconsistencyError with
    both candidate optima.
    """
    cond, reason, regime = _closed_form(params)
    sigma_dagger = _promise(params, regime)
    sigma_bar = gamma(params, sigma_dagger)
    if not fixed_point_check(params, sigma_dagger, sigma_bar):
        raise InconsistencyError(
            f"induced response {sigma_bar} is not a best-response fixed "
            f"point at promise {sigma_dagger}",
            closed_form=(sigma_dagger, sigma_bar), scanned=(sigma_dagger, sigma_bar))
    _verify_leader_optimality(params, sigma_dagger, eq9_grid)
    return _report(params,
                   regime if reason is None else EquilibriumRegime.BOUNDARY,
                   sigma_dagger, sigma_bar, cond,
                   include_exact=regime is not EquilibriumRegime.STATUS_QUO,
                   reason=reason)
