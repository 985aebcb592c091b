"""Leader layer: deterrence thresholds, the induced leader utility, the
closed-form equilibrium promise, and regime classification with a
certificate against the exact leader optimum."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import (
    InconsistencyError,
    InfeasiblePromiseError,
    NoCrossingError,
    UndefinedThresholdError,
)
from .mfg import gamma
from .model import (
    GameParams,
    ModelConventions,
    _derived_kappa,
    _learner,
    _pressure_gap,
    _quiet,
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
    regime: EquilibriumRegime
    sigma_L_dagger: float
    sigma_bar_dagger: float
    learner_utility_at_eq: float
    user_utility_at_eq: float
    thresholds: Thresholds
    conditions: RegimeConditions
    boundary_reason: str | None = None


def _privacy_log(P_S: float, C_S: float) -> float:
    """ln(P_S/(P_S - C_S)): nan where P_S <= C_S, and 0 only where C_S/P_S
    is 0.  Where the quotient rounds to 1 (C_S/P_S below ~1.1e-16) its log
    reads 0, and -log1p(-C_S/P_S) gives the value instead.  The quotient's
    log stays where it is nonzero: log1p there moves tau_hat by an ulp on
    30-50% of sampled points, and the report's U_S, a near-cancellation at
    the promise, by up to 1.3e-12 relative."""
    if not P_S > C_S:
        return math.nan
    return math.log(P_S / (P_S - C_S)) or -math.log1p(-C_S / P_S)


def _inverse_root(privacy_log: float) -> float:
    """sqrt(1/privacy_log): inf where the log is 0, and 1/sqrt(privacy_log)
    where the reciprocal overflows (a subnormal log, as for C_S ~ 1e-310)."""
    if not privacy_log:
        return math.inf
    reciprocal = 1.0 / privacy_log
    return (math.sqrt(reciprocal) if reciprocal < math.inf
            else 1.0 / math.sqrt(privacy_log))


def _log_quotient(a: float, b: float) -> float:
    """ln(a/b) for a positive a and a non-negative b: inf where b is 0, and
    ln(a) - ln(b) where the quotient underflows to 0 or overflows."""
    if not b:
        return math.inf
    quotient = a / b
    return (math.log(quotient) if 0 < quotient < math.inf
            else math.log(a) - math.log(b))


def tau_hat(params: GameParams) -> float:
    """Closed-form promise sqrt(1/ln(P_S/(P_S - C_S))) that caps the privacy
    loss of a non-obfuscating user at exactly C_S.

    Raises UndefinedThresholdError when P_S <= C_S (users are never fully
    deterred).  Returns math.inf when C_S = 0 (free obfuscation cannot be
    priced out by any finite promise), or C_S/P_S underflows to 0.
    """
    if params.P_S <= params.C_S:
        raise UndefinedThresholdError(
            f"tau_hat undefined: P_S={params.P_S} <= C_S={params.C_S}")
    return _inverse_root(_privacy_log(params.P_S, params.C_S))


@lru_cache(maxsize=32)
def _sigma_grid(M: float, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """A uniform grid on [0, M] and its squares, both read-only."""
    grid = np.linspace(0.0, M, n_points)
    squares = grid**2
    grid.setflags(write=False)
    squares.setflags(write=False)
    return grid, squares


def _refine(params: GameParams, lo: float, hi: float) -> float:
    """Root of the pressure gap in a sign-change bracket by Illinois regula
    falsi: each step cuts the bracket at the secant through its ends, and an
    end kept twice in a row has its value halved.  Stops once the bracket is
    at most ROOT_BISECTION_WIDTH wide or no float lies strictly inside it,
    and returns its deterred end, where the gap is negative (or a point where
    it is exactly 0), so that gamma is 0 at the returned root.  It also
    stops where the ends read the same value and the secant is undefined:
    the scan's array gap and this scalar gap can disagree on the sign where
    the gap cancels, and both ends then read -C_S."""
    f_lo, f_hi = (_pressure_gap(params, x**2, 0.0) for x in (lo, hi))
    kept = 0  # +1 when lo was kept by the last step, -1 when hi was
    while hi - lo > ROOT_BISECTION_WIDTH and f_hi != f_lo:
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        f_x = _pressure_gap(params, x**2, 0.0)
        if f_x == 0.0:
            return x
        if (f_x < 0.0) == (f_lo < 0.0):
            lo, f_lo = x, f_x
            f_hi *= 0.5 if kept == -1 else 1.0
            kept = -1
        else:
            hi, f_hi = x, f_x
            f_lo *= 0.5 if kept == 1 else 1.0
            kept = 1
    return lo if f_lo < 0.0 else hi


def threshold_crossings(params: GameParams) -> list[float]:
    """All roots of pressure - abstain_value found on (0, M], smallest first;
    each is a promise at which the crowd is deterred (gamma is 0 there).

    More than one root can occur away from the default conventions (and for
    extreme kappa); ``tau_exact`` always uses the smallest.
    """
    # sign-change brackets of the gap on a uniform scan
    grid, squares = _sigma_grid(params.M, ROOT_SCAN_INTERVALS + 1)
    f = _quiet(_pressure_gap, params, squares, 0.0)
    brackets = [(float(grid[k]), float(grid[k]))
                for k in np.nonzero(f[1:] == 0.0)[0] + 1]
    for k in np.nonzero(f[:-1] * f[1:] < 0.0)[0]:
        brackets.append((float(grid[k]), float(grid[k + 1])))
    return [_refine(params, lo, hi) for lo, hi in sorted(brackets)]


def tau_exact(params: GameParams) -> float:
    """Smallest promise in (0, M) at which privacy pressure has fallen to the
    abstain value, located by a bracketing scan plus regula falsi.

    Raises NoCrossingError when the scan finds no sign change, reporting
    which side dominates throughout.
    """
    crossings = threshold_crossings(params)
    if not crossings:
        dominant = "pressure" if gamma(params, params.M) else "abstain"
        raise NoCrossingError(
            f"no crossing of pressure and abstain value on (0, M]: "
            f"{dominant} dominates everywhere", dominant)
    return crossings[0]


def _with_exact(params: GameParams, th: Thresholds) -> Thresholds:
    """The record with tau_exact, or with a note on which side dominates."""
    try:
        return Thresholds(tau_exact(params), th.tau_hat, th.kappa, th.notes)
    except NoCrossingError as exc:
        return Thresholds(None, th.tau_hat, th.kappa, th.notes + (
            f"tau_exact absent: {exc.dominant} dominates on (0, M]",))


def thresholds(params: GameParams) -> Thresholds:
    """Assemble the threshold record, mapping undefined or infinite values to
    absent entries with a diagnostic note."""
    return _with_exact(params, _closed_form(params)[3])


def induced_leader_utility(params: GameParams, sigma_L: float | np.ndarray
                           ) -> float | np.ndarray:
    """Exact leader payoff at a promise (or an array of promises), with the
    users at their induced symmetric response gamma(sigma_L): M where
    privacy pressure exceeds the abstain value, else 0."""
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
    util = np.where(sigma >= tau_hat(params),
                    learner_utility(params, sigma_L, 0.0), -params.C_L)
    util = np.where(sigma == 0, 0.0, util)
    return float(util) if util.ndim == 0 else util


def _table(surplus, A_S, kappa, threshold):
    """The paper's table on floats or arrays (floats take no numpy call):
    the row as an index into EquilibriumRegime, 0 unless the surplus beats
    A_S, 2 where kappa is below the threshold by more than PROMISE_TIE_TOL
    (ties go to no promise), else 1; and whether the surplus, or a winning
    surplus's kappa, lies within BOUNDARY_BAND of its bound."""
    wins = surplus > A_S
    distance = abs(kappa - threshold)
    row = wins * (1 + ((kappa < threshold) & (distance > PROMISE_TIE_TOL)))
    return (row, abs(surplus - A_S) <= BOUNDARY_BAND,
            wins & (distance <= BOUNDARY_BAND))


_REGIMES = tuple(EquilibriumRegime)


def _closed_form(params: GameParams) -> tuple[
        RegimeConditions, str | None, EquilibriumRegime, Thresholds]:
    """The paper's closed form from one evaluation of the privacy log: the
    two classifying inequalities, the reason the point lies within
    BOUNDARY_BAND of either (None when it does not), the table row they
    select and the threshold record without tau_exact.  The row is derived
    on Boundary points too, so that pbne_solve can solve and verify them.
    The promise threshold ln(A_L/C_L) ln(P_S/(P_S - C_S)) is nan where
    P_S <= C_S, 0 where the log is 0 and inf where C_L = 0."""
    privacy_log = _privacy_log(params.P_S, params.C_S)
    tau_h = _inverse_root(privacy_log)
    cond = RegimeConditions(
        privacy_surplus=params.P_S - params.C_S,
        accuracy_benefit=params.A_S,
        kappa=kappa(params),
        kappa_threshold=(0.0 if not privacy_log else
                         _log_quotient(params.A_L, params.C_L) * privacy_log),
    )
    row, surplus_band, kappa_band = _table(
        cond.privacy_surplus, cond.accuracy_benefit, cond.kappa,
        cond.kappa_threshold)
    reason = ("privacy surplus within band of accuracy benefit" if surplus_band
              else "kappa within band of the promise threshold" if kappa_band
              else None)
    notes = (() if tau_h < math.inf
             else ("tau_hat infinite: C_S = 0, no finite promise deters",)
             if tau_h == math.inf else ("tau_hat undefined: P_S <= C_S",))
    th = Thresholds(None, None if notes else tau_h, cond.kappa, notes)
    return cond, reason, _REGIMES[row], th


def _others_share(N) -> float:
    """(N - 1)/N in integers, as _accuracy takes it."""
    return (int(N) - 1) / int(N)


def _elementwise(f, *columns) -> np.ndarray:
    """f over the broadcast of the columns (numbers or arrays), called on
    Python numbers so that it rounds as on the scalar path: numpy's log, exp
    and squares differ from math's and Python's by an ulp on some inputs."""
    shape = np.broadcast_shapes(*(np.shape(column) for column in columns))
    args = (np.broadcast_to(column, shape).ravel().tolist()
            for column in columns)
    return np.array(list(map(f, *args)), dtype=float).reshape(shape)


def _closed_form_columns(A_L, C_L, A_S, P_S, C_S, rho, N, M,
                         conventions: ModelConventions):
    """classify_regime over a grid, each field given as a number or an array
    (broadcast against the others) of values that GameParams accepts.
    Returns arrays over the broadcast grid: the regime as an index into
    EquilibriumRegime, the Infeasible mask (a promise above M), tau_hat (nan
    where the record has none) and the leader utility at the equilibrium
    (nan on Boundary and Infeasible points).  Scalar laws run elementwise on
    Python numbers, each on the fewest fields it reads, and numpy does only
    +, -, *, /, comparisons and selections in _closed_form's order, so every
    value is the scalar path's to the bit."""
    privacy_log = _elementwise(_privacy_log, P_S, C_S)
    tau_h = _elementwise(_inverse_root, privacy_log)
    log_benefit = _elementwise(_log_quotient, A_L, C_L)
    scale = _elementwise(_derived_kappa, M, rho, N, conventions.c_g)
    with np.errstate(invalid="ignore", over="ignore"):
        threshold = np.where(privacy_log == 0, 0.0, log_benefit * privacy_log)
        row, surplus_band, kappa_band = _table(P_S - C_S, A_S, scale,
                                               threshold)
        regime = np.where(surplus_band | kappa_band, 3, row)
        infeasible = (regime == 2) & (tau_h > M)
        # learner_utility at the equilibrium, as _accuracy orders it
        v_L = np.where((regime == 2) & ~infeasible, _elementwise(
            pow, np.where(tau_h <= M, tau_h, 0.0), 2), 0.0)
        v_bar = np.where(regime == 1, _elementwise(pow, M, 2), 0.0)
        n = np.asarray(N, dtype=float)
        share = _elementwise(_others_share, N)
        accuracy = (conventions.c_g * scale) * ((v_L + share * v_bar)
                                                + v_bar / n)
        utility = A_L * _elementwise(math.exp, -accuracy) - C_L * (v_L > 0)
        solved = (regime < 3) & ~infeasible
    return (regime, infeasible, np.where(np.isfinite(tau_h), tau_h, math.nan),
            np.where(solved, utility, math.nan))


def _promise(params: GameParams, regime: EquilibriumRegime,
             tau_h: float | None) -> float:
    """The promise of a table row: the record's tau_hat in PrivacyPromise,
    where it is absent only when infinite, else none."""
    if regime is not EquilibriumRegime.PRIVACY_PROMISE:
        return 0.0
    promise = math.inf if tau_h is None else tau_h
    if promise > params.M:
        raise InfeasiblePromiseError(
            f"tau_hat={promise:.6g} exceeds M={params.M}; enlarge M", promise)
    return promise


def sg_equilibrium(params: GameParams) -> float:
    """Closed-form optimal promise when P_S - C_S > A_S: no promise when
    kappa exceeds ln(A_L/C_L) ln(P_S/(P_S - C_S)), tau_hat when it falls
    short; exact ties resolve to no promise."""
    _, _, regime, th = _closed_form(params)
    if regime is EquilibriumRegime.STATUS_QUO:
        raise ValueError("sg_equilibrium requires P_S - C_S > A_S; "
                         "classify_regime reports the status quo")
    return _promise(params, regime, th.tau_hat)


def _report(params: GameParams, closed_form, sigma_L: float = math.nan,
            sigma_bar: float = math.nan) -> EquilibriumReport:
    """The report of _closed_form's result, flagged Boundary where it gives
    a reason; without an equilibrium (sigma_L nan) its values are nan."""
    cond, reason, regime, th = closed_form
    solved = not math.isnan(sigma_L)
    return EquilibriumReport(
        sigma_L_dagger=sigma_L,
        sigma_bar_dagger=sigma_bar,
        regime=regime if reason is None else EquilibriumRegime.BOUNDARY,
        learner_utility_at_eq=(learner_utility(params, sigma_L, sigma_bar)
                               if solved else math.nan),
        user_utility_at_eq=(user_utility(params, sigma_L, sigma_bar, sigma_bar)
                            if solved else math.nan),
        thresholds=th,
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
    closed_form = _closed_form(params)
    _, reason, regime, th = closed_form
    if reason is not None:
        return _report(params, closed_form)
    sigma_bar = params.M * (regime is EquilibriumRegime.FULL_OBFUSCATION)
    return _report(params, closed_form, _promise(params, regime, th.tau_hat),
                   sigma_bar)


def _verify_leader_optimality(params: GameParams, report: EquilibriumReport):
    """Certify the report's promise against the exact sup of the induced
    leader utility U on [0, M] (the report's U_L is U at its promise) and
    return that optimum as (sigma_L, utility).  Between crossings the crowd
    is constant and U falls in sigma_L, so the sup is U(0) or U(tau_exact),
    where the crowd is deterred (in the status quo tau_exact is None and
    U(0) = A_L).  The promise may fall short of it by the closed form's two
    approximations: it values full obfuscation at 0, not
    A_L exp(-c_g kappa M^2), and it decides at tau_hat (inf where absent),
    where a promise pays L = A_L exp(-c_g kappa tau_hat^2) - C_L.  Tie rows
    (Boundary, no promise) count L at most 0, as kappa ties go to no promise."""
    sigma_dagger, closed = report.sigma_L_dagger, report.learner_utility_at_eq
    th = report.thresholds
    arg, sup = 0.0, induced_leader_utility(params, 0.0)
    bound = _learner(params, 0.0, params.M**2)
    if th.tau_exact is not None:
        at_exact = induced_leader_utility(params, th.tau_exact)
        if at_exact > sup:
            arg, sup = th.tau_exact, at_exact
        tau_h = math.inf if th.tau_hat is None else th.tau_hat
        # a product: tau_h**2 raises OverflowError where tau_h > ~1.3e154
        decided = _learner(params, tau_h * tau_h, 0.0)
        tie = report.boundary_reason is not None and sigma_dagger == 0
        bound += max(0.0, at_exact - (min(decided, 0.0) if tie else decided))
    if sup - closed > bound:
        raise InconsistencyError(
            f"promise {sigma_dagger:.6g} (utility {closed:.6g}) is beaten by "
            f"the exact optimum {arg:.6g} (utility {sup:.6g}) beyond the "
            f"closed form's bound {bound:.6g}",
            closed_form=(sigma_dagger, closed), exact=(arg, sup))
    return arg, sup


def pbne_solve(params: GameParams) -> EquilibriumReport:
    """Solve the full bi-level game and certify the closed-form promise: a
    positive promise must deter (gamma is 0 there), and it must come within
    the closed form's stated bound of the exact leader optimum
    (_verify_leader_optimality).  Either failure raises InconsistencyError.
    The crowd needs no check: gamma is a best-response fixed point at every
    promise, as the abstain value falls when the crowd's variance grows."""
    cond, reason, regime, th = _closed_form(params)
    sigma_dagger = _promise(params, regime, th.tau_hat)
    if regime is not EquilibriumRegime.STATUS_QUO:
        th = _with_exact(params, th)
    report = _report(params, (cond, reason, regime, th), sigma_dagger,
                     gamma(params, sigma_dagger))
    optimum = _verify_leader_optimality(params, report)
    if sigma_dagger > 0 and report.sigma_bar_dagger != 0:
        raise InconsistencyError(
            f"promise {sigma_dagger:.6g} does not deter: the crowd answers M",
            (sigma_dagger, report.learner_utility_at_eq), optimum)
    return report
