"""Leader layer: deterrence thresholds, the induced leader utility, the
closed-form equilibrium promise, and regime classification with a
certificate against the exact leader optimum."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .crossings import _crossings, threshold_crossings
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
    _accuracy,
    _check_fields,
    _derived_kappa,
    _elementwise,
    _float_array,
    _learner,
    _user,
    kappa,
    learner_utility,
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


def tau_exact(params: GameParams) -> float:
    """Smallest promise in (0, M] at which privacy pressure has fallen to the
    abstain value: the first real root of threshold_crossings, located to
    ROOT_BISECTION_WIDTH of its size at its deterred end.  The search stops
    at that root and takes the laws at no piece end past it.

    Raises NoCrossingError when the gap has no real root on (0, M],
    reporting which side dominates throughout.
    """
    root = next(_crossings(params), None)
    if root is None:
        dominant = "pressure" if gamma(params, params.M) else "abstain"
        raise NoCrossingError(
            f"no crossing of pressure and abstain value on (0, M]: "
            f"{dominant} dominates everywhere", dominant)
    return root


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
    """Exact leader payoff at a promise, or at each of an array of promises
    on Python floats, with the users at gamma(sigma_L): M where privacy
    pressure exceeds the abstain value, else 0 (gamma checks that the
    promise lies in [0, M], so a float takes the learner's kernel)."""
    if isinstance(sigma_L, (float, int)):
        crowd = gamma(params, sigma_L)
        return _learner(params, float(sigma_L) * sigma_L, crowd * crowd)
    return _elementwise(lambda sigma: induced_leader_utility(params, sigma),
                        _float_array("sigma_L", sigma_L))


def leader_utility_piecewise(params: GameParams, sigma_L: float | np.ndarray
                             ) -> float | np.ndarray:
    """Reference approximation of the induced leader utility: zero payoff at
    no promise, a dead zone paying -C_L below tau_hat, and the deterred
    branch A_L exp(-c_g kappa sigma^2) - C_L from tau_hat on.  The exact
    curve switches earlier (at tau_exact); this form is the one whose argmax
    the closed-form promise reproduces.  Takes a promise or an array of
    promises and returns a float or an array to match; raises
    UndefinedThresholdError when tau_hat is undefined (P_S <= C_S)."""
    sigma = _float_array("sigma_L", sigma_L)
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
# the column form's row kinds: indices into _REGIMES, then Infeasible
_FULL, _PROMISE, _BOUNDARY, _INFEASIBLE = 1, 2, 3, 4


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


def _closed_form_columns(A_L, C_L, A_S, P_S, C_S, rho, N, M,
                         conventions: ModelConventions):
    """classify_regime over a grid, each field a number or an array
    (broadcast against the others; a float field takes floats).  Raises
    ValueError where GameParams refuses a point.  Returns arrays over the
    broadcast grid: the row kind (an index into EquilibriumRegime, or
    _INFEASIBLE: a promise above M), tau_hat (nan where the record has
    none) and the leader utility at the equilibrium (nan on Boundary and
    Infeasible points).  Scalar laws run elementwise on Python numbers, each
    on the fewest fields it reads, and numpy does only +, -, *, /,
    comparisons and selections in _closed_form's order, so every value is
    the scalar path's to the bit.  The utility's retained accuracy is
    exp(-model._accuracy) at each row kind's variances, on the fields they
    read, with N an int as in GameParams: sigma_L = 0 and the crowd at M on
    FullObfuscation rows (M, rho, N, c_g), sigma_L = tau_hat alone on
    PrivacyPromise rows (those and P_S, C_S), and 1 on the other rows."""
    _check_fields({name: np.ravel(column) for name, column in zip(
        ("A_L", "C_L", "A_S", "P_S", "C_S", "rho", "N", "M"),
        (A_L, C_L, A_S, P_S, C_S, rho, N, M))})
    scale = _elementwise(_derived_kappa, M, rho, N, conventions.c_g)
    privacy_log = _elementwise(_privacy_log, P_S, C_S)
    tau_h = _elementwise(_inverse_root, privacy_log)
    log_benefit = _elementwise(_log_quotient, A_L, C_L)
    weight = conventions.c_g * scale
    full = _elementwise(lambda w, n, m: math.exp(
        -_accuracy(w, int(n), 0.0, m * m, m * m)), weight, N, M)
    promised = _elementwise(lambda w, n, t: math.exp(
        -_accuracy(w, int(n), t * t, 0.0, 0.0)), weight, N, tau_h)
    with np.errstate(invalid="ignore", over="ignore"):
        threshold = np.where(privacy_log == 0, 0.0, log_benefit * privacy_log)
        kind, surplus_band, kappa_band = _table(P_S - C_S, A_S, scale,
                                                threshold)
        # one array per output, patched in place (object fields' products
        # are cast back to float)
        kind = np.where(surplus_band | kappa_band, _BOUNDARY, kind)
        np.copyto(kind, _INFEASIBLE, where=(kind == _PROMISE) & (tau_h > M))
        utility = np.where(kind == _PROMISE, promised, 1.0)
        np.copyto(utility, full, where=kind == _FULL)
        np.multiply(A_L, utility, utility, casting="unsafe")
        np.subtract(utility, C_L, utility, where=kind == _PROMISE,
                    casting="unsafe")
        np.copyto(utility, math.nan, where=kind >= _BOUNDARY)
        np.copyto(tau_h, math.nan, where=~np.isfinite(tau_h))
    return kind, tau_h, utility


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
    a reason, with the kernels' utilities: sigma_L is 0 or a tau_hat checked
    against M, sigma_bar 0 or M, and both nan without an equilibrium."""
    cond, reason, regime, th = closed_form
    v_L, v_bar = sigma_L * sigma_L, sigma_bar * sigma_bar
    return EquilibriumReport(
        sigma_L_dagger=sigma_L,
        sigma_bar_dagger=sigma_bar,
        regime=regime if reason is None else EquilibriumRegime.BOUNDARY,
        learner_utility_at_eq=_learner(params, v_L, v_bar),
        user_utility_at_eq=_user(params, v_L, v_bar, v_bar),
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
    where the crowd is deterred (pbne_solve skips the search for tau_exact
    only where the crowd abstains at 0, so that U(0) = A_L).  The promise
    may fall short of it by the closed form's two approximations: it values
    full obfuscation at 0, not A_L exp(-c_g kappa M^2), and it decides at
    tau_hat (inf where absent), where a promise pays
    L = A_L exp(-c_g kappa tau_hat^2) - C_L.  Tie rows (Boundary, no
    promise) count L at most 0, as kappa ties go to no promise."""
    sigma_dagger, closed = report.sigma_L_dagger, report.learner_utility_at_eq
    th = report.thresholds
    arg, sup = 0.0, induced_leader_utility(params, 0.0)
    bound = _learner(params, 0.0, params.M * params.M)
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
    crowd = gamma(params, sigma_dagger)
    if regime is not EquilibriumRegime.STATUS_QUO or crowd:
        th = _with_exact(params, th)
    report = _report(params, (cond, reason, regime, th), sigma_dagger, crowd)
    optimum = _verify_leader_optimality(params, report)
    if sigma_dagger > 0 and report.sigma_bar_dagger != 0:
        raise InconsistencyError(
            f"promise {sigma_dagger:.6g} does not deter: the crowd answers M",
            (sigma_dagger, report.learner_utility_at_eq), optimum)
    return report
