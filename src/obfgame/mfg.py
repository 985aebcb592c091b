"""Mean-field layer: user best responses, symmetric fixed points, the induced
response map, and best-response adoption dynamics among N agents."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import GameParams, abstain_value, kappa, privacy_pressure

__all__ = [
    "INDIFFERENCE_TOL",
    "ResponseKind",
    "BestResponse",
    "MfgRegime",
    "MfgEquilibria",
    "CascadeTrace",
    "best_response",
    "best_response_oracle",
    "mfg_equilibria",
    "gamma",
    "fixed_point_check",
    "cascade_simulate",
    "br_curve",
]

# Absolute tolerance on pressure - abstain_value below which a user is
# treated as indifferent (the knife-edge case is measure zero).
INDIFFERENCE_TOL = 1e-9

# Utility ties within this tolerance are all reported by the oracle.
ORACLE_TIE_TOL = 1e-9


class ResponseKind(Enum):
    ZERO = "Zero"
    MAX = "Max"
    INDIFFERENT = "Indifferent"


@dataclass(frozen=True)
class BestResponse:
    """A user's optimal deviation set given the promise and the crowd.

    value_set is a closed interval (lo, hi): ({0}, {M}, or [0, M] when
    indifferent).
    """

    kind: ResponseKind
    value_set: tuple[float, float]

    def contains(self, sigma: float) -> bool:
        lo, hi = self.value_set
        return lo <= sigma <= hi


class MfgRegime(Enum):
    NO_OBFUSCATION = "NoObfuscation"
    BISTABLE = "Bistable"
    FULL_OBFUSCATION = "FullObfuscation"


@dataclass(frozen=True)
class MfgEquilibria:
    """Symmetric fixed points of the best-response map at one promise level."""

    equilibria: tuple[float, ...]
    selected: float
    regime: MfgRegime


@dataclass
class CascadeTrace:
    """Round-by-round record of best-response dynamics.

    rounds[0] is the seeded initial state; one entry per full update pass
    follows.  adoption_fraction tracks the share of agents at M per entry.
    converged means the last pass changed no agent (so the final two states
    are identical).  final_mean_variance is the mean of agent variances in
    the final state.
    """

    rounds: list[np.ndarray]
    adoption_fraction: list[float]
    converged: bool
    final_mean_variance: float


def best_response(params: GameParams, sigma_L: float, sigma_bar_other: float,
                  tol: float = INDIFFERENCE_TOL) -> BestResponse:
    """Corner best response: abstain when the promise-only privacy loss falls
    short of the value of abstaining, obfuscate fully when it exceeds it,
    indifferent within ``tol`` of the crossing."""
    pressure = privacy_pressure(params, sigma_L)
    abstain = abstain_value(params, sigma_L, sigma_bar_other)
    if pressure < abstain - tol:
        return BestResponse(ResponseKind.ZERO, (0.0, 0.0))
    if pressure > abstain + tol:
        return BestResponse(ResponseKind.MAX, (params.M, params.M))
    return BestResponse(ResponseKind.INDIFFERENT, (0.0, params.M))


def _user_utility_grid(params: GameParams, sigma_L: float,
                       sigma_bar_other: float, sigma_S: np.ndarray) -> np.ndarray:
    """user_utility evaluated elementwise over an array of own deviations."""
    cv = params.conventions
    n = params.N
    k = kappa(params)
    eps_g = cv.c_g * k * (sigma_L**2
                          + ((n - 1) / n) * sigma_bar_other**2
                          + sigma_S**2 / n)
    total = sigma_L**2 + sigma_S**2
    with np.errstate(divide="ignore", invalid="ignore"):
        eps_p = cv.c_p * np.where(total > 0, total, np.nan) ** (-cv.privacy_exponent)
    leak = np.where(total > 0, -np.expm1(-eps_p), 1.0)
    return (params.A_S * np.exp(-eps_g)
            - params.P_S * leak
            - params.C_S * (sigma_S > 0))


def best_response_oracle(params: GameParams, sigma_L: float,
                         sigma_bar_other: float, grid_size: int) -> np.ndarray:
    """Brute-force argmax of user_utility over {0} and a uniform grid on
    (0, M].  Returns every grid point within ORACLE_TIE_TOL of the maximum;
    an interior point signals that the corner characterization's asymptotic
    assumptions do not hold at these parameters."""
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    grid = np.concatenate(
        ([0.0], np.linspace(params.M / grid_size, params.M, grid_size)))
    util = _user_utility_grid(params, sigma_L, sigma_bar_other, grid)
    return grid[util >= util.max() - ORACLE_TIE_TOL]


def mfg_equilibria(params: GameParams, sigma_L: float) -> MfgEquilibria:
    """Classify the symmetric fixed points at one promise level.

    All-zero is a fixed point when pressure does not exceed the abstain value
    against a non-obfuscating crowd; all-M when pressure is at least the
    abstain value against a fully obfuscating crowd.  Both conditions can
    hold at once (bistable); the selected equilibrium follows ``gamma``,
    which picks 0 in the bistable band.
    """
    pressure = privacy_pressure(params, sigma_L)
    at_zero = abstain_value(params, sigma_L, 0.0)
    at_max = abstain_value(params, sigma_L, params.M)
    points = []
    if pressure <= at_zero:
        points.append(0.0)
    if pressure >= at_max:
        points.append(params.M)
    if len(points) == 2:
        regime = MfgRegime.BISTABLE
    elif points == [0.0]:
        regime = MfgRegime.NO_OBFUSCATION
    else:
        regime = MfgRegime.FULL_OBFUSCATION
    return MfgEquilibria(tuple(points), gamma(params, sigma_L), regime)


def gamma(params: GameParams, sigma_L: float) -> float:
    """Induced symmetric response: M exactly when the promise-only privacy
    loss strictly exceeds the abstain value against a non-obfuscating crowd,
    else 0 (the selection in the bistable band)."""
    pressure = privacy_pressure(params, sigma_L)
    return params.M if pressure > abstain_value(params, sigma_L, 0.0) else 0.0


def fixed_point_check(params: GameParams, sigma_L: float, sigma_bar: float) -> bool:
    """True iff a crowd at sigma_bar best-responds with sigma_bar itself."""
    return best_response(params, sigma_L, sigma_bar).contains(sigma_bar)


def cascade_simulate(params: GameParams, sigma_L: float, seed_fraction: float,
                     schedule: str = "async", rng_seed: int = 0,
                     max_rounds: int = 100) -> CascadeTrace:
    """Run corner best-response dynamics for N agents.

    ceil(seed_fraction * N) agents start at M, the rest at 0.  Each round is
    one full pass updating every agent against the empirical mean deviation
    of the others; "async" (default) updates in a freshly drawn random order
    using current states, "sync" updates all agents from the round-start
    snapshot.  Indifferent agents keep their current action.  Stops after a
    pass with no change, or after max_rounds with converged=False.
    """
    if not 0.0 <= seed_fraction <= 1.0:
        raise ValueError("seed_fraction must lie in [0, 1]")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if schedule not in ("async", "sync"):
        raise ValueError("schedule must be 'async' or 'sync'")

    n, M = params.N, params.M
    # An agent's response depends only on k, the number of other agents at
    # M: their mean deviation is sqrt(M^2 k / (N - 1)), 0 for a lone agent.
    # The root is capped at M, which it can exceed by rounding at k = N - 1.
    # None marks indifference (the agent keeps its action), else True for M.
    targets = []
    for k in range(n):
        kind = best_response(
            params, sigma_L, min(M, math.sqrt(M * M * k / max(n - 1, 1)))).kind
        targets.append(None if kind is ResponseKind.INDIFFERENT
                       else kind is ResponseKind.MAX)

    rng = np.random.default_rng(rng_seed)
    states = np.zeros(n, dtype=bool)
    states[: math.ceil(seed_fraction * n)] = True
    at_max = int(states.sum())

    def snapshot() -> np.ndarray:
        return np.where(states, M, 0.0)

    rounds = [snapshot()]
    fractions = [states.mean()]
    converged = False
    for _ in range(max_rounds):
        if schedule == "async":
            changed = False
            for i in rng.permutation(n).tolist():
                current = bool(states[i])
                target = targets[at_max - current]
                if target is None or target == current:
                    continue
                states[i] = target
                at_max += 1 if target else -1
                changed = True
        else:
            prev = states.copy()
            # agents at M see at_max - 1 others there, agents at 0 see at_max
            if at_max > 0 and targets[at_max - 1] is not None:
                states[prev] = targets[at_max - 1]
            if at_max < n and targets[at_max] is not None:
                states[~prev] = targets[at_max]
            changed = bool(np.any(states != prev))
            at_max = int(states.sum())
        rounds.append(snapshot())
        fractions.append(states.mean())
        if not changed:
            converged = True
            break
    mean_variance = float(M * M * states.mean())
    return CascadeTrace(rounds, [float(f) for f in fractions], converged,
                        mean_variance)


def br_curve(params: GameParams, sigma_L: float,
             n_points: int) -> list[tuple[float, BestResponse]]:
    """Sample the best response against n_points crowd levels spread
    uniformly over [0, M]; suitable for plotting response diagrams."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    levels = np.linspace(0.0, params.M, n_points)
    return [(float(s), best_response(params, sigma_L, float(s))) for s in levels]
