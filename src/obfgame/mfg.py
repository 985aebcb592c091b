"""Mean-field layer: user best responses, symmetric fixed points, the induced
response map, and best-response adoption dynamics among N agents."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import GameParams, _pressure_gap, _quiet, _variance, user_utility

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


def _response(params: GameParams, sigma_L, sigma_bar_other,
              tol: float = INDIFFERENCE_TOL):
    """The corner decision rule, elementwise: the masks (obfuscate, abstain),
    true where the promise-only privacy loss exceeds, or falls short of, the
    value of abstaining by more than tol; tol = 0 is the strict rule of gamma
    and the fixed points.  Neither holds where the user is indifferent."""
    gap = _quiet(_pressure_gap, params, _variance(params, "sigma_L", sigma_L),
                 _variance(params, "sigma_bar_other", sigma_bar_other))
    return gap > tol, gap < -tol


def _corner(params: GameParams, obfuscate: bool, abstain: bool) -> BestResponse:
    if abstain:
        return BestResponse(ResponseKind.ZERO, (0.0, 0.0))
    if obfuscate:
        return BestResponse(ResponseKind.MAX, (params.M, params.M))
    return BestResponse(ResponseKind.INDIFFERENT, (0.0, params.M))


def best_response(params: GameParams, sigma_L: float,
                  sigma_bar_other: float) -> BestResponse:
    """Corner best response: abstain when the promise-only privacy loss falls
    short of the value of abstaining, obfuscate fully when it exceeds it,
    indifferent within INDIFFERENCE_TOL of the crossing."""
    return _corner(params, *_response(params, sigma_L, sigma_bar_other))


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
    util = user_utility(params, sigma_L, sigma_bar_other, grid)
    return grid[util >= util.max() - ORACLE_TIE_TOL]


def mfg_equilibria(params: GameParams, sigma_L: float) -> MfgEquilibria:
    """Classify the symmetric fixed points at one promise level.

    All-zero is a fixed point when pressure does not exceed the abstain value
    against a non-obfuscating crowd; all-M when pressure is at least the
    abstain value against a fully obfuscating crowd.  Both conditions can
    hold at once (bistable); the selected equilibrium follows ``gamma``,
    which picks 0 in the bistable band.
    """
    at_zero = not _response(params, sigma_L, 0.0, 0.0)[0]
    at_max = not _response(params, sigma_L, params.M, 0.0)[1]
    regime = (MfgRegime.BISTABLE if at_zero and at_max
              else MfgRegime.NO_OBFUSCATION if at_zero
              else MfgRegime.FULL_OBFUSCATION)
    return MfgEquilibria((0.0,) * at_zero + (params.M,) * at_max,
                         params.M * (not at_zero), regime)


def gamma(params: GameParams, sigma_L: float | np.ndarray) -> float | np.ndarray:
    """Induced symmetric response: M exactly when the promise-only privacy
    loss strictly exceeds the abstain value against a non-obfuscating crowd,
    else 0 (the selection in the bistable band).  Takes a promise or an array
    of promises."""
    return params.M * _response(params, sigma_L, 0.0, 0.0)[0]


def fixed_point_check(params: GameParams, sigma_L: float, sigma_bar: float) -> bool:
    """True iff a crowd at sigma_bar best-responds with sigma_bar itself."""
    return best_response(params, sigma_L, sigma_bar).contains(sigma_bar)


def cascade_simulate(params: GameParams, sigma_L: float, seed_fraction: float,
                     schedule: str = "async", rng_seed: int = 0,
                     max_rounds: int = 100) -> CascadeTrace:
    """Run corner best-response dynamics for N agents.

    k agents start at M and the rest at 0, k the smallest count with
    k/N >= seed_fraction in float division.  Each round is one full pass
    updating every agent against the empirical mean deviation of the
    others; "async" (default) updates in a freshly drawn random order using
    current states, "sync" updates all agents from the round-start snapshot.
    Indifferent agents keep their current action.  Stops after a pass with
    no change, or after max_rounds with converged=False.  A round costs O(N).

    The order decides an async round only where agents at both corners
    want the other one, which can happen in the first round alone: only
    then is a random order drawn from rng_seed (a non-negative integer), so
    rng_seed changes nothing else.
    """
    if not 0.0 <= seed_fraction <= 1.0:
        raise ValueError("seed_fraction must lie in [0, 1]")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if schedule not in ("async", "sync"):
        raise ValueError("schedule must be 'async' or 'sync'")
    if operator.index(rng_seed) < 0:  # as np.random.default_rng refuses
        raise ValueError(f"rng_seed={rng_seed} must be a non-negative integer")

    n, M = params.N, params.M
    # An agent's response depends only on j, the number of other agents at
    # M: their mean deviation is sqrt(M^2 j / (N - 1)), 0 for a lone agent.
    # The root is capped at M, which it can exceed by rounding at j = N - 1.
    crowd = np.minimum(M, np.sqrt(M * M * np.arange(n) / max(n - 1, 1)))
    obfuscate, abstain = _response(params, sigma_L, crowd)
    # With k agents at M, up[k] says whether an agent at 0 moves to M (it
    # sees k others there) and down[k] whether an agent at M moves to 0 (it
    # sees k - 1).  The padding keeps a unanimous state from moving away
    # from its corner.
    up = np.append(obfuscate, False)
    down = np.insert(abstain, 0, False)

    states = np.zeros(n, dtype=bool)
    states[: np.searchsorted(np.arange(n + 1) / n, seed_fraction)] = True
    rounds = [np.where(states, M, 0.0)]
    fractions = [states.mean()]
    converged = False
    for _ in range(max_rounds):
        k = np.count_nonzero(states)
        moving = up[k] or down[k]
        if up[k] and down[k]:
            # Every agent wants the other corner: sync swaps them all, and
            # async takes all where the first of a random order goes, as
            # the gap does not fall as k grows (abstain is a prefix and
            # obfuscate a suffix of the table).  Any async move leaves a
            # unanimous state, so async gets here in round one only.
            if schedule == "sync":
                states = ~states
            else:
                first = np.random.default_rng(rng_seed).permutation(n)[0]
                states[:] = not states[first]
        elif moving:
            states[:] = up[k]  # all end where the movers go
        rounds.append(np.where(states, M, 0.0))
        fractions.append(states.mean())
        if not moving:
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
    obfuscate, abstain = _response(params, sigma_L, levels)
    return [(s, _corner(params, o, a)) for s, o, a in
            zip(levels.tolist(), obfuscate.tolist(), abstain.tolist())]
