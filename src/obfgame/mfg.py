"""Mean-field layer: user best responses, symmetric fixed points, the induced
response map, and best-response adoption dynamics among N agents."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import _check_count, _check_positive
from .model import (GameParams, _elementwise, _float_array, _pressure_gap,
                    _variance, user_utility)

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

    Every agent sits at 0 or at M, and after any move every agent sits at the
    same corner, so a state is its count of agents at M.  rounds[0] is the
    seeded count; one entry per full update pass follows.
    adoption_fraction is that count over N per entry.  converged means the
    last pass changed no agent (so the final two counts are equal).
    final_mean_variance is the mean of agent variances in the final state.
    """

    rounds: list[int]
    adoption_fraction: list[float]
    converged: bool
    final_mean_variance: float


def _response(params: GameParams, sigma_L: float, sigma_bar_other: float,
              tol: float = INDIFFERENCE_TOL) -> tuple[bool, bool]:
    """The corner rule on Python floats, (obfuscate, abstain): true where the
    promise-only privacy loss exceeds, or falls short of, the abstain value
    by more than tol; tol = 0 is the strict rule of gamma and the fixed
    points.  Neither holds where the user is indifferent."""
    gap = _pressure_gap(params, _variance(params, "sigma_L", sigma_L),
                        _variance(params, "sigma_bar_other", sigma_bar_other))
    return gap > tol, gap < -tol


def best_response(params: GameParams, sigma_L: float,
                  sigma_bar_other: float) -> BestResponse:
    """Corner best response: abstain when the promise-only privacy loss falls
    short of the value of abstaining, obfuscate fully when it exceeds it,
    indifferent within INDIFFERENCE_TOL of the crossing."""
    obfuscate, abstain = _response(params, sigma_L, sigma_bar_other)
    if abstain:
        return BestResponse(ResponseKind.ZERO, (0.0, 0.0))
    if obfuscate:
        return BestResponse(ResponseKind.MAX, (params.M, params.M))
    return BestResponse(ResponseKind.INDIFFERENT, (0.0, params.M))


def best_response_oracle(params: GameParams, sigma_L: float,
                         sigma_bar_other: float, grid_size: int) -> np.ndarray:
    """Brute-force argmax of user_utility over {0} and a uniform grid on
    (0, M].  Returns every grid point within ORACLE_TIE_TOL of the maximum;
    an interior point signals that the corner characterization's asymptotic
    assumptions do not hold at these parameters."""
    _check_count("grid_size", grid_size, 2)
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
    else 0 (the selection in the bistable band).  Takes a promise, or an
    array of promises decided point by point on Python floats."""
    if isinstance(sigma_L, (float, int)):
        return params.M * _response(params, sigma_L, 0.0, 0.0)[0]
    return _elementwise(lambda sigma: gamma(params, sigma),
                        _float_array("sigma_L", sigma_L))


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
    no change, or after max_rounds with converged=False.  A round decides
    from the rule at its count k, read on floats as best_response reads
    it, and costs O(1) in N.

    The order decides an async round only where agents at both corners
    want the other one, which can happen in the first round alone: only
    then is the first agent of a random order drawn from rng_seed (a
    non-negative integer), so rng_seed changes nothing else.
    """
    _check_positive("seed_fraction", seed_fraction, zero=True)
    if seed_fraction > 1.0:
        raise ValueError("seed_fraction must lie in [0, 1]")
    _check_count("max_rounds", max_rounds, 1)
    if schedule not in ("async", "sync"):
        raise ValueError("schedule must be 'async' or 'sync'")
    _check_count("rng_seed", rng_seed, 0)

    n, M = params.N, params.M
    k = bisect.bisect_left(range(n + 1), seed_fraction, key=lambda k: k / n)
    rounds = [k]
    converged = False
    for _ in range(max_rounds):
        # An agent at 0 sees j = k others at M (read while k < N) and one at
        # M sees k - 1: their mean deviation sqrt(M^2 j / (N - 1)) is 0 for a
        # lone agent and capped at M, which it can exceed at j = N - 1, and
        # which it takes where M^2 j overflows to inf.
        up = k < n and _response(params, sigma_L, min(
            M, math.sqrt(M * M * k / max(n - 1, 1))))[0]
        down = k > 0 and _response(params, sigma_L, min(
            M, math.sqrt(M * M * (k - 1) / max(n - 1, 1))))[1]
        if up and down:
            # Every agent wants the other corner: sync swaps them all, and
            # async takes all where the first of a random order goes, as
            # the gap does not fall as j grows (abstain holds up to some j
            # and obfuscate from a larger one).  Any async move leaves a
            # unanimous state, so async gets here in round one only, where
            # the agents at M are the seeded first k.
            if schedule == "sync":
                k = n - k
            else:
                first = np.random.default_rng(rng_seed).integers(n)
                k = 0 if first < k else n
        elif up or down:
            k = n if up else 0  # all end where the movers go
        rounds.append(k)
        if not (up or down):
            converged = True
            break
    return CascadeTrace(rounds, [c / n for c in rounds], converged,
                        M * M * (k / n))


def br_curve(params: GameParams, sigma_L: float,
             n_points: int) -> list[tuple[float, BestResponse]]:
    """best_response at n_points crowd levels spread uniformly over [0, M]
    (Python floats); suitable for plotting response diagrams."""
    _check_count("n_points", n_points, 2)
    return [(s, best_response(params, sigma_L, s))
            for s in np.linspace(0.0, params.M, n_points).tolist()]
