"""Crossings of privacy pressure and the abstain value in the promise: the
proved search behind tau_exact.  It reads the model's scalar laws only, so
it makes no numpy call."""

from __future__ import annotations

import math
from collections.abc import Generator, Iterator

from .model import (
    GameParams,
    _abstain,
    _pressure_gap,
    _privacy,
    _privacy_loss,
)

__all__ = ["threshold_crossings"]

# _refine stops at a bracket this wide, or after this many steps.
ROOT_BISECTION_WIDTH = 1e-12
REFINE_STEPS = 1000
# A step aims this share of the laws' value inside its cell bound, and a
# slope check asks one slope to beat the other by this share.
LAW_SLACK = 2.0**-30
# A secant probe lands this share of the predicted distance past the root.
PROBE_OVERSHOOT = 0.5
# Caps: steps per stretch between crossings, stretches, and evaluations of
# the fallback bisection in one search.
STRETCH_STEPS = 48
MAX_STRETCHES = 16
BISECTION_CELLS = 4096


def _laws(params: GameParams, sigma: float) -> tuple[float, float]:
    """(P, B) at a promise: the privacy loss and the abstain value against a
    non-obfuscating crowd.  Both are non-increasing in sigma, and P - B is
    the pressure gap that gamma reads."""
    v = sigma * sigma
    return _privacy_loss(params, v, 0.0), _abstain(params, v, 0.0)


def _obfuscates(laws: tuple[float, float]) -> bool:
    """Whether the gap is positive (the crowd answers M) where the laws are
    these; a gap of 0 deters."""
    return laws[0] > laws[1]


def _holds(lo: tuple[float, float], hi: tuple[float, float],
           obfuscates: bool) -> bool:
    """The cell bound, from the laws at a cell's ends: the gap is positive on
    the whole cell where P(hi) > B(lo), and at most 0 where P(lo) <= B(hi).
    The laws' float kernels are monotone (math.exp and ** are, and so is
    rounding a square x * x of x >= 0 or a product or sum with a fixed
    operand), and the sign of a float difference is exact, so the bound
    holds for the computed gap at every float in the cell."""
    return hi[0] > lo[1] if obfuscates else lo[0] <= hi[1]


def _reach(params: GameParams, laws: tuple[float, float],
           obfuscates: bool) -> float:
    """The far end of the longest cell the bound can prove from a lower end
    with these laws, by the inverse laws: P^-1(B) where the gap is positive
    and B^-1(P) where it is not.  It aims inside the bound by LAW_SLACK of
    the laws' value, but by at most half the gap, so that rounding rarely
    fails the bound and a step never stays put.  inf where the law never
    falls to the value, 0 where it starts at or below it."""
    P, B = laws
    margin = min(LAW_SLACK * max(P, B), 0.5 * abs(P - B))
    cv = params.conventions
    if obfuscates:
        # P(v) = P_S (1 - exp(-c_p v^-e)) falls to B + margin
        share = (B + margin) / params.P_S
        if not share < 1.0:
            return 0.0
        if not share > 0.0:
            return math.inf
        try:
            v = (cv.c_p / -math.log1p(-share)) ** (1.0 / cv.privacy_exponent)
        except OverflowError:
            return math.inf
    else:
        # B(v) = A_S exp(-c_g kappa v) + C_S falls to P + margin
        share = (P + margin - params.C_S) / params.A_S
        if not share > 0.0:
            return math.inf
        if not share < 1.0:
            return 0.0
        v = -math.log(share) / (cv.c_g * params._kappa)
    return math.sqrt(v)


def _privacy_slope(params: GameParams, v: float, eps: float) -> float:
    """|dP/dv| at a variance v whose privacy level is eps: P_S e eps
    exp(-eps)/v, and 0 where eps is inf (v = 0)."""
    if eps == math.inf:
        return 0.0
    return (params.P_S * params.conventions.privacy_exponent * eps
            * math.exp(-eps) / v)


def _monotone(params: GameParams, lo: float, hi: float) -> bool:
    """Whether the gap, taken in real numbers, is strictly monotone on
    [lo, hi], so that a bracket there holds one root.  In v = sigma^2,
    |B'| = c_g kappa A_S exp(-c_g kappa v) falls, and |P'| rises until
    eps = (e + 1)/e and then falls (_privacy_slope).  So the gap falls where
    |P'| at both ends beats |B'| at lo, and rises where |B'| at hi beats
    |P'| at the peak clipped to the cell, each by LAW_SLACK.  The computed
    gap can then change sign more than once only within its rounding near
    the root."""
    cv = params.conventions
    scale = cv.c_g * params._kappa
    v_lo, v_hi = lo * lo, hi * hi
    eps_lo, eps_hi = _privacy(params, v_lo, 0.0), _privacy(params, v_hi, 0.0)
    slope_lo = _privacy_slope(params, v_lo, eps_lo)
    slope_hi = _privacy_slope(params, v_hi, eps_hi)
    slack = 1.0 + LAW_SLACK
    if (min(slope_lo, slope_hi)
            > scale * params.A_S * math.exp(-scale * v_lo) * slack):
        return True
    e = cv.privacy_exponent
    peak = (e + 1.0) / e
    steepest = (slope_lo if eps_lo <= peak else slope_hi if eps_hi >= peak
                else _privacy_slope(params, (cv.c_p / peak)**(1.0 / e), peak))
    return scale * params.A_S * math.exp(-scale * v_hi) > steepest * slack


def _refine(params: GameParams, lo: float, hi: float, f_lo: float,
            f_hi: float) -> float:
    """Root of the pressure gap in a bracket whose ends differ in sign (its
    gaps there, f_lo and f_hi: one positive, the other at most 0), by
    Illinois regula falsi: each step cuts the bracket at the secant through
    its ends, and an end kept twice in a row has its value halved, which
    keeps its sign.  Stops once the bracket is at most ROOT_BISECTION_WIDTH
    wide, no float lies strictly inside it or REFINE_STEPS have run, and
    returns its deterred end, where the gap is at most 0, so that gamma is
    0 at the returned root.  A gap of exactly 0 deters: a step that finds
    one returns it where the gap is positive at the next float toward the
    bracket's other end, and else keeps closing on where the sign
    changes."""
    deterred_lo = f_lo <= 0.0
    kept = 0  # +1 when lo was kept by the last step, -1 when hi was
    for _ in range(REFINE_STEPS):
        if not hi - lo > ROOT_BISECTION_WIDTH:
            break
        # the ends differ in sign, but a halved gap can underflow to the 0
        # of the other end: then the cut is the midpoint
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo) if f_hi != f_lo else lo
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        f_x = _pressure_gap(params, x * x, 0.0)
        if f_x == 0.0:
            y = math.nextafter(x, hi if deterred_lo else lo)
            if _pressure_gap(params, y * y, 0.0) > 0.0:
                return x  # the sign changes at the next float
        if (f_x <= 0.0) == deterred_lo:
            lo, f_lo = x, f_x
            f_hi *= 0.5 if kept == -1 else 1.0
            kept = -1
        else:
            hi, f_hi = x, f_x
            f_lo *= 0.5 if kept == 1 else 1.0
            kept = 1
    return lo if deterred_lo else hi


Cell = tuple  # (lo, laws at lo, hi, laws at hi)


def _bisect(params: GameParams, cell: Cell,
            budget: int) -> Generator[float, None, int]:
    """Depth-first bisection of a cell by the bound, smallest part first.  A
    part the bound proves of one sign holds no root.  A part whose ends
    differ in sign goes to _refine once the gap is monotone on it, it is at
    most ROOT_BISECTION_WIDTH wide, no float lies inside it or the budget of
    evaluations is spent; a part of one sign that is not proved by then is
    taken to hold none.  Yields the roots and returns the budget left."""
    stack = [cell]
    while stack:
        lo, l_lo, hi, l_hi = stack.pop()
        sign_change = _obfuscates(l_lo) != _obfuscates(l_hi)
        if not sign_change and _holds(l_lo, l_hi, _obfuscates(l_lo)):
            continue
        mid = 0.5 * (lo + hi)
        if ((sign_change and _monotone(params, lo, hi)) or not (
                budget > 0 and hi - lo > ROOT_BISECTION_WIDTH
                and lo < mid < hi)):
            if sign_change:
                yield _refine(params, lo, hi, l_lo[0] - l_lo[1],
                              l_hi[0] - l_hi[1])
            continue
        budget -= 1
        l_mid = _laws(params, mid)
        stack += [(mid, l_mid, hi, l_hi), (lo, l_lo, mid, l_mid)]
    return budget


def _advance(params: GameParams, lo: float, l_lo: tuple[float, float],
             top: tuple[float, float]) -> Cell | None:
    """Proved steps from lo toward M, where top holds the laws at M.  Each
    step goes to the reach of the inverse laws, halved while the bound
    fails.  Once the steps shrink (they converge on a root), a secant
    through the last two ends probes PROBE_OVERSHOOT past the root it
    predicts.  Returns None once the bound proves [lo, M] of one sign; else
    the cell left to search beyond the proved run: the bracket that a step
    or a probe found, or the rest of [lo, M] where the steps stall or
    STRETCH_STEPS of them run out."""
    M, above = params.M, _obfuscates(l_lo)
    last, share = math.inf, 1.0
    for _ in range(STRETCH_STEPS):
        if _holds(l_lo, top, above):
            return None
        hi = lo + share * (min(_reach(params, l_lo, above), M) - lo)
        if not lo < hi:
            break
        l_hi = _laws(params, hi)
        if _obfuscates(l_hi) != above:
            return lo, l_lo, hi, l_hi
        if not _holds(l_lo, l_hi, above):
            share *= 0.5
            continue
        gap_lo, gap = l_lo[0] - l_lo[1], l_hi[0] - l_hi[1]
        shrinking = hi - lo < last
        prev, last, share, lo, l_lo = lo, hi - lo, 1.0, hi, l_hi
        if not (shrinking and abs(gap) < abs(gap_lo)):
            continue
        root = lo - gap * (lo - prev) / (gap - gap_lo)
        probe = min(root + PROBE_OVERSHOOT * (root - lo), M)
        if lo < probe:
            l_probe = _laws(params, probe)
            if _obfuscates(l_probe) != above:
                return lo, l_lo, probe, l_probe
            if _holds(l_lo, l_probe, above):
                lo, l_lo = probe, l_probe
    return lo, l_lo, M, top


def _crossings(params: GameParams) -> Iterator[float]:
    """The roots of threshold_crossings, yielded as the search reaches them."""
    top = _laws(params, params.M)
    lo, l_lo = 0.0, _laws(params, 0.0)
    budget = BISECTION_CELLS
    for _ in range(MAX_STRETCHES):
        cell = _advance(params, lo, l_lo, top)
        if cell is None:
            return
        budget = yield from _bisect(params, cell, budget)
        _, _, lo, l_lo = cell
    yield from _bisect(params, (lo, l_lo, params.M, top), budget)


def threshold_crossings(params: GameParams) -> list[float]:
    """All roots of pressure - abstain_value on (0, M], smallest first; each
    is the deterred end of its crossing (gamma is 0 there).

    The search runs from 0 in proved steps (_advance): the cell bound
    (_holds) proves each step free of roots on the computed gap, and the
    inverse laws (_reach) propose how far it can go.  A sign change past a
    proved run is a bracket, and _refine locates its root where the slope
    bounds show the gap monotone on it (_monotone).  Other brackets, and
    stretches where the steps stall (as near a tangency), are bisected by
    the bound (_bisect).  Every loop is capped: MAX_STRETCHES crossings by
    steps, then bisection of the rest with at most BISECTION_CELLS
    evaluations, beyond which a part whose ends share a sign is taken to
    hold no root.

    More than one root can occur away from the default conventions (and for
    extreme kappa); ``tau_exact`` stops the search at the smallest.
    """
    return list(_crossings(params))
