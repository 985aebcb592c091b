"""Crossings of privacy pressure and the abstain value in the promise, the
search behind tau_exact, from the model's scalar laws only (no numpy call).

Against a non-obfuscating crowd the gap in the variance v = sigma^2 is
g(v) = P_S (1 - exp(-c v^-e)) - A_S exp(-a v) - C_S, with a = c_g kappa,
c = c_p and e = privacy_exponent.  Both laws fall, so g rises exactly where
d = ln|P'| - ln|B'| = ln(P_S c e/(a A_S)) - c v^-e - (e + 1) ln v + a v is
negative.  d runs from -inf at 0 to +inf, and v^(e+1) d' =
a v^(e+1) - (e + 1) v^e + c e has at most two positive roots, so d rises,
falls and rises again on at most three intervals, on each of which g has at
most one extremum: a maximum where d rises, a minimum where it falls."""

from __future__ import annotations

import math
from collections.abc import Iterator

from .model import GameParams, _abstain, _pressure_gap, _privacy_loss

__all__ = ["threshold_crossings"]

# _refine stops at a bracket this share of its upper end wide (_extremum: this
# wide in ln v) or after this many steps
ROOT_BISECTION_WIDTH = 1e-12
REFINE_STEPS = 1000


def _critical_points(a: float, c: float, e: float, top: float) -> list[float]:
    """The variances in [0, top) where d' = 0, ascending: the positive roots
    of a v^2 - 2 v + c (e = 1), or the squares of those of
    a t^3 - 1.5 t + 0.5 c (e = 0.5), two where a c^2 < 2.  Each is taken in
    a form that neither cancels nor divides by a, and a smaller root that
    underflows to 0 is kept, so that the intervals keep their parity."""
    if e == 1.0:
        if not a * c < 1.0:
            return []
        r = math.sqrt(1.0 - a * c)
        low, high = c / (1.0 + r), 1.0 + r  # the larger root is high/a
    else:
        x = -c * math.sqrt(0.5 * a)
        if not x > -1.0:
            return []
        # the larger root is sqrt(2/a) k; the smaller, t, follows by Vieta
        k = math.cos(math.acos(x) / 3.0)
        t = c / (k * (2.0 * k + math.sqrt(
            4.0 * k * k + 2.0 * c * math.sqrt(2.0 * a) / k)))
        low, high = t * t, 2.0 * k * k  # t**2 raises OverflowError past 1e154
    points = [low, high / a] if high < a * top else [low]
    return [v for v in points if v < top]


def _extremum(params: GameParams, lo: float, hi: float,
              rising: bool) -> float:
    """The promise in [lo, hi] where the gap peaks (rising: d goes from - to
    +) or dips (d goes from + to -), by bisection of d's sign in ln v to
    ROOT_BISECTION_WIDTH; the end where it does, if d keeps its sign."""
    cv = params.conventions
    a, c, e = params._weight, cv.c_p, cv.privacy_exponent
    shift = (math.log(params.P_S) - math.log(params.A_S) + math.log(c)
             + math.log(e) - math.log(a))
    x_lo = 2.0 * math.log(lo) if lo > 0.0 else math.log(math.ulp(0.0))
    x_hi = 2.0 * math.log(hi)
    while x_hi - x_lo > ROOT_BISECTION_WIDTH:
        x = 0.5 * (x_lo + x_hi)
        try:  # whether d > 0 (the gap falls) at v = exp(x)
            falls = (shift - (e + 1.0) * x + a * math.exp(x)
                     > c * math.exp(-e * x))
        except OverflowError:  # c v^-e dominates below v = 1, a v above
            falls = x > 0.0
        if falls == rising:
            x_hi = x
        else:
            x_lo = x
    return min(max(math.exp(0.5 * x_lo), lo), hi)


def _refine(params: GameParams, lo: float, hi: float, f_lo: float,
            f_hi: float) -> float:
    """Root of the pressure gap in a bracket whose ends differ in sign (its
    gaps there, f_lo and f_hi: one positive, the other at most 0), by
    Illinois regula falsi: each step cuts at the secant through the ends,
    and halves the value of an end kept twice in a row.  Stops once the
    bracket is at most ROOT_BISECTION_WIDTH of its upper end wide, no float
    lies inside it or REFINE_STEPS have run, and returns its deterred end,
    where the gap is at most 0 (gamma is 0 there).  A gap of exactly 0
    deters: a step that finds one returns it where the gap is positive at
    the next float toward the other end."""
    deterred_lo = f_lo <= 0.0
    kept = 0  # +1 when lo was kept by the last step, -1 when hi was
    for _ in range(REFINE_STEPS):
        if not hi - lo > ROOT_BISECTION_WIDTH * hi:
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


def _crossings(params: GameParams) -> Iterator[float]:
    """The roots of threshold_crossings, yielded as the walk up d's intervals
    reaches them; it takes the laws at each end only once it gets there."""
    cv = params.conventions
    a, M = params._weight, params.M
    ends = [math.sqrt(v) for v in _critical_points(
        a, cv.c_p, cv.privacy_exponent, M * M)]
    lo, P_lo, B_lo = 0.0, _privacy_loss(params, 0.0, 0.0), _abstain(
        params, 0.0, 0.0)
    for k, hi in enumerate(ends + [M]):
        if not lo < hi:
            continue  # empty, but it keeps the parity of the rest
        P_hi, B_hi = _privacy_loss(params, hi * hi, 0.0), _abstain(
            params, hi * hi, 0.0)
        f_lo, f_hi = P_lo - B_lo, P_hi - B_hi  # the gap, as _pressure_gap
        rising = k % 2 == 0
        if (f_lo > 0.0) != (f_hi > 0.0):
            yield _refine(params, lo, hi, f_lo, f_hi)
        elif (f_lo > 0.0) != rising and a > 0.0 and (
                P_lo > B_hi if rising else P_hi <= B_lo):
            # an extremum that may cross 0 (a = 0 leaves the gap falling):
            # both laws fall, so P(lo) - B(hi) bounds a maximum from above
            # and P(hi) - B(lo) a minimum from below
            mid = _extremum(params, lo, hi, rising)
            f_mid = _pressure_gap(params, mid * mid, 0.0)
            if (f_mid > 0.0) != (f_lo > 0.0):
                yield _refine(params, lo, mid, f_lo, f_mid)
                yield _refine(params, mid, hi, f_mid, f_hi)
        lo, P_lo, B_lo = hi, P_hi, B_hi


def threshold_crossings(params: GameParams) -> list[float]:
    """Every real root of pressure - abstain_value on (0, M], smallest
    first, each located to ROOT_BISECTION_WIDTH of its size at its deterred
    end (gamma is 0 there).

    The closed-form critical points of d (module docstring) cut [0, M] into
    intervals on which the gap is monotone or has one extremum.  Ends of
    different sign bracket exactly one root, which _refine locates; ends of
    one sign hold two where the extremum (_extremum) crosses 0, which only a
    maximum between deterred ends or a minimum between obfuscating ones can,
    and only where the laws at the ends do not bound it away from 0.
    """
    return list(_crossings(params))
