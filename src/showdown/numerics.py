"""Shared numerical kernels.

Bracketed root finding two ways; there is no quadrature here, since the
stopping kernel integrates every payoff on Gauss-Legendre rules fitted to its
pieces (`stopping`, `score._node_blocks`).  `solve_root` is
Brent's method on one scalar root: every threshold the solvers return but
game i's theta_r, and the advantaged reply nested inside epsilon_delta,
takes it, with float-only residuals, since numpy's per-call cost on
one-element arrays would outweigh the few evaluations Brent needs (game i's
theta_r and coalition 12's second-mover reply are lockstep Newton iterations
in `sequential`).  `_bisect_roots` is bisection in lockstep over an array of
brackets, for many independent roots of one elementwise residual at once:
figure 3's curve points.

Everything here is pure and allocation-light; values are immutable and safe
to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "NumericsError",
    "BracketError",
    "Bracket",
    "solve_root",
]

_EPS = 2.220446049250313e-16
_BISECT_TOL = 1e-12  # `_bisect_roots`' absolute tolerance


class NumericsError(Exception):
    """Base class for numerical failures raised by this package."""


class BracketError(NumericsError):
    """The supplied interval does not bracket a sign change."""


@dataclass(frozen=True)
class Bracket:
    """A finite interval [lo, hi] expected to bracket a root."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"bracket ends must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise ValueError(f"bracket needs lo < hi, got [{self.lo}, {self.hi}]")


def solve_root(
    f: Callable[[float], float],
    bracket: Bracket | tuple[float, float],
    tol: float = 1e-12,
    *,
    f_ends: tuple[float, float] | None = None,
) -> float:
    """Root of a continuous f inside `bracket`, by Brent's method plus a secant polish.

    Brent's "zeroin" (Algorithms for Minimization without Derivatives, 1973,
    ch. 4) keeps a bracket [b, c] with the best estimate b and takes an
    inverse-quadratic or secant step from b when it falls well inside the
    bracket, a bisection step otherwise, and never a step below the local
    tolerance 2 eps |b| + tol / 2.  f must change sign across the bracket (an
    endpoint evaluating to exactly zero is returned as-is).  The result always
    lies inside the initial bracket and the final bracket width is at most
    `tol` plus 4 eps |b|.  Deterministic.  `f_ends`, when given, holds f at
    the two ends of the bracket, which are then not evaluated again.

    Raises BracketError when there is no sign change and NumericsError when f
    returns a non-finite value.
    """
    if not isinstance(bracket, Bracket):
        bracket = Bracket(*bracket)
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    a, b = bracket.lo, bracket.hi
    fa, fb = (f(a), f(b)) if f_ends is None else f_ends
    for x, v in ((a, fa), (b, fb)):
        if not math.isfinite(v):
            raise NumericsError(f"f({x}) = {v} is not finite")
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise BracketError(
            f"no sign change on [{a}, {b}]: f(lo) = {fa}, f(hi) = {fb}"
        )
    c, fc = a, fa
    d = e = b - a  # last step and the one before it
    while True:
        if (fb < 0.0) == (fc < 0.0):  # the root left [b, c]: a is the other end
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):  # b is the end with the smaller residual
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        m = 0.5 * (c - b)
        if abs(m) <= tol1:
            break
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic through a, b, c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        fb = f(b)
        if not math.isfinite(fb):
            raise NumericsError(f"f({b}) = {fb} is not finite")
        if fb == 0.0:
            return b
    # One secant step across the final bracket sharpens the last few bits.
    x = b - fb * (b - c) / (fb - fc)
    return x if min(b, c) <= x <= max(b, c) else b


def _bisect_roots(f: Callable[[np.ndarray], np.ndarray], lo, hi, f_lo, f_hi) -> np.ndarray:
    """Roots of an elementwise f, one in each bracket [lo, hi], by bisection
    in lockstep.

    lo, hi and the values f_lo, f_hi of f at them broadcast to one shape, and
    f maps an array of points of that shape to its values there, element by
    element.  An end where f is exactly zero is returned as is, as is a
    midpoint where it is; an element whose ends do not change sign (NaN
    among them) gives NaN.  Every other element is halved, its width exactly
    (hi - lo) / 2**k after k steps, until that is at most _BISECT_TOL + 4 eps |x|
    for every x in the bracket (`solve_root`'s final bracket), and then
    takes `solve_root`'s secant step across its final bracket.  So an
    element's result depends only on its own bracket and f there, never on
    the rest of the batch.  Each step evaluates f at every element: at the
    midpoint of a running one, at its lower end once it has finished.

    Raises NumericsError when f returns a non-finite value inside a bracket.
    """
    lo, hi, f_lo, f_hi = (
        np.array(a, dtype=float) for a in np.broadcast_arrays(lo, hi, f_lo, f_hi)
    )
    bracketed = np.sign(f_lo) * np.sign(f_hi) <= 0.0  # False for NaN
    lo_neg = f_lo < 0.0
    root = np.where(f_lo == 0.0, lo, np.where(f_hi == 0.0, hi, np.nan))
    run = bracketed & np.isnan(root)
    width = hi - lo
    with np.errstate(all="ignore"):  # f at finished elements is never read
        # halvings until the width is at most _BISECT_TOL + 4 eps min |x| on [lo, hi]
        floor = _BISECT_TOL + 4.0 * _EPS * np.maximum(0.0, np.maximum(lo, -hi))
        ratio = np.where(run, np.maximum(width / floor, 1.0), 1.0)
        steps = np.ceil(np.log2(ratio)).astype(int)
        steps += run & (np.ldexp(width, -steps) > floor)  # log2's rounding
        # a finished element steps by 0: it stays at lo, where f keeps lo's sign
        step = np.where(run, width, 0.0)
        ends = set(steps[run].tolist())
        for k in range(int(steps.max(initial=0))):
            if k in ends:
                step[steps == k] = 0.0
            step *= 0.5
            mid = lo + step
            f_mid = f(mid)
            if not np.isfinite(f_mid.sum()):
                bad = (step > 0.0) & ~np.isfinite(f_mid)
                if bad.any():
                    raise NumericsError(f"f({mid[bad][0]}) = {f_mid[bad][0]} is not finite")
            zero = f_mid == 0.0
            if np.count_nonzero(zero):
                zero &= step > 0.0
                root[zero], run[zero], step[zero] = mid[zero], False, 0.0
            np.copyto(lo, mid, where=(f_mid < 0.0) == lo_neg)  # the root lies above mid
        # the final bracket [lo, top], and the secant step across it from the
        # end with the smaller residual, b, to the other, c, kept where it
        # lands inside
        top = np.minimum(lo + np.ldexp(width, -steps), hi)
        f_lo, f_top = f(lo), f(top)
        at_lo = ~(abs(f_top) < abs(f_lo))
        b, fb = np.where(at_lo, lo, top), np.where(at_lo, f_lo, f_top)
        c, fc = np.where(at_lo, top, lo), np.where(at_lo, f_top, f_lo)
        x = b - fb * (b - c) / (fb - fc)
    x = np.where((lo <= x) & (x <= top), x, b)
    return np.where(run, x, root)


# Empty: no code uses these two names, but the benchmark's tracer looks both
# up in this module (their span metrics read 0).  The benchmark change that
# drops that lookup deletes them too.
class ExpPoly:
    pass


class PiecewisePoly:
    pass
