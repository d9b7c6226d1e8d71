"""Shared numerical kernels: every root finder in the package.

Four finders, one tolerance.  There is no quadrature here, since the
stopping kernel integrates every payoff on Gauss-Legendre rules fitted to its
pieces (`stopping`, `score._node_blocks`).

* `solve_root` is Brent's method on one scalar bracketed root: every
  threshold the solvers return but game i's theta_r and the advantaged
  seat's reply takes it, with float-only residuals, since numpy's per-call
  cost on one-element arrays would outweigh the few evaluations Brent needs.
* `_bracketed_roots` is the ITP method (interpolate, truncate, project) in
  lockstep over an array of brackets, for many independent roots of one
  elementwise residual at once: figure 3's decreasing curve.  It never
  takes more than `_ITP_SLACK` steps beyond bisection's count, and on that
  curve's smooth residual about a quarter of them.
* `_newton` is Newton's method in lockstep over an array, for residuals
  whose iterates from one end fall monotonically to the root, so no bracket
  is needed: game i's theta_r, coalition 12's second-mover reply and the
  advantaged seat's reply on figure 3's increasing curve.
* `_newton_scalar` is the same iteration on one float, for the same kind of
  residual: the advantaged seat's reply nested inside epsilon_delta, where
  `_newton` on one-element arrays would cost far more than its few steps.

Both nested replies start from 1: one `coalition_12()` takes 83 lockstep
steps in all, and epsilon_delta(2), ..., epsilon_delta(10) 765 scalar
steps.

Both bracketing finders stop at the absolute tolerance `_TOL`, both Newton
finders at a relative 4 eps, and `_NEWTON_CAP` bounds every Newton iteration
here and in `score._legendre_roots`.  Everything here is pure and
allocation-light; values are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "NumericsError",
    "BracketError",
    "solve_root",
]

_EPS = 2.220446049250313e-16
_TOL = 1e-12  # the absolute tolerance of `solve_root` and `_bracketed_roots`
# steps `_bracketed_roots` may take beyond bisection's count
_ITP_SLACK = 3
# Newton's iteration takes 11 steps for game i's thresholds, at most 8 for
# coalition 12's second mover, at most 9 for the advantaged seat's reply at
# n <= 10 (18 up to n = 10**5) and, for the Gauss-Legendre nodes, 2 passes
# for every rule up to 1 024 points but the 2-point one (3), and for the
# 5 000-, 20 000- and 50 000-point rules; this many means it is not converging.
_NEWTON_CAP = 50


class NumericsError(Exception):
    """Base class for numerical failures raised by this package."""


class BracketError(NumericsError):
    """The supplied interval does not bracket a sign change."""


def solve_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    f_ends: tuple[float, float] | None = None,
) -> float:
    """Root of a continuous f on [lo, hi], by Brent's method plus a secant polish.

    Brent's "zeroin" (Algorithms for Minimization without Derivatives, 1973,
    ch. 4) keeps a bracket [b, c] with the best estimate b and takes an
    inverse-quadratic or secant step from b when it falls well inside the
    bracket, a bisection step otherwise, and never a step below the local
    tolerance 2 eps |b| + _TOL / 2.  f must change sign across [lo, hi] (an
    end evaluating to exactly zero is returned as-is).  The result always
    lies inside [lo, hi] and the final bracket width is at most _TOL plus
    4 eps |b|.  Deterministic.  `f_ends`, when given, holds f at lo and hi,
    which are then not evaluated again.

    Raises ValueError unless lo < hi are both finite, BracketError when there
    is no sign change and NumericsError when f returns a non-finite value.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bracket ends must be finite, got [{lo}, {hi}]")
    if not lo < hi:
        raise ValueError(f"bracket needs lo < hi, got [{lo}, {hi}]")
    a, b = lo, hi
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
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * _TOL
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


def _bracketed_roots(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo, hi, f_lo, f_hi
) -> np.ndarray:
    """Roots of an elementwise f, one in each bracket [lo, hi], by the ITP
    method in lockstep.

    lo, hi and the values f_lo, f_hi of f at them broadcast to one shape.
    f(i, x) gives the values of the elements whose indices into the
    flattened shape are i at the points x, element by element; each step
    evaluates only the elements still running, as their next iterates, and
    the ends' values are kept, so the secant step costs no evaluation.  An
    end where f is exactly zero is returned as is, as is an
    iterate where it is; an element whose ends do not change sign (NaN
    among them) gives NaN.  Every other element is narrowed until its width
    is at most _TOL + 4 eps |x| for every x in its first bracket
    (`solve_root`'s final bracket), the floor, and then takes `solve_root`'s
    secant step across its final bracket.  So an element's result depends
    only on its own bracket and f there, never on the rest of the batch.

    ITP (Oliveira and Takahashi, ACM TOMS 47(1), 2020) steps from the
    regula falsi point toward the midpoint by k1 w**2 (w the width, k1 =
    0.2 / w0 for the first width w0, and never below half the floor, so
    that an iterate cannot stall beside an end) and projects the result
    into a ball about the midpoint whose radius keeps the width within
    bisection's: k steps leave it at most floor 2**(n - k) for n =
    ceil(log2(w0 / floor)) + _ITP_SLACK, so no element takes more than n
    steps, and one where f is smooth takes few more than the secant method.

    Raises NumericsError when f returns a non-finite value inside a bracket.
    """
    shape = np.broadcast(lo, hi, f_lo, f_hi).shape
    lo, hi, f_lo, f_hi = (
        np.array(a, dtype=float).ravel() for a in np.broadcast_arrays(lo, hi, f_lo, f_hi)
    )
    bracketed = np.sign(f_lo) * np.sign(f_hi) <= 0.0  # False for NaN
    lo_neg = f_lo < 0.0
    root = np.where(f_lo == 0.0, lo, np.where(f_hi == 0.0, hi, np.nan))
    run = bracketed & np.isnan(root)
    width = hi - lo
    f_x = np.zeros(lo.shape)
    with np.errstate(all="ignore"):  # iterates of finished elements are never read
        # bisection's halvings to a width of at most _TOL + 4 eps min |x|
        # on [lo, hi], plus ITP's slack
        floor = _TOL + 4.0 * _EPS * np.maximum(0.0, np.maximum(lo, -hi))
        ratio = np.where(run, np.maximum(width / floor, 1.0), 1.0)
        steps = np.ceil(np.log2(ratio)).astype(int)
        steps += run & (np.ldexp(width, -steps) > floor)  # log2's rounding
        steps += _ITP_SLACK * run
        k1 = 0.2 / width
        for k in range(int(steps.max(initial=0))):
            w = hi - lo
            run &= (w > floor) & (k < steps)
            if not run.any():
                break
            mid = lo + 0.5 * w
            guess = lo + w * (f_lo / (f_lo - f_hi))  # regula falsi
            gap = mid - guess
            shift = np.maximum(k1 * w * w, 0.5 * floor)
            x = np.where(shift < abs(gap), guess + np.copysign(shift, gap), mid)
            radius = np.ldexp(floor, steps - k - 1) - 0.5 * w
            x = np.where(abs(x - mid) <= radius, x, mid - np.copysign(radius, gap))
            (i,) = np.nonzero(run)
            f_x[i] = f_i = f(i, x[i])
            if not np.isfinite(f_i.sum()):
                bad = np.argmin(np.isfinite(f_i))
                raise NumericsError(f"f({x[i[bad]]}) = {f_i[bad]} is not finite")
            zero = run & (f_x == 0.0)
            if zero.any():
                root[zero], run[zero] = x[zero], False
            up = run & ((f_x < 0.0) == lo_neg)  # the root lies above x
            down = run ^ up
            np.copyto(lo, x, where=up)
            np.copyto(f_lo, f_x, where=up)
            np.copyto(hi, x, where=down)
            np.copyto(f_hi, f_x, where=down)
        # the secant step across the final bracket from the end with the
        # smaller residual, b, to the other, c, kept where it lands inside
        at_lo = ~(abs(f_hi) < abs(f_lo))
        b, fb = np.where(at_lo, lo, hi), np.where(at_lo, f_lo, f_hi)
        c, fc = np.where(at_lo, hi, lo), np.where(at_lo, f_hi, f_lo)
        x = b - fb * (b - c) / (fb - fc)
    x = np.where((lo <= x) & (x <= hi), x, b)
    return np.where(bracketed & np.isnan(root), x, root).reshape(shape)


def _newton(step: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> Iterator[np.ndarray]:
    """Newton's iterates x - step(x), in lockstep over the array x, for
    elementwise residuals increasing and convex (or decreasing and concave)
    below x, with the residual at x of the slope's sign: the iterates fall
    monotonically to the one root, and no bracket is needed.

    A step that would raise an iterate is rounding at the root and is not
    taken.  An element stops once its step is at most 4 eps x or it did not
    move (where the residual rounds to an ulp off zero at the root), so its
    root does not depend on the rest of the array.  Raises NumericsError
    after _NEWTON_CAP steps.
    """
    running = np.ones(x.shape, dtype=bool)
    for _ in range(_NEWTON_CAP):
        dx = step(x)
        moved = np.where(running, np.minimum(x, x - dx), x)
        yield moved
        running &= (np.abs(dx) > 4.0 * _EPS * moved) & (moved != x)
        if not running.any():
            return
        x = moved
    raise NumericsError(f"a Newton iteration did not settle in {_NEWTON_CAP} steps")


def _newton_scalar(step: Callable[[float], float], x: float) -> float:
    """`_newton` on one float: the last of Newton's iterates x - step(x),
    for a residual increasing and convex (or decreasing and concave) below
    x, with the residual at x of the slope's sign.

    The same rule as `_newton`'s: a rising step is not taken, and the
    iteration stops once its step is at most 4 eps x or the iterate did not
    move.  Raises NumericsError on a non-finite step and after _NEWTON_CAP
    steps.
    """
    for _ in range(_NEWTON_CAP):
        dx = step(x)
        if not math.isfinite(dx):
            raise NumericsError(f"the Newton step from {x} is {dx}, not finite")
        moved = min(x, x - dx)
        if abs(dx) <= 4.0 * _EPS * moved or moved == x:
            return moved
        x = moved
    raise NumericsError(f"a Newton iteration did not settle in {_NEWTON_CAP} steps")


# Empty: no code uses these two names, but the benchmark's tracer looks both
# up in this module (their span metrics read 0).  The benchmark change that
# drops that lookup deletes them too.
class ExpPoly:
    pass


class PiecewisePoly:
    pass
