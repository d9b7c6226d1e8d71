"""Single-player optimal-stopping kernel.

A player repeatedly adds uniform [0, 1] draws to a running score, busting to
score 0 on passing 1, and receives payoff h(score) on stopping.  For any
non-decreasing payoff the optimal policy is a threshold rule: spin below
kappa, stop above.  This module computes the threshold, the value of playing
on, and the optimal expected payoff, all in terms of the transformed payoff

    h_tilde(x) = h(0) * x + integral of h over [x, 1],

which is the expected payoff of exactly one more spin from score x.

The threshold is the sign change of the non-decreasing residual
D(x) = h(x) - h_tilde(x).  A payoff is integrated once, piece by piece
between its cuts (`PayoffSpec.pieces`; a form without cuts is one piece
[0, 1]); suffix sums of the piece integrals give D at every cut, a
bisection over the cuts finds the first one with D >= 0, and a single
bracketed root on the piece below it finishes, each evaluation integrating
over part of that one piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .numerics import Bracket, integrate_adaptive, solve_root

__all__ = [
    "PayoffSpec",
    "StoppingSolution",
    "h_tilde",
    "optimal_threshold",
    "expected_payoff",
    "continuation_value",
]

_MONOTONE_GRID = np.arange(1, 257) / 256.0  # exact binary fractions i / 256
_MONOTONE_SLACK = 1e-9


class _ClosedForm(Protocol):
    """A payoff that integrates itself without quadrature, such as `score.CdfProduct`.

    Passed as `PayoffSpec.h`, its `integral` replaces adaptive quadrature.
    It may also have `pieces()`, returning its cuts 0 = c_0 < ... < c_K = 1
    and the integral over each [c_{k-1}, c_k] (as `CdfProduct.pieces`), and
    `values(xs)`, evaluating it at an array of points, so that it is
    spot-checked in one call.
    """

    def __call__(self, x: float) -> float: ...

    def integral(self, a: float, b: float) -> float: ...


@dataclass(frozen=True)
class PayoffSpec:
    """A non-decreasing payoff h on [0, 1] with an explicit bust value.

    `h` is the payoff for positive scores; at 0 it should return the
    right-limit (its value there never enters an integral).  `h0` is the
    payoff on busting, which may sit strictly below the right-limit of h --
    several game constructions need a distinguished bust value.  An h that
    is a `_ClosedForm` computes its own integrals (a closed form, or a fixed
    rule for an analytic h); any other h is integrated by adaptive
    quadrature.
    """

    h: Callable[[float], float] | _ClosedForm
    h0: float

    def integral(self, a: float, b: float, tol: float = 1e-12) -> float:
        """Integral of h over [a, b]: by h's own `integral` when it has one,
        adaptive to within `tol` otherwise."""
        integral = getattr(self.h, "integral", None)
        if integral is not None:
            return integral(a, b)
        return integrate_adaptive(self.h, a, b, tol)

    def pieces(self, tol: float = 1e-12) -> tuple[Sequence[float], Sequence[float]]:
        """Cuts 0 = c_0 < ... < c_K = 1 and the integral of h over each piece
        [c_{k-1}, c_k]: those of h when it has `pieces`, else the one piece
        [0, 1]."""
        pieces = getattr(self.h, "pieces", None)
        if pieces is not None:
            return pieces()
        return (0.0, 1.0), (self.integral(0.0, 1.0, tol),)


@dataclass(frozen=True)
class StoppingSolution:
    """Optimal threshold, its one-spin value, and the policy's expected payoff."""

    kappa: float
    expected_payoff: float
    h_tilde_at_kappa: float


def h_tilde(spec: PayoffSpec, x: float, tol: float = 1e-12) -> float:
    """h(0) * x + integral of h over [x, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    return spec.h0 * x + spec.integral(x, 1.0, tol)


def _check_monotone(spec: PayoffSpec) -> None:
    """Spot-check that h is non-decreasing and dominates h0 on a 256-point grid,
    in one array call when h has `values`."""
    grid = _MONOTONE_GRID
    values = getattr(spec.h, "values", None)
    hs = values(grid) if values is not None else np.array([spec.h(x) for x in grid.tolist()])
    drops = np.flatnonzero(hs[1:] < hs[:-1] - _MONOTONE_SLACK)
    if drops.size:
        i, xs, vs = int(drops[0]) + 1, grid.tolist(), hs.tolist()
        raise ValueError(
            f"payoff is not non-decreasing: h({xs[i]}) = {vs[i]} < h({xs[i - 1]}) = {vs[i - 1]}"
        )
    lo = float(hs.min())
    if spec.h0 > lo + _MONOTONE_SLACK:
        raise ValueError(f"bust payoff h0 = {spec.h0} exceeds h on (0, 1] (min {lo})")


def optimal_threshold(spec: PayoffSpec, tol: float = 1e-12) -> float:
    """The optimal stopping threshold kappa = inf{x : h(x) >= h_tilde(x)}.

    The residual D(x) = h(x) - h_tilde(x), with right-limits of h and h0 at
    x = 0, has derivative h' + h - h0 >= 0, so it is non-decreasing.  With
    the piece integrals of `spec.pieces`, D at cut c_k is h(c_k) - h0 c_k
    less the sum of the integrals above c_k.  Bisecting over the cuts finds
    the first one where D >= 0, and `solve_root` locates the sign change on
    the piece below it to within `tol`, each evaluation integrating h from x
    to the piece's top; that also handles discontinuous payoffs.  For
    continuous non-constant h this is the unique root of h(x) = h_tilde(x).
    """
    _check_monotone(spec)
    cuts, integrals = spec.pieces(tol)
    cuts = [float(c) for c in cuts]
    above = [0.0] * len(cuts)  # above[k]: integral of h over [cuts[k], 1]
    for k in range(len(cuts) - 2, -1, -1):
        above[k] = above[k + 1] + float(integrals[k])

    def residual(x: float, above_x: float) -> float:  # above_x: integral of h over [x, 1]
        h_at = spec.h0 if x == 0.0 else spec.h(x)
        return h_at - (spec.h0 * x + above_x)

    def at_cut(k: int) -> float:
        return residual(cuts[k], above[k])

    lo, hi = 0, len(cuts) - 1
    d_lo = at_cut(lo)
    if d_lo >= 0.0:
        return 0.0
    d_hi = at_cut(hi)
    if d_hi < 0.0:
        # h(1) >= h0 guarantees D(1) >= 0 up to rounding; treat as boundary.
        return 1.0
    while hi - lo > 1:  # D(cuts[lo]) < 0 <= D(cuts[hi])
        mid = (lo + hi) // 2
        d = at_cut(mid)
        if d >= 0.0:
            hi, d_hi = mid, d
        else:
            lo, d_lo = mid, d
    top, tail = cuts[hi], above[hi]
    return solve_root(
        lambda x: residual(x, spec.integral(x, top, tol) + tail),
        Bracket(cuts[lo], top),
        tol,
        f_ends=(d_lo, d_hi),
    )


def expected_payoff(spec: PayoffSpec, tol: float = 1e-12) -> StoppingSolution:
    """Optimal threshold and expected payoff of the threshold policy.

    The payoff of playing from score 0 under the optimal rule is
    (h_tilde(kappa) - h(0)) * e**kappa + h(0).
    """
    kappa = optimal_threshold(spec, tol)
    ht = h_tilde(spec, kappa, tol)
    value = (ht - spec.h0) * math.exp(kappa) + spec.h0
    return StoppingSolution(kappa=kappa, expected_payoff=value, h_tilde_at_kappa=ht)


def continuation_value(spec: PayoffSpec, x: float, tol: float = 1e-12) -> float:
    """Expected payoff of playing on from score x under the optimal policy.

    Equals (h_tilde(kappa) - h(0)) * e**(kappa - x) + h(0) below the
    threshold and h_tilde(x) above it; continuous and non-increasing.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    kappa = optimal_threshold(spec, tol)
    if x >= kappa:
        return h_tilde(spec, x, tol)
    ht = h_tilde(spec, kappa, tol)
    return (ht - spec.h0) * math.exp(kappa - x) + spec.h0
