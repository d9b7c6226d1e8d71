"""Single-player optimal-stopping kernel.

A player repeatedly adds uniform [0, 1] draws to a running score, busting to
score 0 on passing 1, and receives payoff h(score) on stopping.  For any
non-decreasing payoff the optimal policy is a threshold rule: spin below
kappa, stop above.  This module computes the threshold, the value of playing
on, and the optimal expected payoff, all in terms of the transformed payoff

    h_tilde(x) = h(0) * x + integral of h over [x, 1],

which is the expected payoff of exactly one more spin from score x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol

from .numerics import Bracket, integrate_adaptive, solve_root

__all__ = [
    "PayoffSpec",
    "StoppingSolution",
    "h_tilde",
    "optimal_threshold",
    "expected_payoff",
    "continuation_value",
]

_MONOTONE_GRID = 256
_MONOTONE_SLACK = 1e-9


class _ClosedForm(Protocol):
    """A payoff that integrates itself without quadrature, such as `score.CdfProduct`."""

    def __call__(self, x: float) -> float: ...

    def integral(self, a: float, b: float) -> float: ...


@dataclass(frozen=True)
class PayoffSpec:
    """A non-decreasing payoff h on [0, 1] with an explicit bust value.

    `h` is the payoff descriptor for positive scores; at 0 it should return
    the right-limit (its value there never enters an integral).  `h0` is the
    payoff on busting, which may sit strictly below the right-limit of h --
    several game constructions need a distinguished bust value.  `exact`
    optionally carries a form matching h on (0, 1] that computes its own
    integrals (a closed form, or a fixed rule for an analytic h); without
    one, integrals fall back to adaptive quadrature.
    """

    h: Callable[[float], float]
    h0: float
    exact: _ClosedForm | None = None

    @classmethod
    def from_exact(cls, form: _ClosedForm, h0: float | None = None) -> "PayoffSpec":
        return cls(h=form, h0=form(0.0) if h0 is None else float(h0), exact=form)

    def integral(self, a: float, b: float, tol: float = 1e-12) -> float:
        """Integral of h over [a, b]: by `exact` when given, adaptive otherwise."""
        if self.exact is not None:
            return self.exact.integral(a, b)
        return integrate_adaptive(self.h, a, b, tol)


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
    """Spot-check that h is non-decreasing and dominates h0 on a 256-point grid."""
    prev = None
    lo = math.inf
    for i in range(1, _MONOTONE_GRID + 1):
        x = i / _MONOTONE_GRID
        v = spec.h(x)
        if prev is not None and v < prev - _MONOTONE_SLACK:
            raise ValueError(
                f"payoff is not non-decreasing: h({x}) = {v} < h({(i - 1) / _MONOTONE_GRID}) = {prev}"
            )
        prev = v
        lo = min(lo, v)
    if spec.h0 > lo + _MONOTONE_SLACK:
        raise ValueError(f"bust payoff h0 = {spec.h0} exceeds h on (0, 1] (min {lo})")


def optimal_threshold(spec: PayoffSpec, tol: float = 1e-12) -> float:
    """The optimal stopping threshold kappa = inf{x : h(x) >= h_tilde(x)}.

    The residual h(x) - h_tilde(x), with right-limits of h and h0 at x = 0,
    has derivative h' + h - h0 >= 0, so it is non-decreasing and `solve_root`
    locates its sign change on [0, 1] to within `tol`; that also handles
    discontinuous payoffs.  For continuous non-constant h this is the unique
    root of h(x) = h_tilde(x).
    """
    _check_monotone(spec)

    def diff(x: float) -> float:
        h_at = spec.h0 if x == 0.0 else spec.h(x)
        return h_at - h_tilde(spec, x, tol)

    lo = diff(0.0)
    if lo >= 0.0:
        return 0.0
    hi = diff(1.0)
    if hi < 0.0:
        # h(1) >= h0 guarantees diff(1) >= 0 up to rounding; treat as boundary.
        return 1.0
    return solve_root(diff, Bracket(0.0, 1.0), tol, f_ends=(lo, hi))


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
