"""Adaptive quadrature: the reference the closed-form integrals of the
library (`score.CdfProduct`, `sequential._Analytic`, the test algebras of
`showdown.numerics`) are checked against.

Interval-halving Simpson with Richardson extrapolation works for any
integrand it can evaluate, with no knowledge of its form, so it agrees with
a closed form only when that form is right.
"""

from __future__ import annotations

import math
from typing import Callable

from showdown.numerics import NumericsError

_EPS = 2.220446049250313e-16


class AccuracyError(NumericsError):
    """An iterative scheme could not reach the requested accuracy."""


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-12,
    max_depth: int = 60,
) -> float:
    """Definite integral of f over [a, b] to absolute accuracy about `tol`.

    Interval-halving Simpson with Richardson extrapolation as the embedded
    higher-order rule; the error budget is split between halves.  Panels whose
    error estimate falls below the float rounding floor are accepted, so the
    achievable accuracy degrades gracefully to ~eps * integral(|f|) for
    large-magnitude integrands.  Deterministic.

    Raises AccuracyError when a panel still fails its budget at `max_depth`
    and NumericsError when f returns a non-finite value.
    """
    if a == b:
        return 0.0
    if b < a:
        return -integrate_adaptive(f, b, a, tol, max_depth)

    def ev(x: float) -> float:
        v = f(x)
        if not math.isfinite(v):
            raise NumericsError(f"integrand({x}) = {v} is not finite")
        return v

    def simpson(x0: float, x2: float, f0: float, f1: float, f2: float) -> float:
        return (x2 - x0) * (f0 + 4.0 * f1 + f2) / 6.0

    def recurse(
        x0: float,
        x2: float,
        f0: float,
        f1: float,
        f2: float,
        whole: float,
        budget: float,
        depth: int,
    ) -> float:
        xm = 0.5 * (x0 + x2)
        fl = ev(0.5 * (x0 + xm))
        fr = ev(0.5 * (xm + x2))
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        err = left + right - whole
        floor = 30.0 * _EPS * (abs(left) + abs(right))
        if abs(err) <= 15.0 * budget or abs(err) <= floor:
            return left + right + err / 15.0
        if depth >= max_depth:
            raise AccuracyError(
                f"quadrature did not converge on [{x0}, {x2}] "
                f"(error estimate {err / 15.0:.3e}, budget {budget:.3e})"
            )
        half = 0.5 * budget
        return recurse(x0, xm, f0, fl, f1, left, half, depth + 1) + recurse(
            xm, x2, f1, fr, f2, right, half, depth + 1
        )

    fa, fm, fb = ev(a), ev(0.5 * (a + b)), ev(b)
    return recurse(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol, 0)
