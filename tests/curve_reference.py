"""Scalar reference for `simultaneous.advantaged_curve_points`: each point
solved alone by `solve_root` on the two residuals, the decreasing
curve bracketed by the halving search one point at a time."""

import math

from showdown.numerics import solve_root
from showdown.score import bust_prob
from showdown.simultaneous import _advantaged_residual, _normal_residual, _XTerms


def curve_points(n, x):
    """(y on the decreasing curve or None, y on the increasing curve) at x."""
    at_x = _XTerms.at(n, x, math.exp(x), bust_prob(x))

    def advantaged(y):
        return _advantaged_residual(n, at_x, y)

    def normal(y):
        try:
            return _normal_residual(n, at_x, y, math.exp(y))
        except ZeroDivisionError:  # the pole at y = 0
            return math.nan

    increasing = x if advantaged(x) >= 0.0 else solve_root(advantaged, x, 1.0)
    top = normal(1.0)
    if top == 0.0:
        return 1.0, increasing
    if top < 0.0:
        return None, increasing
    prev = 1.0
    for k in range(1, 53):  # down from y = 1 to the first point where it turns negative
        t = 1.0 / 2.0**k
        if normal(t) < 0.0:
            return solve_root(normal, t, prev), increasing
        prev = t
    return None, increasing
