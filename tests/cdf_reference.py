"""Exact references for tests: score CDFs as monomial-basis ``PiecewisePoly``
objects, which the factored Gauss-Legendre kernel is checked against at
small n, and the bust probability as an ``ExpPoly``."""

import math

from showdown.numerics import ExpPoly, PiecewisePoly
from showdown.score import bust_prob


def reference_cdf(tau):
    """Score CDF of threshold tau: flat at the bust mass on [0, tau], then
    1 + e**tau (s - 1)."""
    e = math.exp(tau)
    if tau <= 0.0:
        return PiecewisePoly((0.0, 1.0), ((1.0 - e, e),))
    if tau >= 1.0:
        return PiecewisePoly((0.0, 1.0), ((1.0,),))
    return PiecewisePoly((0.0, tau, 1.0), ((bust_prob(tau),), (1.0 - e, e)))


# Bust probability as an exponential polynomial, 1 - e**x + x * e**x: a
# closed-form reference for integrals of powers of bust_prob.
BUST = ExpPoly({(0, 0): 1.0, (0, 1): -1.0, (1, 1): 1.0})
