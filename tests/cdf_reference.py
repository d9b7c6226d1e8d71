"""Score CDFs as monomial-basis ``PiecewisePoly`` objects: the exact small-n
reference that the factored Gauss-Legendre kernel is checked against."""

import math

from showdown.numerics import PiecewisePoly
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
