"""Exact references for tests: score CDFs as monomial-basis ``PiecewisePoly``
objects, which the factored Gauss-Legendre kernel is checked against at
small n, the bust probability as an ``ExpPoly``, and piecewise-polynomial
payoffs for the stopping kernel."""

import math

import numpy as np

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


class PiecewisePayoff(PiecewisePoly):
    """A piecewise polynomial with the payoff protocol of
    ``stopping.PayoffSpec``: values at an array of points, and its pieces,
    its breakpoints with the degree of each segment."""

    def values(self, xs):
        return np.array([self(x) for x in np.asarray(xs).tolist()])

    def pieces(self):
        return self.breakpoints, tuple(len(c) - 1 for c in self.coeffs)


class RecordedPayoff:
    """A payoff form that records the points of every `values` call."""

    def __init__(self, form):
        self.form, self.calls = form, []

    def values(self, xs):
        self.calls.append(np.array(xs))
        return self.form.values(xs)

    def pieces(self):
        return self.form.pieces()


def polynomial_payoff(*coeffs):
    """The one-piece payoff sum_p coeffs[p] x**p on [0, 1]."""
    return PiecewisePayoff((0.0, 1.0), (coeffs,))
