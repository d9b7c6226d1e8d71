"""Exact references for tests: score CDFs as per-piece polynomials in
``mp_reference``'s 50-digit algebra, which the factored Gauss-Legendre kernel
is checked against at small n, and piecewise-polynomial payoffs for the
stopping kernel."""

import numpy as np

import mp_reference as ref

ONE = {(0, 0): ref.mp.mpf(1)}


def reference_cdf(tau):
    """Score CDF of threshold tau as its pieces [(lo, hi, polynomial)], each
    polynomial in ``mp_reference``'s dict form: flat at the bust mass on
    [0, tau], then 1 + e**tau (s - 1)."""
    e = ref.mp.exp(tau)
    line = {(0, 0): 1 - e, (1, 0): e}
    if tau <= 0.0:
        return [(0.0, 1.0, line)]
    if tau >= 1.0:
        return [(0.0, 1.0, ONE)]
    return [(0.0, tau, {(0, 0): ref.evaluate(ref.BUST, tau)}), (tau, 1.0, line)]


def _piece(cdf, x):
    return next(poly for _, hi, poly in cdf if x <= hi)


def cdf_value(cdf, x):
    """The CDF at x in [0, 1], as an mpf."""
    return ref.evaluate(_piece(cdf, x), x)


def product_integral(cdfs, a, b):
    """Integral over [a, b] inside [0, 1] of the product of the CDFs, exact
    on each piece between their cuts, as an mpf."""
    cuts = sorted({a, b, *(hi for cdf in cdfs for _, hi, _ in cdf if a < hi < b)})
    total = 0
    for lo, hi in zip(cuts, cuts[1:]):
        mid, prod = 0.5 * (lo + hi), ONE
        for cdf in cdfs:
            prod = ref.mul(prod, _piece(cdf, mid))
        total += ref.integral(prod, lo, hi)
    return total


class PiecewisePayoff:
    """A piecewise polynomial with the payoff protocol of
    ``stopping.PayoffSpec``: breakpoints and one coefficient tuple
    (ascending powers) per segment.  `values` evaluates each point on its
    segment, the right one at a breakpoint, by Horner's rule; `pieces` gives
    the breakpoints with the degree of each segment."""

    def __init__(self, breakpoints, coeffs):
        self.breakpoints, self.coeffs = tuple(breakpoints), tuple(coeffs)

    def values(self, xs):
        xs = np.asarray(xs, dtype=float)
        segment = np.searchsorted(self.breakpoints, xs, side="right") - 1
        segment = segment.clip(0, len(self.coeffs) - 1)
        out = np.zeros_like(xs)
        for i, coeffs in enumerate(self.coeffs):
            acc = np.zeros_like(xs)
            for c in reversed(coeffs):
                acc = acc * xs + c
            np.copyto(out, acc, where=segment == i)
        return out

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
