import math

import pytest

from showdown.numerics import ExpPoly
from showdown.score import CdfProduct
from showdown.stopping import PayoffSpec, expected_payoff, optimal_threshold

from cdf_reference import PiecewisePayoff, polynomial_payoff
from quadrature import integrate_adaptive

E = math.e

IDENTITY = PayoffSpec(h=polynomial_payoff(0.0, 1.0), h0=0.0)

# payoff x below 1/2 and 7x above, as used in the discontinuous worked example
JUMP_FORM = PiecewisePayoff((0.0, 0.5, 1.0), ((0.0, 1.0), (0.0, 7.0)))
JUMP = PayoffSpec(h=JUMP_FORM, h0=0.0)


def h_tilde(spec, x):
    """Expected payoff of exactly one more spin from score x: h(0) x plus the
    integral of h over [x, 1]."""
    return spec.h0 * x + spec.h.integral(x, 1.0)


def continuation_value(spec):
    """x -> expected payoff of playing on from score x under the optimal
    policy, from the threshold and h_tilde(kappa) that `expected_payoff`
    reports: (h_tilde(kappa) - h(0)) e**(kappa - x) + h(0) below kappa,
    h_tilde(x) above it."""
    sol = expected_payoff(spec)

    def g(x):
        if x >= sol.kappa:
            return h_tilde(spec, x)
        return (sol.h_tilde_at_kappa - spec.h0) * math.exp(sol.kappa - x) + spec.h0

    return g


def test_h_tilde_identity_payoff():
    for x in (0.0, 0.3, 0.9, 1.0):
        assert h_tilde(IDENTITY, x) == pytest.approx((1 - x * x) / 2, abs=1e-12)


def test_h_tilde_constant_payoff():
    const = PayoffSpec(h=polynomial_payoff(3.0), h0=3.0)
    for x in (0.0, 0.5, 1.0):
        assert h_tilde(const, x) == pytest.approx(3.0, abs=1e-12)


def test_h_tilde_jump_payoff():
    assert h_tilde(JUMP, 0.5) == pytest.approx(21.0 / 8.0, abs=1e-14)


def test_threshold_identity_payoff():
    assert optimal_threshold(IDENTITY) == pytest.approx(math.sqrt(2) - 1, abs=1e-10)


def test_threshold_constant_payoff():
    const = PayoffSpec(h=polynomial_payoff(2.0), h0=2.0)
    assert optimal_threshold(const) == 0.0
    assert expected_payoff(const).expected_payoff == pytest.approx(2.0, abs=1e-12)


def test_threshold_jump_payoff():
    assert optimal_threshold(JUMP) == pytest.approx(0.5, abs=1e-9)


def test_threshold_integrates_each_end_once():
    # One sweep over the pieces gives the residual at every cut, both ends
    # included; the solve then integrates only inside the piece it brackets.
    form = CdfProduct((0.2, 0.5, 0.5, 0.8, 0.0, 1.0))
    sweeps, spans = [], []

    class Recorded:
        def __call__(self, x):
            return form(x)

        def values(self, xs):
            return form.values(xs)

        def pieces(self):
            sweeps.append(None)
            return form.pieces()

        def integral(self, a, b):
            spans.append((a, b))
            return form.integral(a, b)

    spec = PayoffSpec(h=Recorded(), h0=0.0)
    kappa = optimal_threshold(spec)
    assert kappa == optimal_threshold(PayoffSpec(h=form, h0=form(0.0)))
    cuts = form.pieces()[0].tolist()
    assert cuts == [0.0, 0.2, 0.5, 0.8, 1.0]
    assert len(sweeps) == 1 and spans
    tops = {b for _, b in spans}
    assert len(tops) == 1  # a single piece [c_{k-1}, c_k] ...
    top = tops.pop()
    bottom = cuts[cuts.index(top) - 1]
    assert all(bottom < a < top for a, _ in spans)  # ... never spanned past a cut
    assert bottom < kappa < top

    # a form that is the one piece [0, 1], as an analytic payoff is:
    # integrated from 0 once, and never from 1, where the residual is h(1) - h0
    calls = []

    class RecordedJump:
        def __call__(self, x):
            return JUMP_FORM(x)

        def values(self, xs):
            return JUMP_FORM.values(xs)

        def integral(self, a, b):
            calls.append((a, b))
            return JUMP_FORM.integral(a, b)

        def pieces(self):
            return (0.0, 1.0), (self.integral(0.0, 1.0),)

    spec = PayoffSpec(h=RecordedJump(), h0=0.0)
    assert optimal_threshold(spec) == pytest.approx(0.5, abs=1e-9)
    assert calls[0] == (0.0, 1.0) and all(0.0 < a < 1.0 and b == 1.0 for a, b in calls[1:])


def test_expected_payoff_identity():
    sol = expected_payoff(IDENTITY)
    kappa = math.sqrt(2) - 1
    assert sol.kappa == pytest.approx(kappa, abs=1e-10)
    assert sol.expected_payoff == pytest.approx(kappa * math.exp(kappa), abs=1e-10)
    assert sol.expected_payoff == pytest.approx(0.62678, abs=1e-5)


def test_expected_payoff_jump():
    sol = expected_payoff(JUMP)
    assert sol.expected_payoff == pytest.approx(21.0 * math.sqrt(E) / 8.0, abs=1e-9)
    assert sol.h_tilde_at_kappa == pytest.approx(21.0 / 8.0, abs=1e-12)


def test_continuation_value_identity():
    kappa = math.sqrt(2) - 1
    g = continuation_value(IDENTITY)
    assert g(kappa) == pytest.approx(kappa, abs=1e-9)
    assert g(0.0) == pytest.approx(kappa * math.exp(kappa), abs=1e-9)
    assert g(0.9) == pytest.approx(0.095, abs=1e-12)


def test_continuation_value_non_increasing():
    for spec in (IDENTITY, JUMP):
        g = continuation_value(spec)
        values = [g(i / 100) for i in range(101)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_continuation_dominates_payoff_below_threshold():
    for spec in (IDENTITY, JUMP):
        kappa = optimal_threshold(spec)
        g = continuation_value(spec)
        for i in range(1, 100):
            x = i / 100
            if x < kappa - 1e-9:
                assert g(x) >= spec.h(x) - 1e-10
            elif x > kappa + 1e-9:
                assert g(x) <= spec.h(x) + 1e-10


def test_threshold_characterization():
    for spec in (IDENTITY, JUMP):
        kappa = optimal_threshold(spec)
        for i in range(1, 200):
            x = i / 200
            d = spec.h(x) - h_tilde(spec, x)
            if x < kappa - 1e-9:
                assert d < 1e-10
            elif x > kappa + 1e-9:
                assert d > -1e-10


def test_fixed_point_residual():
    # G solves y(x) = h(0) x + integral of max(h, y) over [x, 1]
    for spec in (IDENTITY, JUMP):
        g = continuation_value(spec)
        for i in range(101):
            x = i / 100
            integrand = lambda t: max(spec.h(t), g(t))
            rhs = spec.h0 * x + integrate_adaptive(integrand, x, 1.0, 1e-10)
            assert abs(g(x) - rhs) < 1e-8


def _monotone_error(spec):
    with pytest.raises(ValueError) as err:
        optimal_threshold(spec)
    return str(err.value)


def test_monotone_check_messages():
    # h is checked in one array call at 256 points; the error names the
    # first drop, or the minimum that h0 exceeds
    falling = CdfProduct((0.3, 0.6), scale=-1.0)
    msg = _monotone_error(PayoffSpec(h=falling, h0=-1.0))
    assert msg.startswith("payoff is not non-decreasing: h(0.30078125) = ")

    rising = CdfProduct((0.3, 0.6))
    msg = _monotone_error(PayoffSpec(h=rising, h0=0.5))
    assert msg.startswith("bust payoff h0 = 0.5 exceeds h on (0, 1] (min ")


def test_non_monotone_payoff_rejected():
    bad = PayoffSpec(h=polynomial_payoff(0.0, -1.0), h0=0.0)
    with pytest.raises(ValueError):
        optimal_threshold(bad)


def test_bust_value_above_payoff_rejected():
    bad = PayoffSpec(h=polynomial_payoff(0.0, 1.0), h0=0.5)
    with pytest.raises(ValueError):
        optimal_threshold(bad)


def test_payoff_without_protocol_rejected():
    # a plain callable has no closed-form integral: refused at construction,
    # naming what it lacks, not deep inside the solve
    with pytest.raises(TypeError, match=r"lacks values, integral, pieces$"):
        PayoffSpec(h=lambda x: x, h0=0.0)
    with pytest.raises(TypeError, match=r"lacks values, pieces$"):
        PayoffSpec(h=ExpPoly({(1, 0): 1.0}), h0=0.0)  # x, with an integral
