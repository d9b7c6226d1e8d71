import math

import pytest

from showdown.numerics import PiecewisePoly, integrate_adaptive
from showdown.score import CdfProduct
from showdown.stopping import (
    PayoffSpec,
    continuation_value,
    expected_payoff,
    h_tilde,
    optimal_threshold,
)

E = math.e

IDENTITY = PayoffSpec(h=lambda x: x, h0=0.0)

# payoff x below 1/2 and 7x above, as used in the discontinuous worked example
JUMP_FORM = PiecewisePoly((0.0, 0.5, 1.0), ((0.0, 1.0), (0.0, 7.0)))
JUMP = PayoffSpec(h=JUMP_FORM, h0=0.0)
JUMP_QUAD = PayoffSpec(h=lambda x: x if x < 0.5 else 7.0 * x, h0=0.0)


def test_h_tilde_identity_payoff():
    for x in (0.0, 0.3, 0.9, 1.0):
        assert h_tilde(IDENTITY, x) == pytest.approx((1 - x * x) / 2, abs=1e-12)


def test_h_tilde_constant_payoff():
    const = PayoffSpec(h=lambda x: 3.0, h0=3.0)
    for x in (0.0, 0.5, 1.0):
        assert h_tilde(const, x) == pytest.approx(3.0, abs=1e-12)


def test_h_tilde_jump_payoff():
    assert h_tilde(JUMP, 0.5) == pytest.approx(21.0 / 8.0, abs=1e-14)


def test_threshold_identity_payoff():
    assert optimal_threshold(IDENTITY) == pytest.approx(math.sqrt(2) - 1, abs=1e-10)


def test_threshold_constant_payoff():
    const = PayoffSpec(h=lambda x: 2.0, h0=2.0)
    assert optimal_threshold(const) == 0.0
    assert expected_payoff(const).expected_payoff == pytest.approx(2.0, abs=1e-12)


def test_threshold_jump_payoff():
    assert optimal_threshold(JUMP) == pytest.approx(0.5, abs=1e-9)
    # quadrature fallback localizes the jump too
    assert optimal_threshold(JUMP_QUAD, 1e-10) == pytest.approx(0.5, abs=1e-8)


def test_threshold_integrates_each_end_once():
    # One sweep over the pieces gives the residual at every cut, both ends
    # included; the solve then integrates only inside the piece it brackets.
    form = CdfProduct((0.2, 0.5, 0.5, 0.8, 0.0, 1.0))
    sweeps, spans = [], []

    class Recorded:
        def __call__(self, x):
            return form(x)

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

    # a form without pieces is the one piece [0, 1]: integrated from 0 once,
    # and never from 1, where the residual is h(1) - h0
    calls = []

    class RecordedJump:
        def __call__(self, x):
            return JUMP_FORM(x)

        def integral(self, a, b):
            calls.append((a, b))
            return JUMP_FORM.integral(a, b)

    spec = PayoffSpec(h=RecordedJump(), h0=0.0)
    assert optimal_threshold(spec) == optimal_threshold(JUMP)
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
    assert continuation_value(IDENTITY, kappa) == pytest.approx(kappa, abs=1e-9)
    assert continuation_value(IDENTITY, 0.0) == pytest.approx(
        kappa * math.exp(kappa), abs=1e-9
    )
    assert continuation_value(IDENTITY, 0.9) == pytest.approx(0.095, abs=1e-12)


def test_continuation_value_non_increasing():
    for spec in (IDENTITY, JUMP):
        values = [continuation_value(spec, i / 100) for i in range(101)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_continuation_dominates_payoff_below_threshold():
    for spec in (IDENTITY, JUMP):
        kappa = optimal_threshold(spec)
        for i in range(1, 100):
            x = i / 100
            g = continuation_value(spec, x)
            if x < kappa - 1e-9:
                assert g >= spec.h(x) - 1e-10
            elif x > kappa + 1e-9:
                assert g <= spec.h(x) + 1e-10


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
    identity_exact = PayoffSpec(h=PiecewisePoly((0.0, 1.0), ((0.0, 1.0),)), h0=0.0)
    for spec in (identity_exact, JUMP):
        sol = expected_payoff(spec)
        kappa, ht_kappa = sol.kappa, sol.h_tilde_at_kappa

        def g(t, kappa=kappa, ht_kappa=ht_kappa, spec=spec):
            if t < kappa:
                return (ht_kappa - spec.h0) * math.exp(kappa - t) + spec.h0
            return h_tilde(spec, t)

        for i in range(101):
            x = i / 100
            integrand = lambda t: max(spec.h(t), g(t))
            rhs = spec.h0 * x + integrate_adaptive(integrand, x, 1.0, 1e-10)
            assert abs(g(x) - rhs) < 1e-8


def _monotone_error(spec):
    with pytest.raises(ValueError) as err:
        optimal_threshold(spec)
    return str(err.value)


def test_monotone_check_array_and_scalar_paths_agree():
    # a CdfProduct is checked in one array call, any other h point by point;
    # both raise the same errors with the same messages
    falling = CdfProduct((0.3, 0.6), scale=-1.0)
    msg = _monotone_error(PayoffSpec(h=falling, h0=-1.0))
    assert msg.startswith("payoff is not non-decreasing: h(0.30078125) = ")
    assert msg == _monotone_error(PayoffSpec(h=lambda x: falling(x), h0=-1.0))

    rising = CdfProduct((0.3, 0.6))
    msg = _monotone_error(PayoffSpec(h=rising, h0=0.5))
    assert msg.startswith("bust payoff h0 = 0.5 exceeds h on (0, 1] (min ")
    assert msg == _monotone_error(PayoffSpec(h=lambda x: rising(x), h0=0.5))


def test_non_monotone_payoff_rejected():
    bad = PayoffSpec(h=lambda x: -x, h0=0.0)
    with pytest.raises(ValueError):
        optimal_threshold(bad)


def test_bust_value_above_payoff_rejected():
    bad = PayoffSpec(h=lambda x: x, h0=0.5)
    with pytest.raises(ValueError):
        optimal_threshold(bad)


def test_h_tilde_domain():
    with pytest.raises(ValueError):
        h_tilde(IDENTITY, 1.5)
    with pytest.raises(ValueError):
        continuation_value(IDENTITY, -0.1)
