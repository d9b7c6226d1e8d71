import math

import numpy as np
import pytest

from showdown import stopping
from showdown.score import CdfProduct
from showdown.stopping import PayoffSpec, expected_payoff, optimal_threshold

from cdf_reference import PiecewisePayoff, RecordedPayoff, polynomial_payoff
from quadrature import gauss_pieces, integrate_adaptive

E = math.e

IDENTITY = PayoffSpec(h=polynomial_payoff(0.0, 1.0), h0=0.0)

# payoff x below 1/2 and 7x above, as used in the discontinuous worked example
JUMP_FORM = PiecewisePayoff((0.0, 0.5, 1.0), ((0.0, 1.0), (0.0, 7.0)))
JUMP = PayoffSpec(h=JUMP_FORM, h0=0.0)


def h(spec, x):
    """The payoff h at the point x."""
    return float(spec.h.values(np.array([x]))[0])


def h_tilde(spec, x):
    """Expected payoff of exactly one more spin from score x: h(0) x plus the
    integral of h over [x, 1], piece by piece on exact Gauss rules."""
    return spec.h0 * x + gauss_pieces(spec.h, x, 1.0)


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


def test_threshold_integrates_each_end_once(monkeypatch):
    # One values call gives h on the monotone grid, at every cut, both ends
    # included, and at every node of every piece; then each evaluation of the
    # root finder makes one call, at x and at the rule of the one piece
    # [c_{k-1}, c_k] it brackets, laid on [x, c_k].  A one-piece form, as an
    # analytic payoff is, has its h(1) from the sweep and is integrated up
    # to 1 at each evaluation.
    forms = (
        CdfProduct((0.2, 0.5, 0.5, 0.8, 0.0, 1.0)),
        polynomial_payoff(0.0, 0.2, 0.0, 0.0, 0.0, 0.8),
    )
    expected = [optimal_threshold(PayoffSpec(h=form, h0=0.0)) for form in forms]
    evals = []
    real = stopping.solve_root

    def counted(f, *args, **kwargs):
        return real(lambda x: evals.append(x) or f(x), *args, **kwargs)

    monkeypatch.setattr(stopping, "solve_root", counted)
    for form, want in zip(forms, expected):
        evals.clear()
        recorded = RecordedPayoff(form)
        kappa = optimal_threshold(PayoffSpec(h=recorded, h0=0.0))
        assert kappa == want
        cuts, degrees = (np.asarray(a) for a in form.pieces())
        sweep, *solves = recorded.calls
        assert sweep.size == 256 + cuts.size + int((degrees // 2 + 1).sum())
        assert np.array_equal(sweep[256 : 256 + cuts.size], cuts)
        k = int(np.searchsorted(cuts, kappa))
        assert len(solves) == len(evals) > 0 and cuts[k - 1] < kappa < cuts[k]
        for xs, x in zip(solves, evals):
            assert xs[0] == x and cuts[k - 1] < x < cuts[k]
            assert xs.size == degrees[k - 1] // 2 + 2
            assert (x < xs[1:]).all() and (xs[1:] < cuts[k]).all()


def test_expected_payoff_integrates_above_kappa_in_one_call():
    # after the threshold, one more call: the rules of the pieces above
    # kappa, the one holding kappa cut there; h_tilde(kappa) agrees with the
    # piecewise Gauss reference
    form = CdfProduct((0.2, 0.5, 0.5, 0.8, 0.0, 1.0), 1.5, 0.25)
    spec = PayoffSpec(h=form, h0=0.25)
    kappa = optimal_threshold(spec)
    recorded = PayoffSpec(h=RecordedPayoff(form), h0=spec.h0)
    calls = recorded.h.calls
    optimal_threshold(recorded)
    solve_calls = len(calls)
    sol = expected_payoff(recorded)
    assert sol.kappa == kappa and len(calls) == 2 * solve_calls + 1
    cuts, degrees = form.pieces()
    above = [d // 2 + 1 for c, d in zip(cuts[1:], degrees) if c > kappa]
    assert calls[-1].size == sum(above) and calls[-1].min() > kappa
    assert abs(sol.h_tilde_at_kappa - (spec.h0 * kappa + gauss_pieces(form, kappa, 1.0))) <= 1e-15


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
                assert g(x) >= h(spec, x) - 1e-10
            elif x > kappa + 1e-9:
                assert g(x) <= h(spec, x) + 1e-10


def test_threshold_characterization():
    for spec in (IDENTITY, JUMP):
        kappa = optimal_threshold(spec)
        for i in range(1, 200):
            x = i / 200
            d = h(spec, x) - h_tilde(spec, x)
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
            integrand = lambda t: max(h(spec, t), g(t))
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


@pytest.mark.parametrize("h0", [math.nan, math.inf, -math.inf])
def test_non_finite_bust_value_rejected(h0):
    # refused at construction: unchecked, NaN gives kappa = 0.0 and a NaN
    # payoff without an error, and -inf a RuntimeWarning, then NumericsError
    with pytest.raises(ValueError, match="h0 must be finite"):
        PayoffSpec(h=polynomial_payoff(0.0, 1.0), h0=h0)


def test_payoff_without_protocol_rejected():
    # a plain callable, or any other object, that says neither its values at
    # an array of points nor its pieces: refused at construction, naming what
    # it lacks, not deep inside the solve
    with pytest.raises(TypeError, match=r"lacks values, pieces$"):
        PayoffSpec(h=lambda x: x, h0=0.0)
    with pytest.raises(TypeError, match=r"lacks values, pieces$"):
        PayoffSpec(h=object(), h0=0.0)


def test_payoff_with_non_integer_degrees_rejected():
    # pieces() gives degrees: a form that gives its piece integrals instead
    # is refused, not integrated by a truncated rule, also where the
    # threshold needs no root (a constant payoff stops at 0)
    const = polynomial_payoff(2.0)

    class Integrals:
        def values(self, xs):
            return const.values(xs)

        def pieces(self):
            return (0.0, 1.0), (2.0,)

    for solve in (optimal_threshold, expected_payoff):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            solve(PayoffSpec(h=Integrals(), h0=2.0))
