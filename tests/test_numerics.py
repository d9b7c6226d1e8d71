import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from showdown.numerics import (
    AccuracyError,
    Bracket,
    BracketError,
    ExpPoly,
    NumericsError,
    PiecewisePoly,
    integrate_adaptive,
    solve_root,
)
from showdown.score import CdfProduct

from cdf_reference import BUST, reference_cdf

E = math.e


# --- Bracket / solve_root ---------------------------------------------------


def test_bracket_validation():
    with pytest.raises(ValueError):
        Bracket(1.0, 1.0)
    with pytest.raises(ValueError):
        Bracket(0.5, 0.2)
    with pytest.raises(ValueError):
        Bracket(math.nan, 1.0)


def test_solve_root_known_root():
    x = solve_root(lambda t: t * t - 2.0, Bracket(1.0, 2.0), 1e-12)
    assert abs(x - math.sqrt(2.0)) < 1e-12


def test_solve_root_linear():
    assert abs(solve_root(lambda t: t - 0.3, Bracket(0.0, 1.0)) - 0.3) < 1e-12


def test_solve_root_stays_in_bracket():
    x = solve_root(lambda t: math.cos(t), Bracket(1.0, 2.0))
    assert 1.0 <= x <= 2.0
    assert abs(x - math.pi / 2) < 1e-12


def test_solve_root_endpoint_zero():
    assert solve_root(lambda t: t, Bracket(0.0, 1.0)) == 0.0


def test_solve_root_residual_beats_endpoints():
    cases = [
        (lambda t: t * t - 2.0, Bracket(1.0, 2.0)),
        (lambda t: math.exp(t) - 2.0, Bracket(0.0, 1.0)),
        (lambda t: t**3 - 0.1, Bracket(0.0, 1.0)),
    ]
    for f, bracket in cases:
        x = solve_root(f, bracket, 1e-12)
        assert abs(f(x)) <= min(abs(f(bracket.lo)), abs(f(bracket.hi)))
        assert abs(f(x)) < 1e-10


def test_solve_root_no_sign_change():
    with pytest.raises(BracketError):
        solve_root(lambda t: t * t + 1.0, Bracket(0.0, 1.0))


def test_solve_root_non_finite():
    with pytest.raises(NumericsError):
        solve_root(lambda t: math.inf, Bracket(0.0, 1.0))


def test_solve_root_nan_mid_iteration():
    # finite at both ends, NaN at the first interior point tried
    with pytest.raises(NumericsError):
        solve_root(lambda t: t - 0.5 if t in (0.0, 1.0) else math.nan, Bracket(0.0, 1.0))


def test_solve_root_sqrt2_to_rounding():
    x = solve_root(lambda t: t * t - 2.0, Bracket(1.0, 2.0))
    assert abs(x - math.sqrt(2.0)) <= 4.5e-16


def test_solve_root_takes_known_end_values():
    seen = []

    def f(t):
        seen.append(t)
        return t * t - 2.0

    x = solve_root(f, Bracket(1.0, 2.0), f_ends=(-1.0, 2.0))
    assert x == solve_root(lambda t: t * t - 2.0, Bracket(1.0, 2.0))
    assert 1.0 not in seen and 2.0 not in seen
    assert solve_root(f, Bracket(0.5, 2.0), f_ends=(0.0, 2.0)) == 0.5
    with pytest.raises(BracketError):
        solve_root(f, Bracket(1.0, 2.0), f_ends=(1.0, 2.0))
    with pytest.raises(NumericsError):
        solve_root(f, Bracket(1.0, 2.0), f_ends=(-1.0, math.nan))


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
def test_solve_root_locates_jump_within_tol(tol):
    x = solve_root(lambda t: -1.0 if t < 0.3 else 2.0, Bracket(0.0, 1.0), tol)
    assert abs(x - 0.3) <= tol


def _counting_solver(monkeypatch, module):
    """Patch module.solve_root to count each solve's evaluations of f."""
    counts = []
    real = module.solve_root

    def counted(f, bracket, tol=1e-12, **kwargs):
        counts.append(0)

        def g(x):
            counts[-1] += 1
            return f(x)

        return real(g, bracket, tol, **kwargs)

    monkeypatch.setattr(module, "solve_root", counted)
    return counts


def test_solve_root_evaluation_budget(monkeypatch):
    # bisection spent 42 evaluations per root at tol 1e-12 and 49 at 1e-14
    from showdown import sequential, simultaneous, stopping

    external = simultaneous.Variant.EXTERNAL
    profiles = [simultaneous.equilibrium(external, n).thresholds for n in (3, 30, 60)]
    stop_counts = _counting_solver(monkeypatch, stopping)
    for thresholds in profiles:  # optimal_threshold hands h - h_tilde to solve_root
        kappa = simultaneous.best_response(external, 0, thresholds[1:])
        assert abs(kappa - thresholds[0]) <= 1e-9
    sequential.theta(sequential.MAX_PLAYERS)  # brackets: theta_{n-1} is then cached
    seq_counts = _counting_solver(monkeypatch, sequential)
    for n in range(2, sequential.MAX_PLAYERS + 1):
        sequential.theta.__wrapped__(n)
    for x in (i / 20 for i in range(21)):
        sequential.coalition_second_threshold.__wrapped__(x)  # tol 1e-14
    sim_counts = _counting_solver(monkeypatch, simultaneous)
    for n in range(2, 1001):
        simultaneous.alpha.__wrapped__(n)
        simultaneous.gamma.__wrapped__(n)
    assert (len(stop_counts), len(seq_counts), len(sim_counts)) == (3, 99 + 21, 2 * 999)
    assert max(stop_counts + seq_counts + sim_counts) <= 20


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-1.0, 1.0),
    st.floats(0.01, 2.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 5.0),
    st.floats(1e-9, 10.0),
    st.sampled_from([1.0, -1.0]),
)
def test_solve_root_stays_in_bracket_for_monotone_cubics(lo, width, frac, a, b, sign):
    # f(t) = sign * (t - r) * (a (t - r)^2 + b) is monotone with its one root r
    hi = lo + width
    r = lo + frac * width
    tol = 1e-12
    x = solve_root(lambda t: sign * (t - r) * (a * (t - r) ** 2 + b), Bracket(lo, hi), tol)
    assert lo <= x <= hi
    assert abs(x - r) <= tol + 4 * 2.220446049250313e-16 * max(abs(r), 1.0)


# --- integrate_adaptive -----------------------------------------------------


def test_quadrature_exponential():
    assert abs(integrate_adaptive(math.exp, 0.0, 1.0, 1e-13) - (E - 1.0)) < 1e-12


def test_quadrature_bust_integral():
    # antiderivative of 1 + e^t (t - 1) is t + e^t (t - 2), so the integral
    # over [0, 1] is 3 - e
    got = integrate_adaptive(BUST, 0.0, 1.0, 1e-13)
    assert abs(got - (3.0 - E)) < 1e-12


def test_quadrature_matches_exppoly_partial_interval():
    upper = 0.57061
    exact = BUST.integral(0.0, upper)
    assert abs(integrate_adaptive(BUST, 0.0, upper, 1e-13) - exact) < 1e-12


def test_quadrature_orientation_and_empty():
    assert integrate_adaptive(math.exp, 0.5, 0.5) == 0.0
    a = integrate_adaptive(math.exp, 1.0, 0.0, 1e-13)
    assert abs(a + (E - 1.0)) < 1e-12


def test_quadrature_non_convergence():
    with pytest.raises(AccuracyError):
        integrate_adaptive(
            lambda t: math.sin(1.0 / (t + 1e-9)) / math.sqrt(t + 1e-12),
            0.0,
            1.0,
            1e-14,
            max_depth=8,
        )


# --- ExpPoly ----------------------------------------------------------------


def exppolys(max_terms: int = 6):
    term = st.tuples(
        st.tuples(st.integers(0, 10), st.integers(0, 10)),
        st.floats(-1.0, 1.0),
    )
    return st.lists(term, min_size=1, max_size=max_terms).map(ExpPoly)


def test_exppoly_example_product():
    ex = ExpPoly({(0, 1): 1.0})  # e^x
    xex = ExpPoly({(1, 1): 1.0})  # x e^x
    prod = ex * xex
    assert prod.terms == {(1, 2): 1.0}
    for x in (0.0, 0.3, 0.9):
        assert abs(prod(x) - x * math.exp(2 * x)) < 1e-12


def test_exppoly_bust_square_at_zero():
    assert (BUST**2)(0.0) == pytest.approx(0.0, abs=1e-15)


def test_exppoly_power_matches_direct():
    # the expanded form of the 9th power sums ~4.5e6 in absolute terms against
    # a value of 0.038, so float evaluation carries a few units of 1e-11
    x = 0.8730
    direct = (1.0 + math.exp(x) * (x - 1.0)) ** 9
    assert abs((BUST**9)(x) - direct) < 1e-9


@settings(max_examples=80, deadline=None)
@given(exppolys(), exppolys(), st.floats(0.0, 1.0))
def test_exppoly_ring_laws(p, q, x):
    assert abs((p + q)(x) - (q + p)(x)) <= 1e-12
    assert abs((p * q)(x) - (q * p)(x)) <= 1e-12 * (1 + abs((p * q)(x)))
    lhs = (p * (q + ExpPoly.constant(1.0)))(x)
    rhs = (p * q)(x) + p(x)
    assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))


def test_exppoly_antiderivative_classics():
    xex = ExpPoly({(1, 1): 1.0})
    assert abs(xex.integral(0.0, 1.0) - 1.0) < 1e-14  # integration by parts
    ident = ExpPoly({(1, 0): 1.0})
    assert abs(ident.integral(0.0, 1.0) - 0.5) < 1e-15


def test_exppoly_cube_integral_vs_quadrature():
    cube = BUST**3
    got = cube.integral(0.3, 1.0)
    ref = integrate_adaptive(cube, 0.3, 1.0, 1e-13)
    assert abs(got - ref) < 1e-10


@settings(max_examples=60, deadline=None)
@given(exppolys())
def test_exppoly_integral_matches_quadrature(p):
    exact = p.integral(0.0, 1.0)
    quad = integrate_adaptive(p, 0.0, 1.0, 1e-12)
    assert abs(exact - quad) < 1e-10


def test_exppoly_canonical_form():
    p = ExpPoly({(1, 1): 2.0, (0, 0): 0.0})
    q = ExpPoly({(1, 1): -2.0})
    assert (p + q).terms == {}
    assert (p + q)(0.7) == 0.0
    with pytest.raises(ValueError):
        ExpPoly({(-1, 0): 1.0})


# --- PiecewisePoly (small-n test reference) -------------------------------------

CDF_HALF = reference_cdf(0.5)


def test_piecewise_constant_product():
    one = PiecewisePoly((0.0, 1.0), ((1.0,),))
    assert (one * one).integral(0.0, 1.0) == pytest.approx(1.0)
    assert CdfProduct((1.0, 1.0)).integral(0.0, 1.0) == pytest.approx(1.0)


def test_piecewise_cdf_square_vs_quadrature():
    got = (CDF_HALF * CDF_HALF).integral(0.0, 1.0)
    ref = integrate_adaptive(lambda s: CDF_HALF(s) ** 2, 0.0, 1.0, 1e-13)
    assert abs(got - ref) < 1e-12


def test_piecewise_single_cdf_tail_vs_quadrature():
    got = CDF_HALF.integral(0.3, 1.0)
    ref = integrate_adaptive(CDF_HALF, 0.3, 1.0, 1e-13)
    assert abs(got - ref) < 1e-12
    assert CDF_HALF.integral(1.0, 0.3) == -got


def test_piecewise_eval_and_affine():
    # the affine map of a CDF is now CdfProduct's scale and shift
    f = reference_cdf(0.4)
    g = CdfProduct((0.4,), 2.0, -0.5)
    for x in (0.0, 0.2, 0.4, 0.7, 1.0):
        assert g(x) == pytest.approx(2.0 * f(x) - 0.5, abs=1e-14)


def test_piecewise_add_and_partial_integral():
    f = reference_cdf(0.3)
    g = reference_cdf(0.6)
    ref = f.integral(0.2, 0.9) + g.integral(0.2, 0.9)
    got = CdfProduct((0.3,)).integral(0.2, 0.9) + CdfProduct((0.6,)).integral(0.2, 0.9)
    assert got == pytest.approx(ref, abs=1e-14)
    quad = integrate_adaptive(lambda s: f(s) + g(s), 0.2, 0.9, 1e-13)
    assert quad == pytest.approx(ref, abs=1e-12)


def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewisePoly((0.0, 0.0, 1.0), ((1.0,), (1.0,)))
    with pytest.raises(ValueError):
        PiecewisePoly((0.0, 1.0), ((1.0,), (2.0,)))
