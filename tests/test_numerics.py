import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from showdown import numerics
from showdown.numerics import (
    BracketError,
    NumericsError,
    _bracketed_roots,
    _newton,
    _newton_scalar,
    solve_root,
)
from showdown.score import CdfProduct, bust_prob

import mp_reference as ref
from cdf_reference import cdf_value, product_integral, reference_cdf
from quadrature import AccuracyError, gauss_pieces, integrate_adaptive

E = math.e


# --- solve_root -------------------------------------------------------------


def test_solve_root_rejects_bad_ends():
    for lo, hi in [(1.0, 1.0), (0.5, 0.2), (math.nan, 1.0), (0.0, math.inf)]:
        with pytest.raises(ValueError):
            solve_root(lambda t: t - 0.1, lo, hi)


def test_solve_root_known_root():
    x = solve_root(lambda t: t * t - 2.0, 1.0, 2.0)
    assert abs(x - math.sqrt(2.0)) < 1e-12


def test_solve_root_linear():
    assert abs(solve_root(lambda t: t - 0.3, 0.0, 1.0) - 0.3) < 1e-12


def test_solve_root_stays_in_bracket():
    x = solve_root(lambda t: math.cos(t), 1.0, 2.0)
    assert 1.0 <= x <= 2.0
    assert abs(x - math.pi / 2) < 1e-12


def test_solve_root_endpoint_zero():
    assert solve_root(lambda t: t, 0.0, 1.0) == 0.0


def test_solve_root_residual_beats_endpoints():
    cases = [
        (lambda t: t * t - 2.0, 1.0, 2.0),
        (lambda t: math.exp(t) - 2.0, 0.0, 1.0),
        (lambda t: t**3 - 0.1, 0.0, 1.0),
    ]
    for f, lo, hi in cases:
        x = solve_root(f, lo, hi)
        assert abs(f(x)) <= min(abs(f(lo)), abs(f(hi)))
        assert abs(f(x)) < 1e-10


def test_solve_root_no_sign_change():
    with pytest.raises(BracketError):
        solve_root(lambda t: t * t + 1.0, 0.0, 1.0)


def test_solve_root_non_finite():
    with pytest.raises(NumericsError):
        solve_root(lambda t: math.inf, 0.0, 1.0)


def test_solve_root_nan_mid_iteration():
    # finite at both ends, NaN at the first interior point tried
    with pytest.raises(NumericsError):
        solve_root(lambda t: t - 0.5 if t in (0.0, 1.0) else math.nan, 0.0, 1.0)


def test_solve_root_sqrt2_to_rounding():
    x = solve_root(lambda t: t * t - 2.0, 1.0, 2.0)
    assert abs(x - math.sqrt(2.0)) <= 4.5e-16


def test_solve_root_takes_known_end_values():
    seen = []

    def f(t):
        seen.append(t)
        return t * t - 2.0

    x = solve_root(f, 1.0, 2.0, f_ends=(-1.0, 2.0))
    assert x == solve_root(lambda t: t * t - 2.0, 1.0, 2.0)
    assert 1.0 not in seen and 2.0 not in seen
    assert solve_root(f, 0.5, 2.0, f_ends=(0.0, 2.0)) == 0.5
    with pytest.raises(BracketError):
        solve_root(f, 1.0, 2.0, f_ends=(1.0, 2.0))
    with pytest.raises(NumericsError):
        solve_root(f, 1.0, 2.0, f_ends=(-1.0, math.nan))


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
def test_solve_root_locates_jump_within_tol(tol, monkeypatch):
    # the final bracket is at most _TOL + 4 eps |x| wide whatever f does in
    # it; the bound follows _TOL
    monkeypatch.setattr(numerics, "_TOL", tol)
    x = solve_root(lambda t: -1.0 if t < 0.3 else 2.0, 0.0, 1.0)
    assert abs(x - 0.3) <= tol


# --- _bracketed_roots (lockstep ITP) -----------------------------------------
# The test names keep the finder's earlier name, _bisect_roots.


def test_bisect_roots_matches_solve_root():
    r = np.linspace(-0.9, 7.5, 37)
    lo, hi = np.full_like(r, -1.0), np.full_like(r, 2.0)
    f = lambda i, t: t**3 - r[i]  # noqa: E731
    got = _bracketed_roots(f, lo, hi, lo**3 - r, hi**3 - r)
    for ri, gi in zip(r.tolist(), got.tolist()):
        want = solve_root(lambda t: t**3 - ri, -1.0, 2.0)
        assert abs(gi - want) <= 1e-13
        assert abs(gi - math.copysign(abs(ri) ** (1 / 3), ri)) <= 1e-13


def test_bisect_roots_each_element_alone():
    # an element's result is bitwise its result solved alone, whatever the
    # rest of the batch holds: brackets of other widths, finished elements
    r = np.array([0.3, -0.2, 1e-9, 0.7, 0.7])
    lo = np.array([0.0, -1.0, -1.0, 0.6, 0.0])
    hi = np.array([1.0, 0.0, 1e-3, 0.700000001, 2.0])
    g = lambda t, r: np.sin(t - r) + 0.1 * (t - r)  # noqa: E731
    batch = _bracketed_roots(lambda i, t: g(t, r[i]), lo, hi, g(lo, r), g(hi, r))
    for i in range(len(r)):
        ri, lo_i, hi_i = r[i : i + 1], lo[i : i + 1], hi[i : i + 1]
        alone = _bracketed_roots(lambda _, t: g(t, ri), lo_i, hi_i, g(lo_i, ri), g(hi_i, ri))
        assert alone[0] == batch[i]
    assert np.abs(batch - r).max() <= 1e-12


def test_bisect_roots_zeros_and_missing_brackets():
    r = np.array([0.0, 0.5, 0.25, 0.7, 2.0])
    f = lambda i, t: t - r[i]  # noqa: E731
    got = _bracketed_roots(f, 0.0, 1.0, -r, 1.0 - r)
    # ends and iterates where f is exactly zero are returned as is; no sign
    # change on [0, 1] gives NaN
    assert got[:4].tolist() == [0.0, 0.5, 0.25, 0.7] and math.isnan(got[4])
    assert math.isnan(_bracketed_roots(f, 0.0, 1.0, np.nan, 1.0))
    assert _bracketed_roots(lambda i, t: t, 0.0, 1.0, 0.0, 0.0).tolist() == 0.0


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-12, 1e-13])
def test_bisect_roots_locates_jumps_within_tol(tol, monkeypatch):
    # the final bracket is at most _TOL + 4 eps |x| wide whatever f does in
    # it; 1e-12 is the value in use, the others check the bound follows it
    monkeypatch.setattr(numerics, "_TOL", tol)
    r = np.array([0.3, 0.1, 0.9, 1e-7])
    got = _bracketed_roots(lambda i, t: np.where(t < r[i], -1.0, 2.0), np.zeros(4), 1.0, -1.0, 2.0)
    assert (np.abs(got - r) <= tol + 4 * 2.0**-52 * r).all()


def test_bisect_roots_non_finite_inside_a_bracket():
    # NaN at every interior point, so the first iterate raises wherever it lands
    f = lambda i, t: np.where((t > 0.0) & (t < 1.0), np.nan, t - 0.3)  # noqa: E731
    with pytest.raises(NumericsError):
        _bracketed_roots(f, np.array([0.0, 0.0]), 1.0, -0.3, 0.7)
    # an element without a bracket is never evaluated
    g = lambda i, t: np.where(i == 0, t - 0.25, np.nan)  # noqa: E731
    assert _bracketed_roots(g, 0.0, [1.0, 1.0], [-0.25, 1.0], [0.75, 1.0])[0] == 0.25


def _steps_alone(f, lo, hi):
    """_bracketed_roots on one bracket, and the steps it took: each step
    evaluates f once."""
    calls = []

    def counted(i, t):
        calls.append(t)
        return f(t)

    lo, hi = np.array([lo]), np.array([hi])
    return _bracketed_roots(counted, lo, hi, f(lo), f(hi))[0], len(calls)


@pytest.mark.parametrize(
    "f, lo, hi",
    [
        (lambda t: np.where(t < 0.3, -1.0, 2.0), 0.0, 1.0),  # a jump
        (lambda t: np.where(t < 1 / 3, -1.0, 1.0), -5.0, 7.0),
        (lambda t: np.maximum(-1.0, 50.0 * (t - 0.97)), 0.0, 1.0),  # a flat end
        (lambda t: np.minimum(1.0, t - 0.02) ** 3, 0.0, 1.0),
        (lambda t: t - 1e-15, 0.0, 1.0),  # a root at an end
        (lambda t: t - (1.0 - 2.0**-50), 0.0, 1.0),
        (lambda t: np.expm1(t - 2.5) * 1e-8, 2.0, 3.0),
    ],
)
def test_bracketed_roots_steps_within_bisection_plus_slack(f, lo, hi):
    # ITP never takes more than bisection's ceil(log2(width / floor)) steps
    # plus _ITP_SLACK, however f bends
    x, steps = _steps_alone(f, lo, hi)
    floor = numerics._TOL + 4 * 2.0**-52 * max(0.0, lo, -hi)
    assert steps <= math.ceil(math.log2((hi - lo) / floor)) + numerics._ITP_SLACK
    assert lo <= x <= hi


@pytest.mark.parametrize(
    "f, lo, hi",
    [
        (lambda t: t**3 - 2.0, 0.0, 2.0),
        (lambda t: np.exp(t) - 10.0, -3.0, 5.0),
        (lambda t: np.tan(t) - t - 1.0, 0.0, 1.5),
        (lambda t: np.cos(t) - t, 0.0, 1.0),
        (lambda t: (t - 0.7) ** 5, 0.0, 1.0),
        (lambda t: np.log(t) + 300.0, 1e-300, 1.0),
        (lambda t: 1.0 / (t - 0.5) + 3.0, 0.0, 0.49),
    ],
)
def test_bracketed_roots_within_tol_of_solve_root(f, lo, hi):
    # each root lies within the stopping width of Brent's on the same bracket
    x, steps = _steps_alone(f, lo, hi)
    want = solve_root(lambda t: float(f(np.array([t]))[0]), lo, hi)
    assert abs(x - want) <= numerics._TOL + 4 * 2.0**-52 * abs(want)


def _counting_solver(monkeypatch, module):
    """Patch module.solve_root to count each solve's evaluations of f."""
    counts = []
    real = module.solve_root

    def counted(f, lo, hi, **kwargs):
        counts.append(0)

        def g(x):
            counts[-1] += 1
            return f(x)

        return real(g, lo, hi, **kwargs)

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
    # game i's thresholds theta_r (11 steps) and coalition 12's second-mover
    # reply (at most 8 steps) take one lockstep Newton iteration each, not solve_root
    assert len(list(sequential._theta_newton())) <= 20
    assert len(list(sequential._second_newton(np.arange(21) / 20))) <= 20
    sim_counts = _counting_solver(monkeypatch, simultaneous)
    for n in range(2, 1001):
        simultaneous.alpha.__wrapped__(n)
        simultaneous.gamma.__wrapped__(n)
    assert (len(stop_counts), len(sim_counts)) == (3, 2 * 999)
    assert max(stop_counts + sim_counts) <= 20


@settings(max_examples=200, deadline=None, derandomize=True)
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
    tol = numerics._TOL
    x = solve_root(lambda t: sign * (t - r) * (a * (t - r) ** 2 + b), lo, hi)
    assert lo <= x <= hi
    assert abs(x - r) <= tol + 4 * 2.220446049250313e-16 * max(abs(r), 1.0)


# --- _newton_scalar ---------------------------------------------------------


@pytest.mark.parametrize("a, start", [(2.0, 2.0), (1e-6, 1.0), (3.0, 1e8), (0.25, 0.5)])
def test_newton_scalar_is_the_lockstep_iteration_on_one_float(a, start):
    # x**2 - a is increasing and convex above its root: float and float64
    # arithmetic round alike, so the two iterations end on the same bits
    def step(x):
        return (x * x - a) / (2.0 * x)

    root = _newton_scalar(step, start)
    assert type(root) is float
    assert root == list(_newton(step, np.array([start])))[-1][0]
    assert abs(root - math.sqrt(a)) <= 2.220446049250313e-16 * math.sqrt(a)


def test_newton_scalar_takes_no_rising_step():
    # already at the root, a step that would raise the iterate is rounding
    assert _newton_scalar(lambda x: -1e-300, 0.5) == 0.5


def test_newton_scalar_cap_raises(monkeypatch):
    monkeypatch.setattr(numerics, "_NEWTON_CAP", 3)
    with pytest.raises(NumericsError, match="did not settle in 3 steps"):
        _newton_scalar(lambda x: 0.1, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_newton_scalar_refuses_non_finite_steps(bad):
    with pytest.raises(NumericsError, match="not finite"):
        _newton_scalar(lambda x: bad, 1.0)


# --- integrate_adaptive (the tests' quadrature reference) --------------------


def test_quadrature_exponential():
    assert abs(integrate_adaptive(math.exp, 0.0, 1.0, 1e-13) - (E - 1.0)) < 1e-12


def test_quadrature_bust_integral():
    # antiderivative of 1 + e^t (t - 1) is t + e^t (t - 2), so the integral
    # over [0, 1] is 3 - e
    got = integrate_adaptive(bust_prob, 0.0, 1.0, 1e-13)
    assert abs(got - (3.0 - E)) < 1e-12


def test_quadrature_matches_exppoly_partial_interval():
    upper = 0.57061
    exact = float(ref.integral(ref.BUST, 0.0, upper))
    assert abs(integrate_adaptive(bust_prob, 0.0, upper, 1e-13) - exact) < 1e-12


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


# --- exponential polynomials (mp_reference's 50-digit algebra) ----------------


def exppolys(max_terms: int = 6):
    term = st.tuples(
        st.tuples(st.integers(0, 10), st.integers(0, 10)),
        st.floats(-1.0, 1.0),
    )
    return st.lists(term, min_size=1, max_size=max_terms).map(
        lambda terms: functools.reduce(ref.add, ({key: ref.mp.mpf(c)} for key, c in terms))
    )


def test_exppoly_example_product():
    prod = ref.mul(ref.EXP, {(1, 1): 1})  # e^x times x e^x
    assert prod == {(1, 2): 1.0}
    for x in (0.0, 0.3, 0.9):
        assert abs(ref.evaluate(prod, x) - x * math.exp(2 * x)) < 1e-12


def test_exppoly_bust_square_at_zero():
    assert ref.evaluate(ref.bust_pow(2), 0.0) == pytest.approx(0.0, abs=1e-15)


def test_exppoly_power_matches_direct():
    # the expanded form of the 9th power sums ~4.5e6 in absolute terms against
    # a value of 0.038, which 50 digits carry with room to spare
    x = 0.8730
    direct = (1.0 + math.exp(x) * (x - 1.0)) ** 9
    assert abs(ref.evaluate(ref.bust_pow(9), x) - direct) < 1e-9


def test_exppoly_antiderivative_classics():
    assert abs(ref.integral({(1, 1): 1}, 0.0, 1.0) - 1.0) < 1e-14  # integration by parts
    assert abs(ref.integral({(1, 0): 1}, 0.0, 1.0) - 0.5) < 1e-15


def test_exppoly_cube_integral_vs_quadrature():
    got = ref.integral(ref.bust_pow(3), 0.3, 1.0)
    quad = integrate_adaptive(lambda x: bust_prob(x) ** 3, 0.3, 1.0, 1e-13)
    assert abs(got - quad) < 1e-10


@settings(max_examples=60, deadline=None, derandomize=True)
@given(exppolys())
def test_exppoly_integral_matches_quadrature(p):
    exact = ref.integral(p, 0.0, 1.0)
    quad = integrate_adaptive(ref.to_float(p), 0.0, 1.0, 1e-12)
    assert abs(exact - quad) < 1e-10


# --- score CDFs against their exact piecewise references ---------------------

CDF_HALF = reference_cdf(0.5)


def test_piecewise_constant_product():
    one = reference_cdf(1.0)
    assert product_integral([one, one], 0.0, 1.0) == 1
    assert gauss_pieces(CdfProduct((1.0, 1.0)), 0.0, 1.0) == pytest.approx(1.0)


def test_piecewise_cdf_square_vs_quadrature():
    got = product_integral([CDF_HALF, CDF_HALF], 0.0, 1.0)
    ref_quad = integrate_adaptive(lambda s: float(cdf_value(CDF_HALF, s)) ** 2, 0.0, 1.0, 1e-13)
    assert abs(got - ref_quad) < 1e-12


def test_piecewise_single_cdf_tail_vs_quadrature():
    got = product_integral([CDF_HALF], 0.3, 1.0)
    ref_quad = integrate_adaptive(lambda s: float(cdf_value(CDF_HALF, s)), 0.3, 1.0, 1e-13)
    assert abs(got - ref_quad) < 1e-12


def test_piecewise_eval_and_affine():
    # the affine map of a CDF is now CdfProduct's scale and shift
    f = reference_cdf(0.4)
    g = CdfProduct((0.4,), 2.0, -0.5)
    xs = [0.0, 0.2, 0.4, 0.7, 1.0]
    want = [float(2 * cdf_value(f, x) - 0.5) for x in xs]
    assert g.values(np.array(xs)) == pytest.approx(want, abs=1e-14)


def test_piecewise_add_and_partial_integral():
    f = reference_cdf(0.3)
    g = reference_cdf(0.6)
    exact = float(product_integral([f], 0.2, 0.9) + product_integral([g], 0.2, 0.9))
    got = gauss_pieces(CdfProduct((0.3,)), 0.2, 0.9) + gauss_pieces(CdfProduct((0.6,)), 0.2, 0.9)
    assert got == pytest.approx(exact, abs=1e-14)
    quad = integrate_adaptive(lambda s: float(cdf_value(f, s) + cdf_value(g, s)), 0.2, 0.9, 1e-13)
    assert quad == pytest.approx(exact, abs=1e-12)
