import math

import mpmath
import numpy as np
import pytest

from showdown.numerics import integrate_adaptive
from showdown.score import (
    CdfProduct,
    RandomStream,
    _gauss_legendre,
    bust_prob,
    expect,
    expect_conditional,
    sample_score,
    sample_scores,
    score_cdf,
)
from showdown.sequential import theta
from showdown.stopping import PayoffSpec

from cdf_reference import BUST, reference_cdf

E = math.e


def test_bust_prob_endpoints():
    assert bust_prob(0.0) == 0.0
    assert bust_prob(1.0) == pytest.approx(1.0, abs=1e-15)


def test_bust_prob_at_two_player_threshold():
    th2 = theta(2)
    assert round(bust_prob(th2), 4) == 0.2402
    # consistent with the sequential first-player win probability 0.4250
    assert round(math.exp(th2) * bust_prob(th2), 4) == 0.4250


def test_bust_plus_survival_identity():
    for i in range(1001):
        tau = i / 1000
        assert abs(bust_prob(tau) + math.exp(tau) * (1 - tau) - 1.0) < 1e-14


def test_bust_matches_exppoly_form():
    for tau in (0.0, 0.3, 0.5706, 0.99, 1.0):
        assert BUST(tau) == pytest.approx(bust_prob(tau), abs=1e-15)


def test_score_cdf_piecewise_values():
    assert score_cdf(0.5, -0.1) == 0.0
    assert score_cdf(0.5, 0.0) == pytest.approx(0.17563936464994)
    assert score_cdf(0.5, 0.75) == pytest.approx(0.587819682324968)
    assert score_cdf(0.7, 1.0) == pytest.approx(1.0)
    assert score_cdf(0.7, 2.0) == 1.0


def test_score_cdf_monotone_and_boundaries():
    for tau in (0.0, 0.25, 0.5706, 0.873, 1.0):
        values = [score_cdf(tau, x / 50) for x in range(51)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        assert values[0] == pytest.approx(bust_prob(tau), abs=1e-15)
        assert values[-1] == pytest.approx(1.0, abs=1e-15)


def test_score_cdf_piecewise_matches_pointwise():
    for tau in (0.0, 0.3, 0.873, 1.0):
        f = reference_cdf(tau)
        for x in np.linspace(0, 1, 41):
            assert f(float(x)) == pytest.approx(score_cdf(tau, float(x)), abs=1e-14)


def test_cdf_product_matches_pointwise():
    for tau in (0.0, 0.3, 0.873, 1.0):
        f = CdfProduct((tau,))
        for x in np.linspace(0, 1, 41):
            assert f(float(x)) == pytest.approx(score_cdf(tau, float(x)), abs=1e-14)
    g = CdfProduct((0.3, 0.6), 2.0, -0.5)
    for x in np.linspace(0, 1, 41):
        ref = 2.0 * score_cdf(0.3, float(x)) * score_cdf(0.6, float(x)) - 0.5
        assert g(float(x)) == pytest.approx(ref, abs=1e-14)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.1, 0.45), (0.45, 0.95), (0.7, 0.7)])
def test_cdf_product_integral_vs_quadrature(a, b):
    us = (0.2, 0.45, 0.45, 0.9, 0.0, 1.0)
    g = CdfProduct(us, 1.5, 0.25)
    ref = integrate_adaptive(g, a, b, 1e-14)
    assert abs(g.integral(a, b) - ref) < 1e-13
    assert g.integral(b, a) == -g.integral(a, b)


@pytest.mark.parametrize("m", [1, 2, 5, 31, 51, 101])
def test_gauss_legendre_exact_to_degree_2m_minus_1(m):
    nodes, weights = _gauss_legendre(m)
    assert len(nodes) == len(weights) == m
    assert all(0.0 < x < 1.0 for x in nodes)
    for d in (0, 1, m, 2 * m - 1):
        assert abs(float(nodes**d @ weights) - 1.0 / (d + 1)) < 1e-14
    # a steep CDF-like power puts its mass on the outermost nodes; summed in
    # 40 digits, the rule's own rounding shows (leggauss's weights: 6e-13 at m = 101)
    with mpmath.workdps(40):
        a, d = mpmath.mpf("0.05"), 2 * m - 1
        got = mpmath.fsum(
            mpmath.mpf(float(w)) * (a + (1 - a) * mpmath.mpf(float(x))) ** d
            for x, w in zip(nodes, weights)
        )
        exact = (1 - a ** (d + 1)) / ((1 - a) * (d + 1))
        assert abs(got / exact - 1) <= 5e-14


def test_gauss_legendre_cached_read_only():
    nodes, _ = _gauss_legendre(4)
    assert _gauss_legendre(4)[0] is nodes
    with pytest.raises(ValueError):
        nodes[0] = 0.5


def test_log_nodes_blocks_bound_memory():
    # 400 thresholds: 201 nodes on each of 400 pieces, split into blocks of
    # at most 2**15 log values
    us = [i / 400 for i in range(400)]
    blocks = list(CdfProduct(us).log_nodes(0.0, 1.0))
    assert len(blocks) > 1
    for nodes, weights, logs in blocks:
        assert logs.shape == (400, len(nodes)) and logs.size <= 1 << 15
        assert np.isfinite(logs).all()
    assert sum(float(w.sum()) for _, w, _ in blocks) == pytest.approx(1.0, abs=1e-14)


def test_threshold_validation():
    with pytest.raises(ValueError):
        bust_prob(1.5)
    with pytest.raises(ValueError):
        score_cdf(-0.1, 0.5)
    with pytest.raises(ValueError):
        CdfProduct((0.5, 1.5))


# --- RandomStream -----------------------------------------------------------


def test_stream_reproducible():
    a = RandomStream(123, 7).uniforms(5)
    b = RandomStream(123, 7).uniforms(5)
    assert np.array_equal(a, b)


def test_stream_independent_ids():
    a = RandomStream(123, 0).uniforms(5)
    b = RandomStream(123, 1).uniforms(5)
    assert not np.array_equal(a, b)


def test_stream_rejects_negative():
    with pytest.raises(ValueError):
        RandomStream(-1)


# --- sampling ---------------------------------------------------------------


def test_sample_score_zero_threshold_single_draw():
    rng = RandomStream(11)
    twin = RandomStream(11)
    first = twin.uniform()
    s = sample_score(0.0, rng)
    assert s == first  # exactly one draw, never busts
    assert s > 0.0


def test_sample_scores_zero_threshold_no_busts():
    s = sample_scores(0.0, 100_000, RandomStream(5))
    assert (s > 0).all()
    assert s.max() <= 1.0


def test_sample_scores_match_scalar_law():
    # scalar and vector samplers follow the same process
    tau = 0.6
    vec = sample_scores(tau, 50_000, RandomStream(2, 0))
    rng = RandomStream(3, 0)
    scalars = np.array([sample_score(tau, rng) for _ in range(50_000)])
    for arr in (vec, scalars):
        pos = arr[arr > 0]
        assert (pos > tau).all()
    assert abs((vec == 0).mean() - (scalars == 0).mean()) < 0.01


def test_empirical_bust_rate_high_threshold():
    n = 1_000_000
    s = sample_scores(0.99, n, RandomStream(42))
    p = bust_prob(0.99)
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs((s == 0).mean() - p) < 4 * sigma


@pytest.mark.parametrize("tau", [0.0, 0.25, 0.5706, 0.8730])
def test_empirical_cdf_matches_law(tau):
    n = 1_000_000
    s = sample_scores(tau, n, RandomStream(1234))
    for x in np.linspace(0, 1, 21):
        f = score_cdf(tau, float(x))
        sigma = math.sqrt(max(f * (1 - f), 1e-12) / n)
        assert abs((s <= x).mean() - f) <= 4 * sigma + 1e-9


@pytest.mark.parametrize("tau", [0.0, 0.3, 0.7, 1.0])
def test_sample_scores_scalar_threshold_draws_as_array(tau):
    scalar = sample_scores(tau, 5000, RandomStream(3))
    array = sample_scores(np.full(5000, tau), 5000, RandomStream(3))
    assert np.array_equal(scalar, array)


def test_sample_scores_vector_thresholds():
    tau = np.array([0.0, 0.5, 0.99] * 1000)
    s = sample_scores(tau, 3000, RandomStream(8))
    pos = s > 0
    assert ((s[pos] > tau[pos]) | (tau[pos] == 0.0)).all()


# --- expectations -----------------------------------------------------------


def test_expect_total_probability():
    one = PayoffSpec(h=lambda t: 1.0, h0=1.0)
    for tau in (0.0, 0.4, 0.99):
        assert expect(one, tau) == pytest.approx(1.0, abs=1e-12)


def test_expect_bust_indicator():
    ind = PayoffSpec(h=lambda t: 0.0, h0=1.0)
    for tau in (0.1, 0.5706, 0.9):
        assert expect(ind, tau) == pytest.approx(bust_prob(tau), abs=1e-14)


def test_expect_exact_vs_quadrature():
    square = BUST**2
    spec_exact = PayoffSpec(h=square, h0=0.0)
    spec_quad = PayoffSpec(h=lambda x: square(x), h0=0.0)  # adaptive quadrature
    tau = theta(3)
    assert abs(expect(spec_exact, tau) - expect(spec_quad, tau)) < 1e-10


def test_expect_conditional_constant_and_mean():
    const = PayoffSpec(h=lambda t: 2.5, h0=2.5)
    assert expect_conditional(const, 0.3) == pytest.approx(2.5, abs=1e-12)
    ident = PayoffSpec(h=lambda t: t, h0=0.0)
    assert expect_conditional(ident, 0.0) == pytest.approx(0.5, abs=1e-12)


def test_expect_conditional_bust_payoff_closed_form():
    # antiderivative of the bust probability is t + e^t (t - 2)
    spec = PayoffSpec(h=BUST, h0=BUST(0.0))
    anti = lambda t: t + math.exp(t) * (t - 2.0)
    ref = (anti(1.0) - anti(0.5)) / 0.5
    assert expect_conditional(spec, 0.5) == pytest.approx(ref, abs=1e-12)


def test_expect_conditional_rejects_tau_one():
    with pytest.raises(ValueError):
        expect_conditional(PayoffSpec(h=lambda t: t, h0=0.0), 1.0)


def test_expect_propagates_quadrature_errors():
    from showdown.numerics import NumericsError

    blowup = PayoffSpec(h=lambda t: math.inf if t > 0.5 else 1.0, h0=0.0)
    with pytest.raises(NumericsError):
        expect(blowup, 0.1)


def test_law_of_total_expectation():
    specs = [
        PayoffSpec(h=BUST, h0=BUST(0.0)),
        PayoffSpec(h=lambda t: t * t, h0=0.0),
        PayoffSpec(h=lambda t: 1.0 + t, h0=0.5),
    ]
    for spec in specs:
        for tau in (0.1, 0.5, 0.9):
            p = bust_prob(tau)
            total = p * spec.h0 + (1 - p) * expect_conditional(spec, tau)
            assert expect(spec, tau) == pytest.approx(total, abs=1e-12)
