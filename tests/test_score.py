import math
import random

import mpmath
import numpy as np
import pytest

from showdown import score, stopping
from showdown.score import (
    CdfProduct,
    RandomStream,
    _Sampler,
    _gauss_legendre,
    bust_prob,
    score_cdf,
)
from showdown.sequential import theta
from showdown.simultaneous import win_probabilities_many

import mp_reference
from cdf_reference import RecordedPayoff, cdf_value, reference_cdf
from quadrature import gauss_pieces, integrate_adaptive

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
        exact = float(mp_reference.evaluate(mp_reference.BUST, tau))
        assert exact == pytest.approx(bust_prob(tau), abs=1e-15)


def test_score_cdf_piecewise_values():
    assert score_cdf(0.5, -0.1) == 0.0
    assert score_cdf(0.5, 0.0) == pytest.approx(0.17563936464994)
    assert score_cdf(0.5, 0.75) == pytest.approx(0.587819682324968)
    assert score_cdf(0.7, 1.0) == pytest.approx(1.0)
    assert score_cdf(0.7, 2.0) == 1.0
    assert score_cdf(0.5, -math.inf) == 0.0
    assert score_cdf(0.5, math.inf) == 1.0
    with pytest.raises(ValueError, match="NaN"):
        score_cdf(0.5, math.nan)


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
            assert float(cdf_value(f, float(x))) == pytest.approx(score_cdf(tau, float(x)), abs=1e-14)


def test_cdf_product_matches_pointwise():
    xs = np.linspace(0, 1, 41)
    for tau in (0.0, 0.3, 0.873, 1.0):
        ref = [score_cdf(tau, x) for x in xs.tolist()]
        assert np.abs(CdfProduct((tau,)).values(xs) - ref).max() <= 1e-14
    ref = [2.0 * score_cdf(0.3, x) * score_cdf(0.6, x) - 0.5 for x in xs.tolist()]
    assert np.abs(CdfProduct((0.3, 0.6), 2.0, -0.5).values(xs) - ref).max() <= 1e-14


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.1, 0.45), (0.45, 0.95), (0.7, 0.7)])
def test_cdf_product_integral_vs_quadrature(a, b):
    # the stopping kernel's integral over [a, b]: its piece integrals over
    # [a, 1], the piece holding a cut there, less those over [b, 1]; each
    # piece against adaptive quadrature too
    us = (0.2, 0.45, 0.45, 0.9, 0.0, 1.0)
    g = CdfProduct(us, 1.5, 0.25)

    def at(x):
        return float(g.values(np.array([x]))[0])

    tails = []
    for end in (a, b):
        cuts, degrees = stopping._pieces(g, end)
        assert cuts.tolist() == sorted({end, *(c for c in (0.2, 0.45, 0.9, 1.0) if c > end)})
        _, sums = stopping._integrals(g, cuts, degrees)
        for lo, hi, got in zip(cuts.tolist(), cuts[1:].tolist(), sums.tolist()):
            assert abs(got - integrate_adaptive(at, lo, hi, 1e-14)) < 1e-13
        tails.append(float(sums.sum()))
    assert abs(tails[0] - tails[1] - integrate_adaptive(at, a, b, 1e-14)) < 1e-13
    # [1, 1] has no piece
    cuts, degrees = stopping._pieces(g, 1.0)
    assert cuts.tolist() == [1.0] and stopping._integrals(g, cuts, degrees)[1].size == 0


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


@pytest.mark.parametrize("m", [1, 2, 5, 16, 17, 31, 33, 64, 101])
def test_gauss_legendre_same_alone_or_in_a_larger_family(m, monkeypatch):
    # rule m alone, inside the rules 1..128 built in one pass, and as the
    # shared family extends by doubling: the same bits
    alone = score._legendre_roots(m - 1, m)
    start = sum((j + 1) // 2 for j in range(1, m))  # rule j has (j + 1) // 2 roots x >= 0
    family = score._legendre_roots(0, 128)
    assert all(np.array_equal(a, b[start : start + a.size]) for a, b in zip(alone, family))
    assert alone[0].size == (m + 1) // 2
    rules = []
    for sizes in ([m], [1, m, 128], [128]):
        monkeypatch.setattr(score, "_family", (0, np.empty(0), np.empty(0)))
        for size in sizes:
            _, nodes, weights = score._rules_upto(size)
        at = m * (m - 1) // 2
        rules.append((nodes[at : at + m], weights[at : at + m]))
    assert score._family[0] == 128
    for nodes, weights in rules:
        assert np.array_equal(nodes, rules[0][0]) and np.array_equal(weights, rules[0][1])
    assert np.array_equal(rules[0][0], _gauss_legendre(m)[0])
    assert np.array_equal(rules[0][1], _gauss_legendre(m)[1])


def test_gauss_legendre_symmetric_and_nodes_match_40_digits():
    # nodes mirror about 1/2 exactly, an odd rule's middle node is 1/2, and
    # every node and weight is within a few ulps of its 40-digit value
    with mpmath.workdps(40):
        for m in (1, 2, 7, 16, 31, 64):
            nodes, weights = _gauss_legendre(m)
            assert np.array_equal(nodes + nodes[::-1], np.ones(m))
            assert np.array_equal(weights, weights[::-1])
            for x, w in zip(nodes[m // 2 :].tolist(), weights[m // 2 :].tolist()):
                r = mpmath.findroot(lambda z: mpmath.legendre(m, z), 2 * mpmath.mpf(x) - 1)
                exact = 1 / ((1 - r**2) * mpmath.diff(lambda z: mpmath.legendre(m, z), r) ** 2)
                assert abs(x - (r + 1) / 2) <= 2.3e-16
                assert abs(w / exact - 1) <= 4e-15


def test_node_blocks_lay_the_linear_factor_rule_on_each_piece():
    # the (L // 2 + 1)-point rule on a piece with L linear factors, the
    # zero-width piece [0.2, 0.2] included (its nodes sit at 0.2, weight 0)
    cuts, linear = np.array([0.0, 0.2, 0.2, 0.7, 1.0]), (0, 3, 3, 6)
    (piece, nodes, weights), = score._node_blocks(cuts, linear, 6)
    assert np.array_equal(piece, np.repeat(np.arange(4), [1, 2, 2, 4]))
    for k, (a, b) in enumerate(zip(cuts, cuts[1:])):
        x, w = _gauss_legendre(linear[k] // 2 + 1)
        assert np.array_equal(nodes[piece == k], a + (b - a) * x)
        assert np.array_equal(weights[piece == k], (b - a) * w)
    # rows share the layout; blocks of at most _BLOCK // n nodes split it
    rows = np.stack([cuts, cuts / 2])
    assert np.array_equal(next(score._node_blocks(rows, linear, 6))[1][0], nodes)
    blocks = list(score._node_blocks(rows, linear, score._BLOCK // 2))
    assert [len(piece) for piece, *_ in blocks] == [2, 2, 2, 2, 1]
    assert np.array_equal(np.concatenate([s for _, s, _ in blocks], axis=1)[1], nodes / 2)


@pytest.mark.parametrize(
    "us",
    [(0.0, 0.3, 0.3, 0.3, 0.8, 1.0), (0.5,) * 7, (1.0, 1.0, 0.0), tuple(np.linspace(0, 1, 12))],
)
def test_cdf_product_nodes_follow_linear_factors(us):
    # on the piece above cut c, the factors with u <= c are linear: each of
    # tied thresholds counts, and a threshold at 0 is linear throughout; the
    # kernel lays their (L // 2 + 1)-point rule there
    form = CdfProduct(us)
    cuts, degrees = form.pieces()
    assert cuts.tolist() == sorted({0.0, 1.0, *us})
    for a in (0.0, 0.25, 0.3, 0.31):
        cuts, degrees = stopping._pieces(form, a)
        assert cuts[0] == a and cuts.tolist()[1:] == sorted({1.0, *(u for u in us if u > a)})
        linear = np.array([sum(u <= c for u in us) for c in cuts[:-1]])
        assert np.array_equal(degrees, linear)
        piece = np.concatenate([p for p, *_ in score._node_blocks(cuts, degrees, 1)])
        assert np.array_equal(np.bincount(piece, minlength=len(linear)), linear // 2 + 1)


def test_one_block_for_a_profile_that_fits(monkeypatch):
    # the kernel takes a 30-threshold form at every node in one call, and a
    # profile whose log-CDF values fit in _BLOCK is laid out in one block
    us = np.random.default_rng(30).random(30)
    form = RecordedPayoff(CdfProduct(us))
    stopping._integrals(form, *stopping._pieces(form))
    assert len(form.calls) == 1
    counts = []
    node_blocks = score._node_blocks

    def counted(*args):
        counts.append(len(list(node_blocks(*args))))
        return node_blocks(*args)

    monkeypatch.setattr(score, "_node_blocks", counted)
    win_probabilities_many(us[None])
    assert counts == [1]


def test_kernel_blocks_bound_memory():
    # 400 thresholds: (k + 1) // 2 + 1 nodes on piece k of 400, which has
    # k + 1 linear factors, handed to values in blocks of at most 2**15 points
    us = [i / 400 for i in range(400)]
    form = RecordedPayoff(CdfProduct(us))
    cuts, degrees = stopping._pieces(form)
    assert degrees == tuple(range(1, 401))
    _, sums = stopping._integrals(form, cuts, degrees)
    assert len(form.calls) > 1 and max(xs.size for xs in form.calls) <= score._BLOCK
    # each node is tagged with its piece, the pieces in order
    blocks = list(score._node_blocks(cuts, degrees, 1))
    pieces = np.concatenate([piece for piece, *_ in blocks])
    assert np.array_equal(pieces, np.repeat(np.arange(400), np.arange(1, 401) // 2 + 1))
    assert sum(float(w.sum()) for *_, w in blocks) == pytest.approx(1.0, abs=1e-14)
    ref = [gauss_pieces(form.form, a, b) for a, b in zip(cuts.tolist(), cuts[1:].tolist())]
    assert np.isfinite(sums).all() and np.abs(sums - ref).max() <= 1e-16


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


def test_stream_keys_are_64_bit_words():
    for key in ((2**64,), (0, 2**64)):
        with pytest.raises(ValueError, match=r"2\*\*64"):
            RandomStream(*key)
    top = RandomStream(2**64 - 1, 2**64 - 1)
    assert top.uniforms(3).shape == (3,)


@pytest.mark.parametrize("key", [(1.5,), (1.0,), (3, 2.5), ("7",), (None,)])
def test_stream_refuses_non_integral_keys(key):
    # int(1.5) would quietly key the stream of seed 1
    with pytest.raises(TypeError):
        RandomStream(*key)


def test_stream_numpy_integers_equal_python_ints():
    stream = RandomStream(np.int64(7), np.uint64(3))
    assert type(stream.seed) is int and type(stream.stream_id) is int
    assert repr(stream) == "RandomStream(seed=7, stream_id=3)"
    assert np.array_equal(stream.uniforms(8), RandomStream(7, 3).uniforms(8))


# --- sampling ---------------------------------------------------------------


def sample_scores(tau, size, rng):
    """`size` final scores under tau, a float or one threshold per score,
    drawn as `simulator.run` draws them."""
    return _Sampler(size).fill(tau, np.empty(size), rng)


def test_sample_score_zero_threshold_single_draw():
    s = sample_scores(0.0, 1000, RandomStream(11))
    assert np.array_equal(s, RandomStream(11).uniforms(1000))  # one draw each, never busts
    assert (s > 0.0).all()


def test_sample_scores_zero_threshold_no_busts():
    s = sample_scores(0.0, 100_000, RandomStream(5))
    assert (s > 0).all()
    assert s.max() <= 1.0


def _sample_score(tau, rng):
    """One final score, drawn one spin at a time from a `random.Random`:
    accumulate draws until reaching tau, bust past 1 to 0."""
    s = rng.random()
    while s < tau:
        s += rng.random()
    return 0.0 if s > 1.0 else s


def test_sample_scores_match_scalar_law():
    # the batched sampler follows the scalar process
    tau = 0.6
    vec = sample_scores(tau, 50_000, RandomStream(2, 0))
    rng = random.Random(3)
    scalars = np.array([_sample_score(tau, rng) for _ in range(50_000)])
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


def _reference_fill(tau, size, rng):
    """Final scores spin by spin in pure Python from rng's draws: round 0
    takes one draw per score, each later round one draw per unfinished
    score in index order, and a sum past 1 busts to 0."""
    taus = [tau] * size if np.ndim(tau) == 0 else tau.tolist()
    sums = rng.uniforms(size).tolist()
    active = [i for i in range(size) if sums[i] < taus[i]]
    while active:
        for i, draw in zip(active, rng.uniforms(len(active)).tolist()):
            sums[i] += draw
        active = [i for i in active if sums[i] < taus[i]]
    return [0.0 if s > 1.0 else s for s in sums]


def test_sampler_fill_follows_stream_order():
    # one sampler and one stream through every fill, as a simulator thread
    # uses them: scalar thresholds, one per score, and rows shorter than
    # the capacity
    capacity = 3000
    per_score = np.random.default_rng(5).random(capacity)
    per_score[:2] = 0.0, 1.0
    fills = [(0.0, capacity), (0.5, capacity), (0.95, capacity), (1.0, capacity),
             (per_score, capacity), (0.95, 1234), (per_score[:777], 777)]
    sampler, rng, ref_rng = _Sampler(capacity), RandomStream(17, 4), RandomStream(17, 4)
    row = np.empty(capacity)
    for tau, size in fills:
        got = sampler.fill(tau, row[:size], rng)
        assert got.tolist() == _reference_fill(tau, size, ref_rng)
    assert rng.uniforms(1)[0] == ref_rng.uniforms(1)[0]  # both streams end at the same draw


def test_sample_scores_vector_thresholds():
    tau = np.array([0.0, 0.5, 0.99] * 1000)
    s = sample_scores(tau, 3000, RandomStream(8))
    pos = s > 0
    assert ((s[pos] > tau[pos]) | (tau[pos] == 0.0)).all()


# --- expectations -----------------------------------------------------------


def expect(h, h0, tau):
    """E[h(score)] under threshold tau from the score law, with payoff h0 on
    busting: the bust mass at h0 plus e**tau times the integral of h over
    [tau, 1]."""
    return bust_prob(tau) * h0 + math.exp(tau) * integrate_adaptive(h, tau, 1.0, 1e-12)


def expect_conditional(h, tau):
    """E[h(score) | score > 0] under threshold tau < 1: the mean of h on the
    uniform part (tau, 1]."""
    return integrate_adaptive(h, tau, 1.0, 1e-12) / (1.0 - tau)


def test_expect_total_probability():
    for tau in (0.0, 0.4, 0.99):
        assert expect(lambda t: 1.0, 1.0, tau) == pytest.approx(1.0, abs=1e-12)


def test_expect_bust_indicator():
    for tau in (0.1, 0.5706, 0.9):
        assert expect(lambda t: 0.0, 1.0, tau) == pytest.approx(bust_prob(tau), abs=1e-14)


def test_expect_exact_vs_quadrature():
    # the squared bust probability, integrated exactly in 50 digits
    tau = theta(3)
    exact = math.exp(tau) * float(mp_reference.integral(mp_reference.bust_pow(2), tau, 1.0))
    quad = expect(lambda x: bust_prob(x) ** 2, 0.0, tau)  # adaptive quadrature
    assert abs(exact - quad) < 1e-10


def test_expect_conditional_constant_and_mean():
    assert expect_conditional(lambda t: 2.5, 0.3) == pytest.approx(2.5, abs=1e-12)
    assert expect_conditional(lambda t: t, 0.0) == pytest.approx(0.5, abs=1e-12)


def test_expect_conditional_bust_payoff_closed_form():
    # antiderivative of the bust probability is t + e^t (t - 2)
    anti = lambda t: t + math.exp(t) * (t - 2.0)
    closed = (anti(1.0) - anti(0.5)) / 0.5
    assert expect_conditional(bust_prob, 0.5) == pytest.approx(closed, abs=1e-12)


def test_expect_propagates_quadrature_errors():
    from showdown.numerics import NumericsError

    blowup = lambda t: math.inf if t > 0.5 else 1.0
    with pytest.raises(NumericsError):
        expect(blowup, 0.0, 0.1)


def test_law_of_total_expectation():
    payoffs = [(bust_prob, 0.0), (lambda t: t * t, 0.0), (lambda t: 1.0 + t, 0.5)]
    for h, h0 in payoffs:
        for tau in (0.1, 0.5, 0.9):
            p = bust_prob(tau)
            total = p * h0 + (1 - p) * expect_conditional(h, tau)
            assert expect(h, h0, tau) == pytest.approx(total, abs=1e-12)
