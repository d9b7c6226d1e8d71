import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from showdown.numerics import Bracket, solve_root
from showdown import score
from showdown.score import CdfProduct, _log_cdf, bust_prob
from showdown.simulator import SimConfig, StrategyProfile, run
from showdown.simultaneous import (
    ProfileOutcome,
    Variant,
    advantaged_curve_points,
    alpha,
    best_response,
    epsilon_delta,
    equilibrium,
    gamma,
    payoff_map,
    stop_payoff_function,
    two_player_win,
    win_probabilities,
    win_probabilities_many,
)
from showdown.stopping import optimal_threshold

from cdf_reference import product_integral, reference_cdf
from curve_reference import curve_points
from quadrature import gauss_pieces, integrate_adaptive
from reference_tables import MISROUNDED

E = math.e


# --- scalar equilibrium thresholds -------------------------------------------


def test_alpha_reference_values():
    assert round(alpha(2), 4) == 0.5887
    assert round(alpha(5), 4) == 0.7927


def test_alpha_increasing():
    values = [alpha(n) for n in range(2, 11)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_alpha_residual():
    for n in (2, 5, 10):
        a = alpha(n)
        lhs = bust_prob(a) ** (n - 1)
        rhs = (1 - bust_prob(a) ** n) / (n * math.exp(a))
        assert abs(lhs - rhs) < 1e-12


def test_gamma_reference_values():
    assert round(gamma(2), 4) == 0.6590  # published digit 0.6591 is one ulp high
    assert round(gamma(10), 4) == 0.8783


def test_gamma_increasing():
    values = [gamma(n) for n in range(2, 11)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_gamma_residual():
    for n in (2, 6, 10):
        g = gamma(n)
        assert abs(bust_prob(g) ** (n - 1) - 1 / (1 + math.exp(g) * (n - 1))) < 1e-12


def test_gamma_two_player_fixed_point():
    # for two players the defining equation collapses to e^x = x / (1 - x)
    g = gamma(2)
    assert abs(math.exp(g) - g / (1 - g)) < 1e-11


def test_epsilon_delta_reference_values():
    e2, d2 = epsilon_delta(2)
    assert (round(e2, 4), round(d2, 4)) == (0.4887, 0.6118)
    e10, d10 = epsilon_delta(10)
    assert (round(e10, 4), round(d10, 4)) == (0.8728, 0.8948)


def test_epsilon_delta_ordering_and_residuals():
    # delta - epsilon shrinks from 0.12 at n = 2 to 2.5e-4 at n = 1000
    for n in [*range(2, 201), 500, 1000]:
        eq = equilibrium(Variant.ADVANTAGED, n)
        e_, d_ = eq.thresholds[0], eq.thresholds[-1]
        assert 0.0 < e_ < d_ < 1.0, n
        assert len(eq.residuals) == 2
        assert max(abs(r) for r in eq.residuals) <= 1e-12, (n, eq.residuals)


def _mp_epsilon_delta(n, start):
    """The two advantaged-game equations solved by 40-digit Newton iteration."""
    with mpmath.workdps(40):

        def p(x):
            return 1 + mpmath.exp(x) * (x - 1)

        def normal(x, y):
            ex, ey = mpmath.exp(x), mpmath.exp(y)
            num = ey * ((1 + ex * (y - 1)) ** n - 1) + n * ex
            return p(x) ** (n - 2) - num / (n * ex * p(y) * (1 + ex * (n - 2 + x)))

        def advantaged(x, y):
            ex = mpmath.exp(x)
            q = 1 + ex * (y - 1)
            return q ** (n - 1) - p(x) ** (n - 1) * y - (1 - q**n) / (n * ex)

        return mpmath.findroot([normal, advantaged], start)


@pytest.mark.parametrize("n", [2, 11, 31, 40, 60, 200, 1000])
def test_epsilon_delta_matches_mpmath(n):
    e_, d_ = epsilon_delta(n)
    me, md = _mp_epsilon_delta(n, (round(e_, 4), round(d_, 4)))
    assert abs(e_ - me) <= 1e-12
    assert abs(d_ - md) <= 1e-12


def test_epsilon_delta_empirically_increasing():
    pairs = [epsilon_delta(n) for n in range(2, 11)]
    assert all(b[0] > a[0] for a, b in zip(pairs, pairs[1:]))
    assert all(b[1] > a[1] for a, b in zip(pairs, pairs[1:]))


def test_epsilon_delta_matches_curve_sampling_oracle():
    # brute-force oracle: intersect the two sampled curves on a 1e-3 grid
    x = np.arange(1, 1000) / 1000
    ya, yb = advantaged_curve_points(3, x)
    gap = np.abs(ya - yb)
    assert not np.isnan(gap).all()
    best = np.nanargmin(gap)  # the first smallest gap, as the scalar loop found it
    e3, d3 = epsilon_delta(3)
    assert abs(x[best] - e3) <= 1e-3
    assert abs(0.5 * (ya[best] + yb[best]) - d3) <= 5e-3


def test_threshold_solvers_reject_small_n():
    for solver in (alpha, gamma, epsilon_delta):
        with pytest.raises(ValueError):
            solver(1)


# --- equilibrium summaries ----------------------------------------------------


def test_equilibrium_external():
    eq = equilibrium(Variant.EXTERNAL, 3)
    assert round(eq.thresholds[0], 4) == 0.6989
    assert round(eq.win_probs[0], 4) == 0.3129
    assert eq.tie_prob == pytest.approx(bust_prob(eq.thresholds[0]) ** 3, abs=1e-14)


def test_equilibrium_zero_sum():
    eq = equilibrium(Variant.ZERO_SUM, 2)
    assert round(eq.tie_prob, 4) == 0.1162  # published digit 0.1163 is one ulp high
    assert round(eq.win_probs[0], 4) == 0.4419


def test_equilibrium_advantaged():
    eq = equilibrium(Variant.ADVANTAGED, 2)
    assert round(eq.win_probs[-1], 4) == 0.5366
    assert round(eq.win_probs[0], 4) == 0.4634
    assert eq.tie_prob is None
    assert eq.win_probs[-1] + eq.win_probs[0] == pytest.approx(1.0, abs=1e-12)


def test_equilibrium_advantaged_probability_identity():
    for n in (3, 6):
        eq = equilibrium(Variant.ADVANTAGED, n)
        assert eq.win_probs[-1] + (n - 1) * eq.win_probs[0] == pytest.approx(
            1.0, abs=1e-10
        )


@pytest.mark.parametrize("variant", list(Variant))
def test_equilibrium_payoffs_match_the_profile_integral(variant):
    # the closed-form payoffs against the kernel's integral of the same profile
    for n in (2, 3, 10, 60):
        eq = equilibrium(variant, n)
        integrated = payoff_map(variant, win_probabilities(eq.thresholds))
        assert len(eq.payoffs) == n
        assert max(abs(a - b) for a, b in zip(eq.payoffs, integrated)) <= 1e-13


# --- profile win probabilities -------------------------------------------------


def test_win_probabilities_symmetric_zero_thresholds():
    out = win_probabilities((0.0, 0.0))
    assert out.win_probs[0] == pytest.approx(0.5, abs=1e-12)
    assert out.win_probs[1] == pytest.approx(0.5, abs=1e-12)
    assert out.tie_prob == 0.0


def test_win_probabilities_match_two_player_closed_form():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        x, y = rng.random(), rng.random()
        out = win_probabilities((x, y))
        assert abs(out.win_probs[0] - two_player_win(x, y)) < 1e-10
        assert abs(out.win_probs[1] - two_player_win(y, x)) < 1e-10


def test_win_probabilities_match_simulation():
    thresholds = (0.3, 0.6, 0.8)
    out = win_probabilities(thresholds)
    rep = run(
        "simultaneous",
        Variant.EXTERNAL,
        StrategyProfile.fixed(thresholds),
        SimConfig(trials=10_000_000, seed=77, chunk_count=8),
    )
    for est, ref in zip(rep.win_rates, out.win_probs):
        assert abs(est - ref) <= 4 * rep.stderr(ref)
    assert abs(rep.tie_rate - out.tie_prob) <= 4 * rep.stderr(out.tie_prob)


def test_win_probabilities_match_pointwise_quadrature():
    # third route, independent of both the simulator and the piecewise algebra
    from showdown.score import score_cdf

    thresholds = (0.25, 0.55, 0.85)
    out = win_probabilities(thresholds)
    for i, u in enumerate(thresholds):
        rivals = [v for j, v in enumerate(thresholds) if j != i]
        ref = math.exp(u) * integrate_adaptive(
            lambda s: math.prod(score_cdf(v, s) for v in rivals), u, 1.0, 1e-12
        )
        assert abs(out.win_probs[i] - ref) < 1e-10


def test_best_response_exact_and_quadrature_paths_agree():
    # the threshold from the closed-form pieces against one root of
    # h - h_tilde on [0, 1] with h integrated by adaptive quadrature
    spec = stop_payoff_function(Variant.ZERO_SUM, 0, (0.6, 0.75))
    exact = optimal_threshold(spec)
    quad = _full_range_threshold(spec, lambda a, b: integrate_adaptive(_at(spec.h), a, b, 1e-12))
    assert abs(exact - quad) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=100),
)
@example([0.9] * 30)  # a monomial-basis expansion gives closure error 16 here
@example([0.7] * 60)
def test_win_probabilities_closure(thresholds):
    out = win_probabilities(thresholds)
    assert abs(sum(out.win_probs) + out.tie_prob - 1.0) <= 1e-12


def _batch(n, seed):
    """Seeded uniform profiles plus equal thresholds and thresholds at 0 and 1."""
    rng = np.random.default_rng(seed)
    ends = [[0.0] * n, [1.0] * n, [0.0] * (n - 1) + [1.0], [1.0, 0.0] * (n // 2) + [0.5] * (n % 2)]
    return rng.random((3, n)).tolist() + [[0.7] * n, [0.3] * (n - 1) + [0.9]] + ends


def _sweep_wins(us):
    """One profile's win probabilities by a sweep over the log-CDFs at the
    nodes that the stopping kernel lays for CdfProduct(us)."""
    form = CdfProduct(us)
    u, p, e = form._columns
    wins = np.zeros(len(us))
    for _, nodes, weights in score._node_blocks(*form.pieces(), len(us)):
        logs = _log_cdf(nodes, u, p, e)
        wins += ((nodes > u) * np.exp(logs.sum(axis=0) - logs)) @ weights
    return wins * np.exp(us)


@pytest.mark.parametrize("n", [2, 3, 10, 30])
def test_win_probabilities_many_rows_match_single_calls(n):
    profiles = _batch(n, seed=n)
    wins, tie = win_probabilities_many(profiles)
    assert wins.shape == (len(profiles), n) and tie.shape == (len(profiles),)
    array_wins, array_tie = win_probabilities_many(np.array(profiles))
    assert np.array_equal(array_wins, wins) and np.array_equal(array_tie, tie)
    for row, t, us in zip(wins, tie, profiles):
        single = win_probabilities(us)
        assert np.abs(row - single.win_probs).max() <= 1e-15
        assert abs(t - single.tie_prob) <= 1e-15
        assert np.abs(row - _sweep_wins(us)).max() <= 1e-15
        assert abs(t - math.prod(bust_prob(u) for u in us)) <= 1e-15
    for variant in Variant:  # the batch form of payoff_map agrees row by row
        mapped = payoff_map(variant, (wins, tie))
        for row, us in zip(mapped, profiles):
            single = payoff_map(variant, win_probabilities(us, n - 1))
            assert row.tolist() == list(single)


@pytest.mark.parametrize("n, m", [(3, 3000), (60, 4)])
def test_win_probabilities_many_independent_of_blocking(n, m, monkeypatch):
    # n = 3: m n nodes exceeds _BLOCK, so profiles are split across blocks;
    # n = 60: one profile's nodes alone exceed it, so they are split too
    from showdown import score

    profiles = np.random.default_rng(n).random((m, n))
    wins, tie = win_probabilities_many(profiles)
    for i in (0, m // 2, m - 1):
        one_wins, one_tie = win_probabilities_many(profiles[i : i + 1])
        assert np.array_equal(wins[i], one_wins[0]) and tie[i] == one_tie[0]
    monkeypatch.setattr(score, "_BLOCK", 7 * n)  # a few nodes per block
    small_wins, small_tie = win_probabilities_many(profiles[:5])
    assert np.abs(small_wins - wins[:5]).max() <= 1e-15
    assert np.array_equal(small_tie, tie[:5])


def test_win_probabilities_many_closure_up_to_100_players():
    worst = 0.0
    for n in range(2, 101):
        wins, tie = win_probabilities_many(_batch(n, seed=1000 + n))
        worst = max(worst, np.abs(wins.sum(axis=1) + tie - 1.0).max())
    assert worst <= 1e-13


# thresholds at and next to the ends of [0, 1]: 0 never busts, 1 always does
EDGES = (0.0, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0)
# the sweep's edges add the smallest subnormal, 1e-12 and interior points
SWEEP_EDGES = (0.0, 5e-324, 1e-300, 1e-12, 0.3, 0.5, 0.9, 1.0 - 2.0**-53, 1.0)


def _assert_in_range(wins, tie):
    """Every value in [0, 1], each win at most its row's 1 - tie, closure to 1e-13."""
    assert ((wins >= 0.0) & (wins <= 1.0)).all() and ((tie >= 0.0) & (tie <= 1.0)).all()
    assert (wins <= (1.0 - tie)[:, None]).all()
    assert np.abs(wins.sum(axis=1) + tie - 1.0).max() <= 1e-13


@pytest.mark.parametrize("n", [2, 3])
def test_win_probabilities_many_in_range_on_edge_profiles(n):
    # before wins were capped at 1 - tie, 6 of these 25 rows at n = 2 and 9 of
    # 125 at n = 3 had a win above it, 4 and 6 of them a win above 1
    profiles = np.array(list(itertools.product(EDGES, repeat=n)))
    wins, tie = win_probabilities_many(profiles)
    _assert_in_range(wins, tie)
    sure = profiles.min(axis=1) == 0.0  # a lone threshold 0 against rivals at 1 wins surely
    sure &= (profiles == 1.0).sum(axis=1) == n - 1
    assert (wins[sure].max(axis=1) == 1.0).all() and (tie[sure] == 0.0).all()


def _mixed_profile(n, c, seed):
    """n thresholds, each one of SWEEP_EDGES, a uniform value, or one of the
    cluster c + k * 1e-9 (k < 100), drawn by a seeded generator."""
    rng = np.random.default_rng(seed)
    kinds = [rng.choice(SWEEP_EDGES, n), rng.random(n), c + rng.integers(0, 100, n) * 1e-9]
    return np.choose(rng.integers(0, 3, n), kinds).tolist()


@settings(max_examples=700, deadline=None, derandomize=True)
@given(
    st.builds(
        _mixed_profile,
        st.one_of(st.integers(2, 100), st.integers(3, 6)),  # and more of the oracle's sizes
        st.floats(0.0, 1.0 - 1e-7),
        st.integers(0, 2**32 - 1),
    ),
    st.floats(0.0, 1.0, exclude_max=True),
)
@example([0.0, 1.0], 0.0)  # an exact 1 that came out as 1 + 2**-52
@example([1e-300, 0.5, 1.0 - 2.0**-53], 0.5)  # the oracle at n = 3 and 5, seats inside
@example([0.3, 0.3 + 1e-9, 5e-324, 0.9, 1e-12], 0.2)
def test_win_probabilities_many_in_range(thresholds, seat_draw):
    n = len(thresholds)
    outcome = win_probabilities_many([thresholds])
    _assert_in_range(*outcome)
    for variant in Variant:
        payoffs = payoff_map(variant, outcome)
        assert ((payoffs >= -1.0) & (payoffs <= 1.0)).all(), variant
    # the advantaged seat may be any seat, not only the last
    seat = int(seat_draw * n)
    wins, tie = (a[0].tolist() for a in outcome)
    outcome = ProfileOutcome(tuple(thresholds), tuple(wins), tie, advantaged=seat)
    advantaged = payoff_map(Variant.ADVANTAGED, outcome)
    assert all(0.0 <= v <= 1.0 for v in advantaged) and advantaged[seat] == wins[seat] + tie
    if n <= 6:  # the 40-digit oracle
        with mpmath.workdps(40):
            mp_tie = mpmath.fprod(_mp_bust(mpmath.mpf(u)) for u in thresholds)
        assert abs(tie - float(mp_tie)) <= 1e-13
        for i in range(n):
            assert abs(wins[i] - _mp_win(thresholds, i)) <= 1e-13, i


def test_win_probabilities_many_memory_bounded_by_outputs():
    # besides its input and its two outputs, the kernel holds one block of
    # profiles at a time (it held about ten arrays the batch's size before)
    import tracemalloc

    profiles = np.random.default_rng(3).random((200_000, 3))
    win_probabilities_many(profiles[:1])  # the Gauss-Legendre rule is cached
    tracemalloc.start()
    try:
        wins, tie = win_probabilities_many(profiles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= wins.nbytes + tie.nbytes + 2 * 2**20


@pytest.mark.parametrize(
    "profiles",
    [[0.5, 0.5], [[0.5]], [[0.2, 1.5]], [[0.2, math.nan]], [[0.1, 0.2], [0.3]]],
)
def test_win_probabilities_many_rejects_bad_batches(profiles):
    with pytest.raises(ValueError):
        win_probabilities_many(profiles)


def _profile_near_alpha(n, seed, spread=0.02):
    rng = np.random.default_rng(seed)
    a = alpha(n)
    return [float(min(1.0, max(0.0, a + d))) for d in rng.uniform(-spread, spread, n)]


def _mp_win(us, i):
    """Player i's win probability by 40-digit mpmath.quad over the pieces of
    [u_i, 1] between thresholds, with the rivals' CDFs multiplied directly."""
    with mpmath.workdps(40):
        u = [mpmath.mpf(x) for x in us]
        e = [mpmath.exp(x) for x in u]
        rivals = [j for j in range(len(u)) if j != i]
        cuts = sorted({u[i], mpmath.mpf(1), *(x for x in u if x > u[i])})
        total = mpmath.mpf(0)
        for lo, hi in zip(cuts, cuts[1:]):
            const = mpmath.fprod(1 + e[j] * (u[j] - 1) for j in rivals if u[j] >= hi)
            slopes = [e[j] for j in rivals if u[j] <= lo]

            def f(s, const=const, slopes=slopes):
                r = const
                for ej in slopes:
                    r *= 1 + ej * (s - 1)
                return r

            # the integrand is a polynomial on each piece, so mpmath's
            # Gauss-Legendre levels settle at once (tanh-sinh is 6x slower)
            total += mpmath.quad(f, [lo, hi], method="gauss-legendre")
        return float(e[i] * total)


@pytest.mark.parametrize("n", [3, 10, 30, 60, 100])
def test_win_probabilities_match_mpmath(n):
    us = _profile_near_alpha(n, seed=n)
    got = win_probabilities(us).win_probs
    order = sorted(range(n), key=us.__getitem__)
    for i in {order[0], order[n // 2], order[-1]}:  # the most and fewest pieces
        assert abs(got[i] - _mp_win(us, i)) <= 1e-13, (n, i)


def _mp_bust(x):
    return 1 + mpmath.exp(x) * (x - 1)


def _mp_symmetric_root(residual, start):
    """The root near `start` of residual(p(x), e**x), p = bust_prob, by
    40-digit Newton iteration; returns p and e**x there."""
    with mpmath.workdps(40):
        x = mpmath.findroot(lambda x: residual(_mp_bust(x), mpmath.exp(x)), start)
        return _mp_bust(x), mpmath.exp(x)


def _mp_misrounded(label):
    """The value behind a misprinted table 2, 4 or 5 entry, derived at 40
    digits from the defining equations."""
    name, n = label.split("_")
    n = int(n)
    with mpmath.workdps(40):
        if name == "P":  # table 2: each of n players at alpha_n wins (1 - p**n) / n
            p, e = _mp_symmetric_root(lambda p, e: p ** (n - 1) - (1 - p**n) / (n * e), alpha(n))
            return (1 - p**n) / n
        if name in ("gamma", "tie"):  # table 4: p**(n-1) (1 + e**x (n-1)) = 1 at gamma_n
            p, e = _mp_symmetric_root(lambda p, e: p ** (n - 1) * (1 + e * (n - 1)) - 1, gamma(n))
            return mpmath.log(e) if name == "gamma" else p**n
        eps, delta = _mp_epsilon_delta(n, tuple(round(t, 4) for t in epsilon_delta(n)))
        profile = (eps,) * (n - 1) + (delta,)
        if name == "PN":  # table 5: a normal seat's win probability
            return _mp_win(profile, 0)
        # the advantaged seat also takes the all-bust draw
        return _mp_win(profile, n - 1) + _mp_bust(eps) ** (n - 1) * _mp_bust(delta)


def test_misrounded_tables_2_4_5_values_from_mpmath():
    # the high-precision values behind the published misprints, derived here
    # to the digits they are stated with
    labels = [label for label, (table, _) in MISROUNDED.items() if table != "table1"]
    assert labels == ["P_5", "gamma_2", "tie_2", "tie_8", "PA_8", "PN_7"]
    for label in labels:
        value = MISROUNDED[label][1]
        digits = len(repr(value).split(".")[1])
        assert round(float(_mp_misrounded(label)), digits) == value, label


@pytest.mark.parametrize("n", range(2, 11))
def test_win_probabilities_match_piecewise_reference(n):
    # seat i wins with e**u_i times the integral over [u_i, 1] of the other
    # seats' CDFs, multiplied and integrated exactly in 50 digits
    rng = np.random.default_rng(100 + n)
    profiles = [_profile_near_alpha(n, seed=n, spread=0.05), rng.random(n).tolist()]
    for us in profiles + [[0.0] * (n - 1) + [1.0]]:
        cdfs = [reference_cdf(u) for u in us]
        got = win_probabilities(us).win_probs
        for i, u in enumerate(us):
            others = cdfs[:i] + cdfs[i + 1 :]
            want = math.exp(u) * float(product_integral(others, u, 1.0))
            assert abs(got[i] - want) <= 1e-11, (us, i)


# --- two-player closed form -----------------------------------------------------


def test_two_player_win_values():
    assert two_player_win(0.0, 0.0) == pytest.approx(0.5, abs=1e-14)
    a2 = alpha(2)
    assert round(two_player_win(a2, a2), 4) == 0.4665
    p = two_player_win(0.5, 0.5)
    assert p == pytest.approx((1 - bust_prob(0.5) ** 2) / 2, abs=1e-12)
    assert p == pytest.approx(0.48457, abs=1e-5)  # 0.4845754, truncated reference


def test_two_player_symmetry_identity():
    for i in range(21):
        for j in range(21):
            x, y = i / 20, j / 20
            total = two_player_win(x, y) + two_player_win(y, x)
            assert abs(total - (1 - bust_prob(x) * bust_prob(y))) < 1e-10


def test_two_player_deviation_hurts_both():
    # moving the rival's threshold into (a2, 0.74] lowers player 1's win odds
    a2 = alpha(2)
    base = two_player_win(a2, a2)
    for y in np.linspace(a2 + 0.005, 0.74, 40):
        assert two_player_win(a2, float(y)) < base


# --- payoff mapping --------------------------------------------------------------


def test_payoff_map_zero_sum_symmetric_is_zero():
    g = gamma(3)
    out = win_probabilities((g, g, g))
    payoffs = payoff_map(Variant.ZERO_SUM, out)
    for p in payoffs:
        assert abs(p) < 1e-12


def test_payoff_map_external_all_greedy():
    out = win_probabilities((1.0, 1.0, 1.0))
    assert out.tie_prob == pytest.approx(1.0, abs=1e-12)
    for p in payoff_map(Variant.EXTERNAL, out):
        assert abs(p) < 1e-12


def test_payoff_map_advantaged_reference():
    e2, d2 = epsilon_delta(2)
    out = win_probabilities((e2, d2))
    payoffs = payoff_map(Variant.ADVANTAGED, out)
    assert payoffs[1] == pytest.approx(0.5366, abs=5e-5)
    assert payoffs[0] == pytest.approx(0.4634, abs=5e-5)
    assert sum(payoffs) == pytest.approx(1.0, abs=1e-12)


def test_payoff_map_zero_sum_sums_to_zero():
    out = win_probabilities((0.2, 0.5, 0.9))
    assert abs(sum(payoff_map(Variant.ZERO_SUM, out))) < 1e-12


@pytest.mark.parametrize(
    "wins, tie",
    [
        (np.array([[0.5]]), np.array([0.1])),  # one seat: zero-sum divided by 0
        (np.full((2, 2), 0.4), np.array([0.2])),  # a tie that would broadcast
        (np.array([0.4, 0.4]), np.array([0.2])),  # 1-D wins
        (np.full((2, 2), 0.4), np.full((2, 1), 0.2)),  # a column of ties
    ],
)
def test_payoff_map_rejects_malformed_batches(wins, tie):
    for variant in Variant:
        with pytest.raises(ValueError, match=r"batch needs wins \(m, n >= 2\), tie \(m,\)"):
            payoff_map(variant, (wins, tie))


# --- stop payoff functions --------------------------------------------------------


def test_stop_payoff_external_closed_form():
    n = 4
    a = alpha(n)
    spec = stop_payoff_function(Variant.EXTERNAL, 0, (a,) * (n - 1))
    assert spec.h0 == 0.0
    for x in (a, 0.8, 1.0):
        assert _at(spec.h)(x) == pytest.approx(
            (1 + math.exp(a) * (x - 1)) ** (n - 1), abs=1e-12
        )


def test_stop_payoff_zero_sum_bust_value():
    g = gamma(2)
    spec = stop_payoff_function(Variant.ZERO_SUM, 0, (g,))
    assert spec.h0 == pytest.approx(-(1 - bust_prob(g)), abs=1e-14)


def test_stop_payoff_advantaged_closed_form():
    n = 3
    eps, _ = epsilon_delta(n)
    spec = stop_payoff_function(Variant.ADVANTAGED, n - 1, (eps,) * (n - 1))
    assert spec.h0 == pytest.approx(bust_prob(eps) ** (n - 1), abs=1e-14)
    for y in (eps, 0.9):
        assert _at(spec.h)(y) == pytest.approx(
            (1 + math.exp(eps) * (y - 1)) ** (n - 1), abs=1e-12
        )
    normal = stop_payoff_function(Variant.ADVANTAGED, 0, (eps, eps))
    assert normal.h0 == 0.0


def test_stop_payoff_takes_each_bust_probability_once(monkeypatch):
    # the all-bust product comes from the CdfProduct's own factors: one
    # bust_prob call per rival, and the same h0 as the product taken afresh
    import showdown.score

    calls = []

    def counted(tau):
        calls.append(tau)
        return bust_prob(tau)

    monkeypatch.setattr(showdown.score, "bust_prob", counted)
    monkeypatch.setattr("showdown.simultaneous.bust_prob", counted)
    for n in (2, 5, 30):
        rivals = [i / n for i in range(1, n)]
        product = math.prod(bust_prob(u) for u in rivals)
        for variant, h0 in (
            (Variant.ZERO_SUM, -(1.0 - product) / (n - 1.0)),
            (Variant.ADVANTAGED, product),
        ):
            calls.clear()
            assert stop_payoff_function(variant, n - 1, rivals).h0 == h0
            assert len(calls) == n - 1


# --- best responses -----------------------------------------------------------------


def test_best_response_external():
    a3 = alpha(3)
    assert abs(best_response(Variant.EXTERNAL, 0, (a3, a3)) - a3) < 1e-6


def test_best_response_zero_sum():
    g2 = gamma(2)
    assert abs(best_response(Variant.ZERO_SUM, 0, (g2,)) - g2) < 1e-6


def test_best_response_advantaged_both_roles():
    e4, d4 = epsilon_delta(4)
    br_adv = best_response(Variant.ADVANTAGED, 3, (e4, e4, e4))
    br_normal = best_response(Variant.ADVANTAGED, 0, (e4, e4, d4))
    assert abs(br_adv - d4) < 1e-6
    assert abs(br_normal - e4) < 1e-6


@pytest.mark.parametrize("n", [30, 60, 100])
@pytest.mark.parametrize(
    "variant, seat",
    [(Variant.EXTERNAL, 0), (Variant.ZERO_SUM, 0), (Variant.ADVANTAGED, 0),
     (Variant.ADVANTAGED, -1)],
)
def test_best_response_fixed_points_large_n(n, variant, seat):
    thresholds = equilibrium(variant, n).thresholds
    seat %= n
    rivals = thresholds[:seat] + thresholds[seat + 1 :]
    assert abs(best_response(variant, seat, rivals) - thresholds[seat]) <= 1e-9


def _at(form):
    """x -> the payoff form at the one point x."""
    return lambda x: float(form.values(np.array([x]))[0])


def _full_range_threshold(spec, integral=None):
    """The optimal threshold as one bracketed root of h - h_tilde on all of
    [0, 1], each evaluation integrating h over [x, 1]: the reference for the
    cut sweep.  Where the root sits on a cut the residual has a kink, and
    Brent's method may stop up to its tol short of it (by 6.8e-13 at tol
    1e-12 at n = 100), so the reference runs at tol 1e-16, which leaves only
    its rounding floor 2 eps |x|.  h integrates by the piecewise Gauss
    reference, or by `integral(a, b)` when that is given."""
    integral = integral or (lambda a, b: gauss_pieces(spec.h, a, b))
    h = _at(spec.h)

    def diff(x):  # h(x) - h_tilde(x), h_tilde(x) = h0 x + integral of h over [x, 1]
        return (spec.h0 if x == 0.0 else h(x)) - (spec.h0 * x + integral(x, 1.0))

    lo, hi = diff(0.0), diff(1.0)
    if lo >= 0.0:
        return 0.0
    if hi < 0.0:
        return 1.0
    return solve_root(diff, Bracket(0.0, 1.0), 1e-16, f_ends=(lo, hi))


def _spread_profiles(n, seed):
    """Seeded profiles: uniform on [0, 1], clustered around alpha_n, and drawn
    from a few values with repeats, 0 and 1 among them."""
    rng = np.random.default_rng(seed)
    c = alpha(n)
    return [
        rng.random(n).tolist(),
        (c + 0.25 * (1.0 - c) * rng.uniform(-1.0, 1.0, n)).tolist(),
        rng.choice([0.0, 0.3, 0.3, c, c, 1.0], n).tolist(),
    ]


@pytest.mark.parametrize("n", [3, 4, 7, 10, 30, 60, 100])
def test_best_response_sweep_matches_full_range_root(n):
    seats = range(n) if n <= 10 else (0, n // 2, n - 1)
    for profile in _spread_profiles(n, seed=n):
        for variant in Variant:
            for seat in seats:
                rivals = profile[:seat] + profile[seat + 1 :]
                spec = stop_payoff_function(variant, seat, rivals)
                kappa = optimal_threshold(spec)
                assert abs(kappa - _full_range_threshold(spec)) <= 1e-14, (variant, seat)


@pytest.mark.parametrize(
    "n, variant",
    [(n, v) for n in (2, 3, 10, 30, 60, 100) for v in Variant
     if not (v is Variant.ADVANTAGED and n == 2)],
)
def test_best_response_root_on_a_cut(n, variant):
    # At a symmetric equilibrium (ii.3: a normal seat, n >= 3) the rivals
    # include the seat's own threshold, so the root sits on a cut; at n = 2
    # under ii.2 the residual there is exactly 0.
    thresholds = equilibrium(variant, n).thresholds
    spec = stop_payoff_function(variant, 0, thresholds[1:])
    kappa = optimal_threshold(spec)
    assert thresholds[0] in spec.h.pieces()[0]
    assert abs(kappa - thresholds[0]) <= 1e-14
    assert abs(kappa - _full_range_threshold(spec)) <= 1e-14


def test_best_response_against_greedy_stopper():
    # a rival who stops on any positive score makes the payoff h(x) = x, whose
    # optimal threshold is sqrt(2) - 1
    br = best_response(Variant.EXTERNAL, 0, (0.0,))
    assert abs(br - (math.sqrt(2) - 1)) < 1e-9
    grid = np.linspace(0, 1, 101)
    scan = [two_player_win(float(t), 0.0) for t in grid]
    assert abs(grid[int(np.argmax(scan))] - br) <= 0.01


# --- zero-sum guarantee surface -----------------------------------------------------


def test_zero_sum_equilibrium_guarantees_non_negative_payoff():
    g3 = gamma(3)
    for i in range(51):
        for j in range(51):
            out = win_probabilities((g3, i / 50, j / 50))
            assert payoff_map(Variant.ZERO_SUM, out)[0] >= -1e-9


def test_advantaged_curve_points_bracket_solution():
    e3, d3 = epsilon_delta(3)
    ya, yb = advantaged_curve_points(3, e3)
    assert ya.shape == yb.shape == ()
    assert abs(ya - d3) < 1e-6
    assert abs(yb - d3) < 1e-6


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("x", [0.93, 0.99])
def test_advantaged_curve_points_increasing_is_best_response(n, x):
    # near x = 1 the advantaged reply sits within 0.004 of the diagonal
    _, yb = advantaged_curve_points(n, x)
    assert not np.isnan(yb)
    assert abs(yb - best_response(Variant.ADVANTAGED, n - 1, (x,) * (n - 1))) < 1e-9


def test_advantaged_curve_points_at_and_next_to_x_equal_1():
    # within 1e-9 of x = 1 the residual at y = x rounds to a positive value
    x = np.array([1 - 1e-9, 1 - 1e-12, 1.0])
    for n in (2, 6, 1000):
        yb = advantaged_curve_points(n, x)[1]
        assert ((x <= yb) & (yb <= 1.0)).all()
        assert yb[-1] == 1.0


def test_advantaged_curve_points_skips_root_at_pole():
    # at n = 5, x = 0.98 the normal player's residual also vanishes next to
    # its pole at y = 0 (near 0.0052); the curve is the larger root
    ya, _ = advantaged_curve_points(5, 0.98)
    assert abs(ya - 0.371939) < 1e-6
    assert np.isnan(advantaged_curve_points(3, 0.3)[0])


# x on a 1e-3 grid, and at and next to 1, where the reply's bracket shrinks
CURVE_X = np.concatenate((np.arange(1001) / 1000, [1 - 1e-12, 1 - 1e-9]))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 1000])
def test_advantaged_curve_points_match_scalar_reference(n):
    decreasing, increasing = advantaged_curve_points(n, CURVE_X)
    for x, ya, yb in zip(CURVE_X.tolist(), decreasing.tolist(), increasing.tolist()):
        ref_a, ref_b = curve_points(n, x)
        if ref_a is None:
            assert math.isnan(ya), x
        else:
            assert abs(ya - ref_a) <= 1e-11, x
        assert abs(yb - ref_b) <= 1e-11, x


def test_advantaged_curve_points_rows_solved_alone():
    # each point of a broadcast batch is bitwise the point solved alone
    n = np.arange(2, 7)[:, None]
    x = np.array([0.0, 0.05, 0.3, 0.5, 0.93, 0.98, 1 - 1e-9, 1.0])
    decreasing, increasing = advantaged_curve_points(n, x)
    assert decreasing.shape == increasing.shape == (5, 8)
    for i, k in enumerate(range(2, 7)):
        for j, xj in enumerate(x.tolist()):
            ya, yb = advantaged_curve_points(k, xj)
            assert np.array_equal(ya, decreasing[i, j], equal_nan=True)
            assert yb == increasing[i, j]


@pytest.mark.parametrize(
    "n, x", [(1, 0.5), (2.0, 0.5), ([2, 1], 0.5), (3, -0.1), (3, 1.5), (3, [0.2, math.nan])]
)
def test_advantaged_curve_points_rejects_bad_input(n, x):
    with pytest.raises(ValueError):
        advantaged_curve_points(n, x)
