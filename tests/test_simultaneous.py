import functools
import itertools
import json
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from showdown import numerics, score
from showdown.numerics import solve_root
from showdown.score import CdfProduct, _log_cdf, bust_prob
from showdown.simulator import SimConfig, StrategyProfile, run
from showdown.simultaneous import (
    MAX_PLAYERS,
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
    three_player_wins,
    two_player_win,
    win_probabilities,
)
from showdown.stopping import optimal_threshold

import mp_reference as ref
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


def _mp_epsilon_delta(n, start, dps=40):
    """The two advantaged-game equations solved by Newton iteration, to 40
    digits or to `dps`."""
    with mpmath.workdps(dps):

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


@pytest.mark.parametrize("n", [10**3, 10**6, MAX_PLAYERS])
def test_thresholds_within_two_ulps_up_to_max_players(n):
    # against 60-digit roots; at 10**10 epsilon is already 6 ulps off
    def ulps(got, exact):
        return float(abs(mpmath.mpf(got) - exact)) / math.ulp(got)

    def root(residual, x):
        # the sign change within 1e-13 of the float, by the Illinois method
        return mpmath.findroot(residual, (x - 1e-13, x + 1e-13), solver="illinois")

    def p(x):
        return _mp_bust(x)

    eps, delta = epsilon_delta(n)
    with mpmath.workdps(60):
        exact_alpha = root(lambda x: p(x) ** (n - 1) - (1 - p(x) ** n) / (n * mpmath.exp(x)), alpha(n))
        exact_gamma = root(lambda x: p(x) ** (n - 1) * (1 + mpmath.exp(x) * (n - 1)) - 1, gamma(n))
        exact_eps, exact_delta = _mp_epsilon_delta(n, (eps, delta), dps=60)
        got = [ulps(alpha(n), exact_alpha), ulps(gamma(n), exact_gamma)]
        got += [ulps(eps, exact_eps), ulps(delta, exact_delta)]
    assert max(got) <= 2.0, got


def test_player_counts_above_max_players_refused():
    n = MAX_PLAYERS + 1
    for call in (alpha, gamma, epsilon_delta, *(functools.partial(equilibrium, v) for v in Variant)):
        with pytest.raises(ValueError, match="at most"):
            call(n)


@pytest.mark.parametrize("n", [2, 5, 30])
def test_numpy_integer_player_counts(n):
    # taken through operator.index and solved with the Python int, so the
    # cached roots and the tie's power carry the int's bits and type
    k = np.int64(n)
    for solver in (alpha, gamma, epsilon_delta):
        assert solver.__wrapped__(k) == solver(n)
    for variant in Variant:
        eq = equilibrium(variant, k)
        assert type(eq.n) is int and eq == equilibrium(variant, n)
    for bad in (float(n), n + 0.5, "3"):
        with pytest.raises(ValueError, match="player count must be an integer >= 2"):
            equilibrium(Variant.EXTERNAL, bad)


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


def test_equilibrium_groups_expand_to_seats():
    eq = equilibrium(Variant.ADVANTAGED, 5)
    (eps, normal, p_normal, pay_normal), (delta, one, p_adv, pay_adv) = eq.groups
    assert (normal, one) == (4, 1)
    assert eq.thresholds == (eps,) * 4 + (delta,) and eq.win_probs == (p_normal,) * 4 + (p_adv,)
    assert eq.payoffs == eq.win_probs and (pay_normal, pay_adv) == (p_normal, p_adv)
    ((u, seats, win, payoff),) = equilibrium(Variant.ZERO_SUM, 7).groups
    assert (u, seats, payoff) == (gamma(7), 7, 0.0)


# each variant's equilibrium at 10**9 players, timed in the child
_BILLION_SCRIPT = """
import json, time
from showdown.simultaneous import equilibrium
out = {}
for variant in ("ii.1", "ii.2", "ii.3"):
    start = time.perf_counter()
    eq = equilibrium(variant, 10**9)
    seconds = time.perf_counter() - start
    closure = sum(seats * win for _, seats, win, _ in eq.groups) + (eq.tie_prob or 0.0) - 1.0
    out[variant] = [seconds, closure, [seats for _, seats, _, _ in eq.groups]]
print(json.dumps(out))
"""


def test_equilibrium_at_a_billion_players(run_limited):
    # a group per shared threshold: no record grows with n
    proc = run_limited("-c", _BILLION_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    for variant, (seconds, closure, _) in out.items():
        assert seconds < 0.1 and abs(closure) <= 1e-15, (variant, seconds, closure)
    assert [seats for *_, seats in out.values()] == [[10**9], [10**9], [10**9 - 1, 1]]


# each equilibrium seat's best response at 10 000 players, timed in the
# child: the piece above the rivals' threshold needs the 5 000-point rule
_TEN_THOUSAND_SCRIPT = """
import json, resource, time
from showdown.simultaneous import best_response, equilibrium
n, out = 10_000, []
for variant, seats in (("ii.1", (0,)), ("ii.2", (0,)), ("ii.3", (0, n - 1))):
    thresholds = equilibrium(variant, n).thresholds
    for seat in seats:
        start = time.perf_counter()
        reply = best_response(variant, seat, thresholds[:seat] + thresholds[seat + 1 :])
        seconds = time.perf_counter() - start
        out.append([variant, seat, seconds, abs(reply - thresholds[seat])])
print(json.dumps([out, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))
"""


def test_best_response_at_ten_thousand_players(run_limited):
    # each reply is the seat's own threshold to solve_root's 1e-12
    proc = run_limited("-c", _TEN_THOUSAND_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    out, peak_kb = json.loads(proc.stdout)
    assert [(variant, seat) for variant, seat, *_ in out] == [
        ("ii.1", 0), ("ii.2", 0), ("ii.3", 0), ("ii.3", 9_999)
    ]
    for variant, seat, seconds, error in out:
        assert seconds < 2.0 and error <= 1e-12, (variant, seat, seconds, error)
    assert peak_kb < 200 * 1024


# each equilibrium profile's win probabilities at 300 to 2 000 players,
# timed in the child from a cold start, against the solver's closed forms
_EQUILIBRIUM_WINS_SCRIPT = """
import json, time
from showdown.simultaneous import equilibrium, win_probabilities
out = []
for n in (300, 1_000, 2_000):
    for variant in ("ii.1", "ii.2", "ii.3"):
        eq = equilibrium(variant, n)
        start = time.perf_counter()
        got = win_probabilities(eq.thresholds)
        seconds = time.perf_counter() - start
        wins = list(got.win_probs)
        if variant == "ii.3":  # the advantaged seat's equilibrium win takes the tie
            wins[-1] += got.tie_prob
        error = max(abs(a / b - 1.0) for a, b in zip(wins, eq.win_probs))
        out.append([variant, n, seconds, error, sum(got.win_probs) + got.tie_prob - 1.0])
print(json.dumps(out))
"""


def test_win_probabilities_at_equilibrium_profiles(run_limited):
    # one piece and one log-CDF per distinct threshold: an n-seat profile of
    # one or two thresholds costs about one n / 2-point rule
    proc = run_limited("-c", _EQUILIBRIUM_WINS_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert len(out) == 9
    for variant, n, _, error, closure in out:
        assert error <= 1e-13 and abs(closure) <= 1e-13, (variant, n, error, closure)
    assert sum(seconds for _, _, seconds, *_ in out) < 5.0


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


@settings(max_examples=60, deadline=None, derandomize=True)
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


def _stacked(profiles):
    """The wins (m, n) and ties (m,) of win_probabilities on each of m
    profiles of n thresholds."""
    outcomes = [win_probabilities(us) for us in profiles]
    return np.array([o.win_probs for o in outcomes]), np.array([o.tie_prob for o in outcomes])


def _sweep_wins(us):
    """One profile's win probabilities by a sweep over the log-CDFs of its
    distinct thresholds, weighted by their counts, at the nodes that the
    stopping kernel lays for CdfProduct(us); each seat takes its group's."""
    form = CdfProduct(us)
    u, p, e, c = form._groups
    wins = np.zeros(len(u))
    for _, nodes, weights in score._node_blocks(*form.pieces(), len(u)):
        logs = _log_cdf(nodes, u, p, e)
        wins += ((nodes > u) * np.exp((c * logs).sum(axis=0) - logs)) @ weights
    return (wins * np.exp(u[:, 0]))[np.searchsorted(u[:, 0], us)]


@pytest.mark.parametrize("n", [2, 3, 10, 30])
def test_win_probabilities_rows_match_single_calls(n):
    # each profile's wins match the sweep and its tie the bust product
    profiles = _batch(n, seed=n)
    wins, tie = _stacked(profiles)
    for row, t, us in zip(wins, tie, profiles):
        assert np.abs(row - _sweep_wins(us)).max() <= 1e-15
        assert abs(t - math.prod(bust_prob(u) for u in us)) <= 1e-15
    for variant in Variant:  # the batch form of payoff_map agrees row by row
        mapped = payoff_map(variant, (wins, tie))
        for row, us in zip(mapped, profiles):
            single = payoff_map(variant, win_probabilities(us, n - 1))
            assert row.tolist() == list(single)


@pytest.mark.parametrize("n, m", [(3, 3000), (60, 4)])
def test_win_probabilities_independent_of_blocking(n, m, monkeypatch):
    # three of m seeded profiles of n distinct thresholds, laid out in one
    # block of nodes (n = 3) or two (n = 60), then two nodes a block
    profiles = np.random.default_rng(n).random((m, n))[[0, m // 2, m - 1]]
    wins, tie = _stacked(profiles)
    monkeypatch.setattr(score, "_BLOCK", 2 * n)
    small_wins, small_tie = _stacked(profiles)
    assert np.abs(small_wins - wins).max() <= 1e-15
    assert np.array_equal(small_tie, tie)


def test_win_probabilities_closure_up_to_100_players():
    worst = 0.0
    for n in range(2, 101):
        wins, tie = _stacked(_batch(n, seed=1000 + n))
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
def test_win_probabilities_in_range_on_edge_profiles(n):
    # before wins were capped at 1 - tie, 6 of these 25 rows at n = 2 and 9 of
    # 125 at n = 3 had a win above it, 4 and 6 of them a win above 1
    profiles = np.array(list(itertools.product(EDGES, repeat=n)))
    wins, tie = _stacked(profiles)
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
def test_win_probabilities_in_range(thresholds, seat_draw):
    n = len(thresholds)
    outcome = _stacked([thresholds])
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


@pytest.mark.parametrize("thresholds", [[0.5], [0.2, 1.5], [0.2, math.nan], [-1e-12, 0.5]])
def test_win_probabilities_rejects_bad_profiles(thresholds):
    with pytest.raises(ValueError):
        win_probabilities(thresholds)


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


# --- three-player closed form ---------------------------------------------------


def _three_player_profiles():
    """Seeded uniform profiles, the lattice {0, 1e-12, 0.5, 0.7, 1 - 1e-12, 1}**3
    and profiles clustered within 1e-9, as one (m, 3) array."""
    rng = np.random.default_rng(28)
    lattice = list(itertools.product((0.0, 1e-12, 0.5, 0.7, 1.0 - 1e-12, 1.0), repeat=3))
    clustered = rng.choice((1e-9, 0.3, 0.7, 1.0 - 1e-9), (300, 1)) + rng.uniform(-1e-9, 0.0, (300, 3))
    return np.concatenate((rng.random((2000, 3)), lattice, clustered))


def test_three_player_wins_match_gauss_kernel():
    profiles = _three_player_profiles()
    wins, tie = three_player_wins(*profiles.T)
    kernel_wins, kernel_tie = _stacked(profiles)
    assert wins.shape == (len(profiles), 3) and tie.shape == (len(profiles),)
    assert np.abs(wins - kernel_wins).max() <= 1e-15
    assert np.array_equal(tie, kernel_tie)
    assert np.abs(wins.sum(axis=1) + tie - 1.0).max() <= 1e-15
    assert ((wins >= 0.0) & (wins <= 1.0)).all()
    # the thresholds broadcast, and a row is the same alone or in a grid
    grid_wins, grid_tie = three_player_wins(profiles[:5, :1], profiles[:5, 1], 0.5)
    assert grid_wins.shape == (5, 5, 3) and grid_tie.shape == (5, 5)
    one_wins, one_tie = three_player_wins(profiles[2, 0], profiles[3, 1], 0.5)
    assert np.array_equal(one_wins, grid_wins[2, 3]) and one_tie == grid_tie[2, 3]


def test_three_player_wins_match_exact_reference():
    # seat i's win is e**u_i times the integral over [u_i, 1] of the other two
    # seats' CDFs, multiplied and integrated exactly in 50 digits
    profiles = _three_player_profiles()[::40]
    wins, _ = three_player_wins(*profiles.T)
    for us, row in zip(profiles.tolist(), wins.tolist()):
        cdfs = [reference_cdf(u) for u in us]
        for i, u in enumerate(us):
            want = ref.mp.exp(u) * product_integral(cdfs[:i] + cdfs[i + 1 :], u, 1.0)
            assert abs(row[i] - float(want)) <= 1e-15, (us, i)


@pytest.mark.parametrize("bad", [math.nan, -1e-12, 1.0 + 2.0**-52, math.inf])
@pytest.mark.parametrize("seat", range(3))
def test_three_player_wins_rejects_bad_thresholds(bad, seat):
    us = [0.2, 0.5, np.array([0.1, 0.9])]
    us[seat] = np.array([0.3, bad]) if seat == 2 else bad
    with pytest.raises(ValueError):
        three_player_wins(*us)


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


@pytest.mark.parametrize("seat", [True, np.int64(1), 1], ids=["bool", "int64", "int"])
def test_advantaged_seat_is_an_integer_index(seat):
    # numpy would read a bool as a mask and add the tie to every seat
    out = win_probabilities((0.3, 0.6, 0.8), advantaged=seat)
    assert type(out.advantaged) is int and out.advantaged == 1
    payoffs = payoff_map(Variant.ADVANTAGED, out)
    assert sum(payoffs) == pytest.approx(1.0, abs=1e-14)
    assert payoffs[1] == out.win_probs[1] + out.tie_prob
    hand_built = ProfileOutcome(out.thresholds, out.win_probs, out.tie_prob, advantaged=seat)
    assert payoff_map(Variant.ADVANTAGED, hand_built) == payoffs
    with pytest.raises(ValueError, match="advantaged index must be an integer, got 1.0"):
        win_probabilities((0.3, 0.6, 0.8), advantaged=1.0)


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


def test_stop_payoff_takes_each_bust_probability_once():
    # the bust value is the rivals' CdfProduct's all-bust product, the one
    # rule win_probabilities' tie follows too, so it equals that tie bit for
    # bit, for distinct and for repeated rivals (that each distinct rival's
    # constants are taken once, test_cdf_product_matches_pointwise asserts
    # on the _groups rows)
    for n in (3, 5, 30):
        for rivals in ([i / n for i in range(1, n)], [0.7] * (n - 3) + [0.2, 0.2]):
            tie = win_probabilities(rivals).tie_prob
            assert stop_payoff_function(Variant.ADVANTAGED, n - 1, rivals).h0 == tie
            zero_sum = stop_payoff_function(Variant.ZERO_SUM, n - 1, rivals).h0
            assert zero_sum == -(1.0 - tie) / (n - 1.0)


# --- best responses -----------------------------------------------------------------


@pytest.mark.parametrize("variant", list(Variant))
def test_best_response_seat_is_an_integer_index(variant):
    # a float seat was used as a number: 0.5 read as seat 0, 1.0 as seat 1
    rivals = (0.5, 0.5)
    reply = best_response(variant, 2, rivals)
    for seat in (np.int64(2), 2):
        assert best_response(variant, seat, rivals) == reply
    assert best_response(variant, True, rivals) == best_response(variant, 1, rivals)
    for seat in (0.5, 1.0, 2.0, "2"):
        with pytest.raises(ValueError, match=f"player index must be an integer, got {seat!r}"):
            best_response(variant, seat, rivals)
        with pytest.raises(ValueError, match="player index must be an integer"):
            stop_payoff_function(variant, seat, rivals)
    with pytest.raises(ValueError, match="player index out of range: 3"):
        best_response(variant, 3, rivals)


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
    Brent's method may stop up to its tolerance short of it (by 6.8e-13 at
    numerics._TOL = 1e-12 at n = 100), so the reference runs with _TOL at
    1e-16, which leaves only its rounding floor 2 eps |x|.  h integrates by the piecewise Gauss
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
    with mock.patch.object(numerics, "_TOL", 1e-16):
        return solve_root(diff, 0.0, 1.0, f_ends=(lo, hi))


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
    [(n, v) for n in (2, 3, 10, 30, 60, 100, 150, 200) for v in Variant
     if not (v is Variant.ADVANTAGED and n == 2)],
)
def test_best_response_root_on_a_cut(n, variant):
    # At a symmetric equilibrium (ii.3: a normal seat, n >= 3) the rivals
    # include the seat's own threshold, so the root sits on a cut; at n = 2
    # under ii.2 the residual there is exactly 0.  Below the cut D rises with
    # slope p**(n-1) only, so past n = 100 rounding in h and its piece
    # integrals moves the reply off the seat's own threshold (1.4e-14 under
    # ii.1 at n = 150, 3.1e-14 under ii.3 at n = 200), though not off the
    # full-range root (2.2e-16 at most).
    thresholds = equilibrium(variant, n).thresholds
    spec = stop_payoff_function(variant, 0, thresholds[1:])
    kappa = optimal_threshold(spec)
    assert thresholds[0] in spec.h.pieces()[0]
    assert abs(kappa - thresholds[0]) <= (1e-14 if n <= 100 else 5e-14)
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


def test_advantaged_curve_points_figure3_evaluation_budget(monkeypatch):
    # figure 3's 505 points at grid 101: the increasing curve takes 8 lockstep
    # Newton steps over the 500 points where the seat's residual at x is
    # negative (ITP took 12 evaluations over all 505), the decreasing curve
    # 11 ITP steps, each evaluating only the points still running: 2066
    # values (11 x 505 when every step evaluated every point, and bisection
    # took 41 steps), and its halving scan evaluates a point at y = 1 / 2**k
    # only until its residual first turns negative: 505 + 220 + 39 values
    # (the whole 505 x 53 grid before)
    from showdown import simultaneous

    newton, itp, halving, brackets = [], [], [], []
    real_newton, real_itp = simultaneous._newton, simultaneous._bracketed_roots
    real_normal = simultaneous._normal_residual

    def counted_newton(step, y):
        def s(y):
            newton.append(y.size)
            return step(y)

        return real_newton(s, y)

    def counted_itp(f, *ends):
        def g(i, y):
            itp[-1].append(y.size)
            return f(i, y)

        itp.append([])
        brackets.append(ends)
        return real_itp(g, *ends)

    def counted_normal(n, t, y, ey):
        if np.ndim(y) == 0:  # the halving scan; ITP passes an array of y
            halving.append((float(y), np.size(n)))
        return real_normal(n, t, y, ey)

    monkeypatch.setattr(simultaneous, "_newton", counted_newton)
    monkeypatch.setattr(simultaneous, "_bracketed_roots", counted_itp)
    monkeypatch.setattr(simultaneous, "_normal_residual", counted_normal)
    monkeypatch.setattr(simultaneous, "solve_root", _refuse)
    grid = 101
    n = np.repeat(np.arange(2, 7), grid)
    x = np.tile(np.arange(grid) / (grid - 1), 5)
    advantaged_curve_points(n, x)
    assert newton == [5 * grid - 5] * 8  # x = 1 keeps x at each n
    # one ITP solve, the decreasing curve's, over the 219 points whose
    # bracket's ends are both nonzero, until each has narrowed
    assert itp == [[219] * 7 + [213, 188, 115, 17]]
    # each point's first negative value on the whole halving grid, as the
    # scan before this one found it; 53 where it never turns negative
    ex = np.exp(x)
    t = simultaneous._XTerms.at(n, x, ex, 1.0 + ex * (x - 1.0))
    ys = np.concatenate(([1.0], simultaneous._HALVINGS))
    with np.errstate(all="ignore"):
        grid_values = real_normal(n[:, None], simultaneous._XTerms._make(a[:, None] for a in t), ys, np.exp(ys))
    grid_values[np.isinf(grid_values)] = np.nan
    negative = grid_values < 0.0
    first = np.where(negative.any(axis=1), np.argmax(negative, axis=1), len(ys))
    expected = [(ys[k], int((first >= k).sum())) for k in range(len(ys)) if (first >= k).any()]
    assert halving == expected
    assert [size for _, size in halving] == [505, 220, 39]
    # and the brackets are those of the whole grid, bit for bit
    (lo, hi, f_lo, f_hi), rows = brackets[0], np.arange(len(x))
    closed = (first > 0) & (first < len(ys))
    k = first[closed]
    assert np.array_equal(lo[closed], ys[k]) and np.array_equal(hi[closed], ys[k - 1])
    assert np.array_equal(f_lo[closed], grid_values[rows[closed], k])
    assert np.array_equal(f_hi[closed], grid_values[rows[closed], k - 1], equal_nan=True)
    assert np.isnan(f_lo[~closed]).all()
    assert (closed & (f_lo != 0.0) & (f_hi != 0.0)).sum() == 219


def _refuse(*args, **kwargs):
    raise AssertionError("the advantaged reply took a bracketing finder")


# the 40-digit replies below are found by bisection on [x, 1], independent of
# the Newton iteration under test; x at and next to 0 and 1 and across [0, 1]
REPLY_N = (2, 3, 6, 60, 1000, 10**5)
REPLY_X = (0.0, 5e-324, 1e-300, 1e-16, 1e-8, *(k / 10 for k in range(1, 10)), 0.99,
           1 - 1e-8, 1 - 1e-12, 1 - 2**-52, 1 - 2**-53, 1.0)


@functools.lru_cache(maxsize=None)
def _mp_reply(n, x):
    """The advantaged seat's reply to x at 40 digits: x where its residual
    is >= 0 there, else the root on [x, 1] by mpmath's bisection."""
    with mpmath.workdps(40):
        xm = mpmath.mpf(x)
        ex = mpmath.exp(xm)
        p_n1 = (1 + ex * (xm - 1)) ** (n - 1)

        def residual(y):
            q = 1 + ex * (y - 1)
            return q ** (n - 1) - p_n1 * y - (1 - q**n) / (n * ex)

        if residual(xm) >= 0:
            return xm
        return mpmath.findroot(residual, (xm, mpmath.mpf(1)), solver="bisect")


def _scalar_reply(n, x):
    from showdown import simultaneous

    return simultaneous._advantaged_reply(n, x, simultaneous._scalar_terms(n, x))


def _ulps(y, exact):
    return abs(mpmath.mpf(y) - exact) / math.ulp(float(exact))


@pytest.mark.parametrize("n", REPLY_N)
def test_advantaged_reply_matches_mpmath(n):
    lockstep = advantaged_curve_points(n, np.array(REPLY_X))[1]
    for x, y_lockstep in zip(REPLY_X, lockstep.tolist()):
        exact = _mp_reply(n, x)
        assert _ulps(_scalar_reply(n, x), exact) <= 2, x
        assert _ulps(y_lockstep, exact) <= 2, x


@pytest.mark.parametrize("n", REPLY_N)
def test_advantaged_reply_scalar_equals_lockstep(n):
    lockstep = advantaged_curve_points(n, np.array(REPLY_X))[1]
    for x, y_lockstep in zip(REPLY_X, lockstep.tolist()):
        y = _scalar_reply(n, x)
        assert abs(y - y_lockstep) <= math.ulp(y), x


def test_advantaged_reply_iterates_fall_to_the_root(monkeypatch):
    # Newton's iterates from y = 1 never rise and never fall below the root;
    # the scalar reply takes its steps from the same points
    from showdown import simultaneous

    steps = []
    real_step = simultaneous._advantaged_step

    def recorded(n, t, y):
        steps.append(y)
        return real_step(n, t, y)

    monkeypatch.setattr(simultaneous, "_advantaged_step", recorded)
    monkeypatch.setattr(simultaneous, "solve_root", _refuse)
    monkeypatch.setattr(simultaneous, "_bracketed_roots", _refuse)
    for n in REPLY_N:
        for x in REPLY_X:
            steps.clear()
            y = _scalar_reply(n, x)
            iterates = [*steps, y]
            if len(iterates) == 1:
                continue  # the reply is x, and no step is taken
            root = _mp_reply(n, x)
            floor = float(root)  # the root rounded down to a float
            if floor > root:
                floor = math.nextafter(floor, 0.0)
            assert iterates[0] == 1.0
            assert all(b <= a for a, b in zip(iterates, iterates[1:])), (n, x)
            assert min(iterates) >= floor, (n, x)


def test_epsilon_delta_newton_budget(monkeypatch):
    # every reply inside epsilon_delta is one Newton iteration from y = 1:
    # 765 steps over n = 2..10
    from showdown import simultaneous

    steps, starts = [], []
    real_newton = simultaneous._newton_scalar

    def counted(step, y):
        starts.append(y)
        return real_newton(lambda y: steps.append(y) or step(y), y)

    monkeypatch.setattr(simultaneous, "_newton_scalar", counted)
    for n in range(2, 11):
        simultaneous.epsilon_delta.__wrapped__(n)
    assert len(steps) == 765
    assert set(starts) == {1.0}


@pytest.mark.parametrize("n_max, cap", [(10, 9), (10**5, 18)])
def test_advantaged_reply_newton_steps(n_max, cap):
    # the lockstep iteration takes as many steps as its slowest point, and
    # the scalar one as many as its own point
    from showdown import simultaneous

    x = np.concatenate((np.arange(1001) / 1000, [1e-300, 1 - 1e-12]))
    worst = 0
    for n in (*range(2, 11), 60, 1000, 10**4, 10**5):
        if n > n_max:
            break
        ns = np.full(x.shape, n)
        ex = np.exp(x)
        t = simultaneous._XTerms.at(ns, x, ex, 1.0 + ex * (x - 1.0))
        below = simultaneous._advantaged_residual(ns, t, x) < 0.0
        t_below = simultaneous._XTerms._make(a[below] for a in t)
        iterates = numerics._newton(
            lambda y: simultaneous._advantaged_step(ns[below], t_below, y), np.ones(below.sum())
        )
        worst = max(worst, len(list(iterates)))
    assert worst <= cap
    for n in (2, 10, n_max):
        for x0 in (0.0, 0.5, 0.99):
            t = simultaneous._scalar_terms(n, x0)
            count = [0]

            def step(y):
                count[0] += 1
                return simultaneous._advantaged_step(n, t, y)

            numerics._newton_scalar(step, 1.0)
            assert count[0] <= cap, (n, x0)


@pytest.mark.parametrize(
    "n, x", [(1, 0.5), (2.0, 0.5), ([2, 1], 0.5), (3, -0.1), (3, 1.5), (3, [0.2, math.nan])]
)
def test_advantaged_curve_points_rejects_bad_input(n, x):
    with pytest.raises(ValueError):
        advantaged_curve_points(n, x)
