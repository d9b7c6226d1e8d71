import math
import sys
import threading

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebint, chebpts2, chebvander

import mp_reference as ref
from reference_tables import MISROUNDED
from showdown import numerics
from showdown import sequential as seq
from showdown import stopping
from showdown.numerics import NumericsError, solve_root
from showdown.score import bust_prob
from showdown.sequential import (
    MAX_PLAYERS,
    SeqState,
    advise,
    coalition_12,
    coalition_13,
    seq_policy,
    theta,
    win_matrix,
    win_prob,
)
from showdown.simulator import SimConfig, StrategyProfile, run
from showdown.simultaneous import Variant

E = math.e


# --- theta ------------------------------------------------------------------


def test_theta_base_case():
    assert theta(1) == 0.0


def test_theta_reference_values():
    assert round(theta(2), 4) == 0.5706
    assert round(theta(10), 4) == 0.8730


def test_theta_strictly_increasing():
    values = [theta(n) for n in range(1, MAX_PLAYERS + 1)]
    assert all(b > a for a, b in zip(values, values[1:]))
    # so theta_2..theta_cap lie in [1/2, 1], where the win functions are collocated
    assert 0.5 <= values[1] and values[-1] <= 1.0


def test_theta_defining_residual():
    # the defining equation at the computed theta, in 50-digit arithmetic
    for n in range(2, 11):
        assert abs(ref.theta_residual(n, theta(n))) < 1e-15


def test_theta_matches_mp_reference():
    for n in range(2, 11):
        assert abs(theta(n) - float(ref.theta(n))) <= 1e-14


def test_theta_matches_mp_reference_up_to_20():
    # past about 20 players the reference's findroot stops converging
    for n in range(11, 21):
        assert abs(theta(n) - float(ref.theta(n))) <= 1e-14
        assert abs(ref.theta_residual(n, theta(n))) < 1e-15


def test_theta_newton_iterates_never_increase():
    # the residuals are increasing and convex, so from x = 1 every iterate
    # of every threshold stays at or below the one before
    iterates = np.array([np.ones(MAX_PLAYERS - 1), *seq._theta_newton()])
    assert (np.diff(iterates, axis=0) <= 0.0).all()
    assert np.array_equal(iterates[-1], seq._thetas()[1:])


def test_theta_newton_cap_raises(monkeypatch):
    monkeypatch.setattr(numerics, "_NEWTON_CAP", 3)
    with pytest.raises(NumericsError):
        list(seq._theta_newton())


def test_theta_rule_doubling(monkeypatch):
    # the fixed Gauss-Legendre rule of theta's integral is converged up to the cap
    base = [theta(n) for n in range(2, MAX_PLAYERS + 1)]
    seq._thetas.cache_clear()
    monkeypatch.setattr(seq, "_RULE", 2 * seq._RULE)
    try:
        doubled = seq._thetas()[1:].tolist()
    finally:
        seq._thetas.cache_clear()
    assert max(abs(a - b) for a, b in zip(base, doubled)) <= 1e-15


def test_theta_rejects_bad_n():
    with pytest.raises(ValueError):
        theta(0)
    with pytest.raises(ValueError):
        theta(MAX_PLAYERS + 1)
    assert MAX_PLAYERS == 100
    with pytest.raises(ValueError):
        theta(101)


def test_numpy_integer_player_counts():
    # numpy's integers are player counts, computed with as Python ints
    k = np.int64(3)
    assert theta(k) == theta(3)
    assert win_matrix(k) == win_matrix(3) and type(win_matrix(k).n) is int
    assert win_prob(k, np.int64(2), 0.8) == win_prob(3, 2, 0.8)
    state = SeqState(remaining=k, best_score=0.5)
    assert type(state.remaining) is int and state == SeqState(3, 0.5)
    with pytest.raises(ValueError, match="positive integer, got 3.0"):
        theta(3.0)
    # a float m was handed to range and raised TypeError
    for m in (1.5, 2.0):
        with pytest.raises(ValueError, match=f"need an integer 1 <= m <= r, got m = {m}, r = 3"):
            win_prob(3, m, 0.8)
    # a bool is neither a player count nor a mover's place: theta(True) was
    # theta_1 = 0 and win_prob(3, True, 0.8) the first mover's chances
    for call in (theta, win_matrix, lambda n: SeqState(n, 0.5), lambda n: win_prob(n, 1, 0.8)):
        with pytest.raises(ValueError, match="positive integer, got True"):
            call(True)
    with pytest.raises(ValueError, match="need an integer 1 <= m <= r, got m = True, r = 3"):
        win_prob(3, True, 0.8)


# --- policy / advice ----------------------------------------------------------


def test_seq_policy_first_player():
    assert seq_policy(SeqState(remaining=5, best_score=0.0)) == theta(5)


def test_seq_policy_last_player():
    assert seq_policy(SeqState(remaining=1, best_score=0.7)) == 0.7


def test_seq_policy_examples():
    assert seq_policy(SeqState(remaining=3, best_score=0.2)) == pytest.approx(
        theta(3)
    )
    assert round(seq_policy(SeqState(remaining=3, best_score=0.2)), 4) == 0.6879


def test_advise_spin_below_threshold():
    assert advise(SeqState(remaining=2, best_score=0.0), 0.56) == "spin"


def test_advise_stop_above_best():
    assert advise(SeqState(remaining=1, best_score=0.4), 0.41) == "stop"


def test_advise_spin_when_behind():
    assert advise(SeqState(remaining=5, best_score=0.9), 0.85) == "spin"


def test_advise_stop_at_exact_threshold():
    th = theta(4)
    assert advise(SeqState(remaining=4, best_score=0.0), th) == "stop"


def test_advise_never_stops_below_best():
    state = SeqState(remaining=3, best_score=0.65)
    for s in (0.0, 0.3, 0.649):
        assert advise(state, s) == "spin"


def test_state_validation():
    with pytest.raises(ValueError):
        SeqState(remaining=0, best_score=0.0)
    with pytest.raises(ValueError):
        SeqState(remaining=2, best_score=1.2)
    # refused at construction as theta refuses it, not first by seq_policy
    with pytest.raises(ValueError, match="positive integer, got 2.5"):
        SeqState(remaining=2.5, best_score=0.5)
    with pytest.raises(ValueError, match=f"capped at {MAX_PLAYERS} players, got {MAX_PLAYERS + 1}"):
        SeqState(remaining=MAX_PLAYERS + 1, best_score=0.5)


# --- win probability functions ------------------------------------------------


def test_win_prob_single_remaining():
    # the last mover beats best score x whenever the spin sum lands in (x, 1],
    # for any x in [0, 1], also below the collocation's interval [1/2, 1]
    for x in (0.0, 0.25, 0.5, 0.97, 1.0):
        expected = float(ref.evaluate(ref.win_function(1, 1), x))
        assert abs(win_prob(1, 1, x) - expected) <= 1e-15, x
    assert win_prob(1, 1, 0.5) == pytest.approx(1.0 - bust_prob(0.5), abs=1e-15)


def test_win_prob_exppoly_vs_quadrature():
    # e**x * integral of bust_prob over [x, 1], from the 50-digit closed form
    got = win_prob(2, 1, 0.6)
    assert abs(got - float(ref.evaluate(ref.win_function(2, 1), 0.6))) < 1e-14


def test_win_prob_matches_mp_reference():
    for r in range(1, 11):
        for m in range(1, r + 1):
            for x in (theta(r) - 1e-12, theta(r), 0.5 * (theta(r) + 1.0), 0.97, 1.0):
                expected = float(ref.evaluate(ref.win_function(r, m), x))
                assert abs(win_prob(r, m, x) - expected) <= 1e-14, (r, m, x)


def test_win_prob_first_seat_matches_table_up_to_cap():
    # at x = theta_n the first mover's win function is the table's first seat
    for n in (2, 12, 30, 60, 100):
        assert abs(win_prob(n, 1, theta(n)) - win_matrix(n).win_probs[0]) <= 1e-13


def test_win_prob_domain_error():
    with pytest.raises(ValueError):
        win_prob(3, 1, 0.1)  # below theta(3)
    with pytest.raises(ValueError):
        win_prob(3, 4, 0.9)


def test_win_prob_recursion_consistency():
    # second of two movers, best score x: bust_prob(x) times a fresh win plus
    # the expected follow-up when the first mover survives (50-digit quadrature)
    x = 0.7
    lhs = win_prob(2, 2, x)
    inner = lambda t: win_prob(1, 1, float(t))
    tail = ref.mp.quad(inner, [x, 1.0])
    rhs = bust_prob(x) * inner(x) + math.exp(x) * float(tail)
    assert abs(lhs - rhs) < 1e-14


# --- win matrix ---------------------------------------------------------------


def test_win_matrix_two_players():
    eq = win_matrix(2)
    assert round(eq.win_probs[0], 4) == 0.4250
    assert round(eq.win_probs[1], 4) == 0.5750


def test_win_matrix_assembles_from_win_prob():
    # second seat of two: bust times a sure follow-up win, plus the integral
    # of the last mover's win function over the survivor's score range
    th = theta(2)
    tail = float(ref.mp.quad(lambda t: win_prob(1, 1, float(t)), [th, 1.0]))
    assembled = bust_prob(th) * 1.0 + math.exp(th) * tail
    assert abs(assembled - win_matrix(2).win_probs[1]) < 1e-14


def test_win_matrix_three_players():
    eq = win_matrix(3)
    assert [round(p, 4) for p in eq.win_probs] == [0.2859, 0.3248, 0.3893]


def test_win_matrix_ten_players_last_seat():
    assert round(win_matrix(10).win_probs[-1], 4) == 0.1088


def test_win_matrix_single_player():
    eq = win_matrix(1)
    assert eq.win_probs == (1.0,)
    assert eq.thetas == (0.0,)


def test_win_matrix_row_sums():
    for n in range(2, 11):
        assert abs(sum(win_matrix(n).win_probs) - 1.0) < 1e-9


def test_win_matrix_matches_mp_reference():
    for n in range(2, 11):
        expected = ref.win_row(n)
        got = win_matrix(n).win_probs
        assert max(abs(a - float(b)) for a, b in zip(got, expected)) <= 5e-16, n


def test_misrounded_table1_values_from_reference():
    # the high-precision values behind the published misprints, derived here
    # to the digits they are stated with
    for label, (table, value) in MISROUNDED.items():
        if table != "table1":
            continue
        n, m = map(int, label[2:].split("^"))
        digits = len(repr(value).split(".")[1])
        assert round(float(ref.win_row(n)[m - 1]), digits) == value, label


def test_win_matrix_closure_up_to_cap():
    rows = seq._win_rows(MAX_PLAYERS)
    assert [len(r) for r in rows] == list(range(1, MAX_PLAYERS + 1))
    assert max(abs(math.fsum(r) - 1.0) for r in rows) <= 1e-15
    eq = win_matrix(MAX_PLAYERS)
    assert eq.win_probs == rows[-1]
    assert all(0.0 < p < 1.0 for p in eq.win_probs)
    assert max(abs(r) for r in eq.residuals) <= 1e-13


@pytest.mark.parametrize("nodes", [2, 3, seq._NODES, 2 * seq._NODES])
def test_collocation_closed_form_coefficients(nodes):
    # the DCT-I inverts the Chebyshev-Vandermonde matrix, and the slice-wise
    # integration recurrence matches numpy's chebint at [1/2, 1]'s scale dx = dt / 4
    col = seq._Collocation(nodes)
    vander = chebvander(chebpts2(nodes), nodes - 1)
    assert np.abs(col.coef @ vander - np.eye(nodes)).max() <= 1e-13
    assert np.abs(col.tail_coef - chebint(col.coef, lbnd=1.0, scl=-0.25)).max() <= 1e-16


def test_collocation_step_is_L():
    # f @ step is L f = p f + e**x * integral of f over [x, 1] for rows f,
    # and L 1 = p + e**x (1 - x) = 1 at every point
    col = seq._collocation(seq._NODES)
    rows = np.random.default_rng(30).random((8, seq._NODES))
    want = col.bust * rows + col.exp * (rows @ col.tail.T)
    assert np.abs(rows @ col.step - want).max() <= 1e-15
    assert np.abs(np.ones(seq._NODES) @ col.step - 1.0).max() <= 1e-15


def test_win_matrix_node_doubling():
    # the collocation is converged: twice the Chebyshev points move no entry
    base = seq._win_rows(MAX_PLAYERS)
    doubled = seq._win_rows(MAX_PLAYERS, 2 * seq._NODES)
    worst = max(abs(a - b) for r, s in zip(base, doubled) for a, b in zip(r, s))
    assert worst <= 5e-16


def test_win_table_rolls_forward_bit_identically():
    # a longer table continues from the rows and block already built, and
    # matches a freshly built table bit for bit
    seq._win_table.cache_clear()
    short = win_matrix(30).win_probs
    rolled = win_matrix(60).win_probs
    assert len(seq._win_table(seq._NODES).rows) == 60
    assert win_matrix(30).win_probs == short
    seq._win_table.cache_clear()
    assert win_matrix(60).win_probs == rolled
    assert seq._win_rows(30)[-1] == short
    # another node count is a table of its own, on that many points
    assert len(seq._win_rows(5, 2 * seq._NODES)[-1]) == 5
    assert seq._win_table(2 * seq._NODES).block.shape[1] == 2 * seq._NODES


def test_win_matrix_concurrent_calls_match_serial():
    # threads extending one shared table at once: before the extension was
    # locked, 14 of 30 such rounds' calls raised a broadcast ValueError
    sizes = (40, 60, 40, 60)  # more threads than the two CPUs it was seen on
    serial = {n: win_matrix(n) for n in set(sizes)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            seq._win_table.cache_clear()
            results, errors = [None] * len(sizes), []
            start = threading.Barrier(len(sizes))

            def call(i):
                start.wait()
                try:
                    results[i] = win_matrix(sizes[i])
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=call, args=(i,)) for i in range(len(sizes))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert not errors, errors[0]
            assert results == [serial[n] for n in sizes]
    finally:
        sys.setswitchinterval(interval)


def test_win_matrix_increasing_in_seat():
    # later movers are better off: they see more information
    for n in (*range(2, 11), 30, 60, 100):
        probs = win_matrix(n).win_probs
        assert all(b > a for a, b in zip(probs, probs[1:]))


def test_win_matrix_against_simulation():
    for n, seed in ((2, 7), (3, 8), (5, 9)):
        eq = win_matrix(n)
        rep = run(
            "sequential",
            Variant.EXTERNAL,
            StrategyProfile.sequential_optimal(n),
            SimConfig(trials=200_000, seed=seed, chunk_count=4),
        )
        for est, ref in zip(rep.win_rates, eq.win_probs):
            assert abs(est - ref) <= 4 * rep.stderr(ref)


# --- coalitions ---------------------------------------------------------------


def _second_thresholds(xs):
    """The second mover's thresholds at the first player's scores xs: the
    last of Newton's iterates."""
    return list(seq._second_newton(np.asarray(xs, dtype=float)))[-1]


def test_second_threshold_residual():
    t = float(_second_thresholds([0.5])[0])
    lhs = -math.exp(t) * (2 * t - 3) + t * math.exp(0.5) * (0.5 - 1.0)
    assert abs(lhs - E) < 1e-10


def test_second_threshold_after_leader_bust(monkeypatch):
    # with no score on the board the partner faces the plain two-player game
    monkeypatch.setattr(numerics, "_TOL", 1e-13)
    oracle = solve_root(lambda t: -math.exp(t) * (2 * t - 3) - t - E, 0.0, 1.0)
    got = float(_second_thresholds([0.0])[0])
    assert abs(got - oracle) < 1e-12
    assert abs(got - theta(2)) < 1e-10


def test_second_threshold_monotone_and_bounded():
    values = _second_thresholds(np.arange(21) / 20).tolist()
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(theta(2), abs=1e-10)
    assert values[-1] == pytest.approx(1.0, abs=1e-9)


def test_second_newton_iterates_never_increase():
    # g is decreasing and concave, so from t = 1 every iterate stays at or
    # below the one before, and each score's root is its own: solved alone,
    # it comes out bit for bit the same as in the batch
    xs = np.concatenate((np.linspace(0.0, 1.0, 1001), [5e-324, 1e-300, 1e-12, 1.0 - 2.0**-53]))
    iterates = np.array([np.ones(xs.size), *seq._second_newton(xs)])
    assert (np.diff(iterates, axis=0) <= 0.0).all()
    assert ((iterates[-1] > 0.0) & (iterates[-1] <= 1.0)).all()
    alone = [float(_second_thresholds([x])[0]) for x in xs[::50].tolist()]
    assert alone == iterates[-1][::50].tolist()


def test_second_newton_cap_raises(monkeypatch):
    monkeypatch.setattr(numerics, "_NEWTON_CAP", 3)
    with pytest.raises(NumericsError):
        list(seq._second_newton(np.array([0.0, 0.5])))


def test_coalition_12_report():
    rep = coalition_12()
    assert rep.coalition == "first-and-second"
    assert rep.victim == 3
    assert rep.first_threshold == pytest.approx(0.63386, abs=1e-4)
    assert rep.victim_win_prob == pytest.approx(0.3867, abs=5e-4)
    assert rep.nash_baseline == pytest.approx(win_matrix(3).win_probs[2], abs=1e-12)
    assert rep.victim_win_prob < rep.nash_baseline


def test_coalition_12_rule_matches_mp_quadrature():
    # the payoff is analytic and names the degree of the fixed 16-node rule,
    # so the kernel's integral over [a, 1] takes that rule to rounding
    h = seq._Analytic(seq._third_loses_many)
    assert h.pieces() == ((0.0, 1.0), (31,))
    for a in (0.0, 0.4, 0.6338, 0.9):
        cuts, degrees = stopping._pieces(h, a)
        _, sums = stopping._integrals(h, cuts, degrees)
        expected = ref.mp.quad(lambda t: float(h.values(np.array([float(t)]))[0]), [a, 1.0])
        assert abs(float(sums.sum()) - float(expected)) <= 1e-15


def test_coalition_12_one_reply_solve_per_evaluation(monkeypatch):
    # each evaluation of the threshold's residual solves the second mover's
    # reply once, at x and the rule's nodes together; beyond those, one solve
    # each for h0, the kernel's sweep and the integral above kappa
    replies, evals = [], []
    real_newton, real_solve = seq._second_newton, stopping.solve_root

    def newton(xs):
        replies.append(xs.size)
        return real_newton(xs)

    def solve(f, *args, **kwargs):
        return real_solve(lambda x: evals.append(x) or f(x), *args, **kwargs)

    monkeypatch.setattr(seq, "_second_newton", newton)
    monkeypatch.setattr(stopping, "solve_root", solve)
    coalition_12()
    assert len(evals) > 0 and len(replies) == len(evals) + 3
    assert replies.count(17) == len(evals)  # x and the 16 nodes


def test_coalition_12_newton_budget(monkeypatch):
    # each solve of the second mover's reply is one lockstep Newton iteration
    # from t = 1: 83 steps in all
    steps = []
    real_newton = seq._second_newton

    def newton(xs):
        for t in real_newton(xs):
            steps.append(xs.size)
            yield t

    monkeypatch.setattr(seq, "_second_newton", newton)
    coalition_12()
    assert len(steps) == 83


def _mp_third_loses(x):
    """The third player's losing probability at the first player's score x,
    with the second's threshold solved in 40-digit arithmetic."""
    mp = ref.mp
    with mp.workdps(40):
        x = mp.mpf(x)
        ex, e = mp.exp(x), mp.e
        t = mp.findroot(lambda t: -mp.exp(t) * (2 * t - 3) + t * ex * (x - 1) - e, 0.8)
        et = mp.exp(t)
        return (1 + ex * (x - 1)) * (1 + et * (t - 1)) + et * (1 - e - t - et * (t - 2))


def test_coalition_12_values_match_pointwise_payoff():
    # the spot check's 256 points in one lockstep solve, and points where the
    # second's threshold meets the ends of [0, 1], against the payoff solved
    # point by point in 40-digit arithmetic
    xs = np.concatenate((np.arange(1, 257) / 256.0, [0.0, 1e-9, 0.5, 1.0 - 1e-12]))
    h = seq._Analytic(seq._third_loses_many)
    got = h.values(xs)
    want = np.array([float(_mp_third_loses(x)) for x in xs.tolist()])
    assert np.abs(got - want).max() <= 5e-15
    # a point alone gives what it gives in the batch
    assert [h.values(np.array([x]))[0] for x in xs[::37].tolist()] == got[::37].tolist()


def test_coalition_12_matches_mp_reference():
    # the first player's stopping problem in 40-digit arithmetic, its payoff
    # solving the second's reply by findroot at each point: the threshold is
    # the root of h(x) - h0 x - integral of h over [x, 1], where h_tilde = h,
    # so the first player's expected payoff is (h(kappa) - h0) e**kappa + h0
    mp = ref.mp
    with mp.workdps(40):
        h0 = _mp_third_loses(0)
        kappa = mp.findroot(
            lambda x: _mp_third_loses(x) - h0 * x
            - mp.quad(_mp_third_loses, [x, 1], method="gauss-legendre"),
            (0.63, 0.64),
            tol=1e-40,
        )
        victim = 1 - (_mp_third_loses(kappa) - h0) * mp.exp(kappa) - h0
    assert abs(kappa - mp.mpf("0.6338607311721624086")) <= 1e-19
    assert abs(victim - mp.mpf("0.3867013847707904126")) <= 1e-19
    rep = coalition_12()
    assert abs(rep.first_threshold - float(kappa)) <= 4e-15
    assert abs(rep.victim_win_prob - float(victim)) <= 1.5e-15


def test_coalition_13_matches_mp_reference():
    mp = ref.mp
    th2 = ref.theta(2)
    vartheta = mp.exp(th2) * ref.evaluate(ref.BUST, th2)
    s = ref.win_function(2, 1)  # the second's chances e**x * integral of p over [x, 1]
    s_tail = ref.tail(s)
    rho = mp.findroot(lambda x: vartheta * x - ref.evaluate(s, x) + ref.evaluate(s_tail, x), 0.75)
    p_rho = ref.evaluate(ref.BUST, rho)
    victim = p_rho * vartheta + (1 - p_rho) * ref.evaluate(s_tail, rho) / (1 - rho)
    rep = coalition_13()
    assert abs(rep.first_threshold - float(rho)) <= 1e-14
    assert abs(rep.victim_win_prob - float(victim)) <= 1e-14


def test_coalition_13_report():
    rep = coalition_13()
    assert rep.coalition == "first-and-third"
    assert rep.victim == 2
    assert rep.first_threshold == pytest.approx(0.75017, abs=1e-4)
    assert rep.victim_win_prob == pytest.approx(0.32262, abs=5e-5)
    assert rep.nash_baseline == pytest.approx(win_matrix(3).win_probs[1], abs=1e-12)
    assert rep.victim_win_prob < rep.nash_baseline
