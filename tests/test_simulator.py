import math

import pytest

from showdown.score import RandomStream
from showdown.sequential import win_matrix
from showdown.simulator import (
    SEQ_OPTIMAL,
    SimConfig,
    SimReport,
    StrategyProfile,
    play_once,
    run,
)
from showdown.simultaneous import Variant, equilibrium, win_probabilities


def test_profile_validation():
    with pytest.raises(ValueError):
        StrategyProfile(())
    with pytest.raises(ValueError):
        StrategyProfile((1.5,))
    with pytest.raises(ValueError):
        StrategyProfile(("bogus",))
    assert StrategyProfile.sequential_optimal(3).strategies == (SEQ_OPTIMAL,) * 3


def test_config_validation_and_chunks():
    with pytest.raises(ValueError):
        SimConfig(trials=0)
    with pytest.raises(ValueError):
        SimConfig(trials=10, chunk_count=0)
    sizes = SimConfig(trials=10, chunk_count=4).chunk_sizes()
    assert sum(sizes) == 10
    assert max(sizes) - min(sizes) <= 1


def test_single_trial_counts():
    rep = run(
        "simultaneous",
        Variant.EXTERNAL,
        StrategyProfile.fixed((0.5, 0.5)),
        SimConfig(trials=1, seed=0),
    )
    assert sum(rep.win_counts) + rep.tie_count + rep.score_tie_count == 1


def test_deterministic_reports():
    profile = StrategyProfile.fixed((0.3, 0.7))
    config = SimConfig(trials=50_000, seed=123, chunk_count=5)
    a = run("simultaneous", Variant.EXTERNAL, profile, config)
    b = run("simultaneous", Variant.EXTERNAL, profile, config)
    assert a == b


def test_chunk_count_changes_stream_not_totals():
    profile = StrategyProfile.fixed((0.3, 0.7))
    for chunks in (1, 3, 7):
        rep = run(
            "simultaneous",
            Variant.EXTERNAL,
            profile,
            SimConfig(trials=10_000, seed=5, chunk_count=chunks),
        )
        assert sum(rep.win_counts) + rep.tie_count + rep.score_tie_count == 10_000


def test_all_greedy_thresholds_always_tie():
    rep = run(
        "simultaneous",
        Variant.EXTERNAL,
        StrategyProfile.fixed((1.0, 1.0)),
        SimConfig(trials=2_000, seed=1),
    )
    assert rep.tie_count == 2_000
    assert rep.win_counts == (0, 0)


def test_advantaged_converts_draws():
    rep = run(
        "simultaneous",
        Variant.ADVANTAGED,
        StrategyProfile.fixed((1.0, 1.0)),
        SimConfig(trials=2_000, seed=1),
    )
    assert rep.tie_count == 0
    assert rep.win_counts == (0, 2_000)


def test_tally_matches_float_argmax():
    import numpy as np

    from showdown.simulator import _tally

    # columns: a clear winner, an all-bust draw, a positive tie, a tie below
    # a clear winner, and a winner in the last seat
    scores = np.array(
        [
            [0.9, 0.0, 0.7, 0.5, 0.2],
            [0.3, 0.0, 0.7, 0.5, 0.0],
            [0.0, 0.0, 0.1, 0.8, 0.6],
        ]
    )
    top = scores.max(axis=0)
    decided = (scores == top).sum(axis=0) == 1
    reference = np.bincount(scores.argmax(axis=0)[decided], minlength=3)
    wins, tie, score_ties = _tally(scores, Variant.EXTERNAL)
    assert wins.tolist() == reference.tolist() == [1, 0, 2]
    assert (tie, score_ties) == (1, 1)


def test_report_rates_and_stderr():
    rep = SimReport(
        mode="simultaneous",
        variant=Variant.EXTERNAL,
        thresholds_used=(0.5, 0.5),
        trials=100,
        seed=0,
        chunk_count=1,
        win_counts=(40, 50),
        tie_count=10,
        score_tie_count=0,
    )
    assert rep.win_rates == (0.4, 0.5)
    assert rep.tie_rate == pytest.approx(0.1)
    assert rep.stderr(0.5) == pytest.approx(math.sqrt(0.25 / 100))


def test_sequential_policy_requires_sequential_mode():
    with pytest.raises(ValueError, match="the sequential policy needs mode='sequential'"):
        run(
            "simultaneous",
            Variant.EXTERNAL,
            StrategyProfile.sequential_optimal(2),
            SimConfig(trials=10, seed=0),
        )
    with pytest.raises(ValueError):
        play_once(
            "simultaneous",
            Variant.EXTERNAL,
            StrategyProfile.sequential_optimal(2),
            RandomStream(0),
        )


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        run("parallel", Variant.EXTERNAL, StrategyProfile.fixed((0.5,)), SimConfig(trials=1))


def test_play_once_seq_statistics():
    rng = RandomStream(99)
    profile = StrategyProfile.sequential_optimal(2)
    wins = [play_once("sequential", Variant.EXTERNAL, profile, rng) for _ in range(20_000)]
    rate = wins.count(0) / len(wins)
    ref = win_matrix(2).win_probs[0]
    sigma = math.sqrt(ref * (1 - ref) / len(wins))
    assert abs(rate - ref) <= 4 * sigma
    assert None not in wins  # optimal play always produces a winner


def test_play_once_advantaged_draw():
    rng = RandomStream(4)
    got = play_once(
        "simultaneous", Variant.ADVANTAGED, StrategyProfile.fixed((1.0, 1.0, 1.0)), rng
    )
    assert got == 2


def test_run_matches_analytic_zero_sum():
    eq = equilibrium(Variant.ZERO_SUM, 2)
    rep = run(
        "simultaneous",
        Variant.ZERO_SUM,
        StrategyProfile.fixed(eq.thresholds),
        SimConfig(trials=200_000, seed=21, chunk_count=2),
    )
    assert abs(rep.tie_rate - eq.tie_prob) <= 4 * rep.stderr(eq.tie_prob)


def test_run_matches_analytic_profile():
    thresholds = (0.2, 0.55, 0.9)
    out = win_probabilities(thresholds)
    rep = run(
        "simultaneous",
        Variant.EXTERNAL,
        StrategyProfile.fixed(thresholds),
        SimConfig(trials=200_000, seed=31, chunk_count=4),
    )
    for est, ref in zip(rep.win_rates, out.win_probs):
        assert abs(est - ref) <= 4 * rep.stderr(ref)


def test_sequential_fixed_thresholds_can_draw():
    # two very greedy players bust together often, which is a draw
    rep = run(
        "sequential",
        Variant.EXTERNAL,
        StrategyProfile.fixed((0.99, 0.99)),
        SimConfig(trials=50_000, seed=13),
    )
    assert rep.tie_count > 0
    assert sum(rep.win_counts) + rep.tie_count + rep.score_tie_count == 50_000


def test_fixed_thresholds_play_the_same_games_in_either_mode():
    # a fixed threshold ignores earlier scores, so both modes draw the same
    # streams and count the same games
    profile = StrategyProfile.fixed((0.0, 0.3, 0.7, 1.0, 0.55))
    config = SimConfig(trials=20_000, seed=21, chunk_count=3)
    reports = [run(mode, Variant.ZERO_SUM, profile, config) for mode in ("sequential", "simultaneous")]
    counts = [(r.win_counts, r.tie_count, r.score_tie_count) for r in reports]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("n, trials", [(50, 100_000), (200, 50_000)])
def test_advantaged_equilibrium_matches_simulation(n, trials):
    # every seat's win rate at the ii.3 equilibrium, the advantaged seat's
    # converted all-bust draws included, and the normal seats pooled
    eq = equilibrium(Variant.ADVANTAGED, n)
    rep = run(
        "simultaneous",
        Variant.ADVANTAGED,
        StrategyProfile.fixed(eq.thresholds),
        SimConfig(trials=trials, seed=97, chunk_count=4),
    )
    assert rep.tie_count == 0 and rep.score_tie_count == 0
    for est, ref in zip(rep.win_rates, eq.win_probs):
        assert abs(est - ref) <= 4 * rep.stderr(ref)
    normal = math.fsum(eq.win_probs[:-1])
    assert abs(math.fsum(rep.win_rates[:-1]) - normal) <= 4 * rep.stderr(normal)
