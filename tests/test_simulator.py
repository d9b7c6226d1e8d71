import json
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from showdown import simulator
from showdown.cli import main
from showdown.simulator import (
    SEQ_OPTIMAL,
    SimConfig,
    SimReport,
    StrategyProfile,
    _Tally,
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
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(trials=10, seed=seed)
    assert SimConfig(trials=10, seed=2**64 - 1).seed == 2**64 - 1
    sizes = list(SimConfig(trials=10, chunk_count=4).chunk_sizes())
    assert sum(sizes) == 10
    assert max(sizes) - min(sizes) <= 1
    # chunks past the trials would be empty and are never walked
    assert list(SimConfig(trials=3, chunk_count=10**12).chunk_sizes()) == [1, 1, 1]


@pytest.mark.parametrize(
    "fields",
    [
        {"trials": 2.5},
        {"trials": 10.0},
        {"trials": 3, "seed": 1.5},
        {"trials": 10, "chunk_count": 2.5},
        {"trials": "10"},
    ],
)
def test_config_refuses_non_integral_fields(fields):
    # refused when the config is built, before run can start a chunk thread
    with pytest.raises(TypeError):
        SimConfig(**fields)


def test_config_numpy_integers_equal_python_ints():
    config = SimConfig(trials=np.int64(2_000), seed=np.int64(7), chunk_count=np.int32(3))
    assert config == SimConfig(trials=2_000, seed=7, chunk_count=3)
    assert all(type(v) is int for v in (config.trials, config.seed, config.chunk_count))
    profile = StrategyProfile.fixed((0.4, 0.6))
    rep = run("simultaneous", Variant.EXTERNAL, profile, config)
    assert type(rep.seed) is int
    assert rep == run("simultaneous", Variant.EXTERNAL, profile, SimConfig(2_000, 7, 3))


def test_huge_chunk_count_starts_no_thread_per_chunk(monkeypatch):
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    rep = run(
        "simultaneous",
        Variant.EXTERNAL,
        StrategyProfile.fixed((0.5, 0.5)),
        SimConfig(trials=5, seed=3, chunk_count=10**12),
    )
    assert sum(rep.win_counts) + rep.tie_count + rep.score_tie_count == 5
    assert len(started) <= simulator._workers()


@pytest.mark.parametrize("mode, n", [("simultaneous", 30), ("sequential", 10)])
def test_peak_memory_per_game(mode, n):
    # one chunk on the calling thread: its buffers take about 67 bytes a
    # game and each sampling round's index arrays about 11 more, for any n
    variant = Variant.ZERO_SUM
    if mode == "sequential":
        profile = StrategyProfile.sequential_optimal(n)
    else:
        profile = StrategyProfile.fixed(equilibrium(variant, n).thresholds)
    run(mode, variant, profile, SimConfig(trials=1))  # the first run's imports
    config = SimConfig(trials=200_000, seed=5, chunk_count=1)
    tracemalloc.start()
    try:
        run(mode, variant, profile, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / config.trials <= 80


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


def _argmax_counts(scores):
    """Wins per seat, all-bust draws and positive-score ties of a
    (seats, games) score array, by float argmax and bincount."""
    top = scores.max(axis=0)
    decided = ((scores == top).sum(axis=0) == 1) & (top > 0.0)
    wins = np.bincount(scores.argmax(axis=0)[decided], minlength=scores.shape[0])
    return wins.tolist(), int((top == 0.0).sum()), int((~decided & (top > 0.0)).sum())


def _tally_counts(scores):
    tally = _Tally(scores.shape[1] + 3)  # buffers larger than the chunk, as for a short last chunk
    tally.start(scores.shape[1])
    for seat, row in enumerate(scores):
        tally.add(seat, row)
    *wins, tie, score_ties = tally.counts(scores.shape[0]).tolist()
    return wins, tie, score_ties


def test_tally_matches_float_argmax():
    # columns: a clear winner, an all-bust draw, a positive tie, a tie below
    # a clear winner, and a winner in the last seat
    scores = np.array(
        [
            [0.9, 0.0, 0.7, 0.5, 0.2],
            [0.3, 0.0, 0.7, 0.5, 0.0],
            [0.0, 0.0, 0.1, 0.8, 0.6],
        ]
    )
    assert _tally_counts(scores) == _argmax_counts(scores) == ([1, 0, 2], 1, 1)
    # five score levels over eight seats: many positive ties, ties at 0, a
    # higher score after a tie, and (with half the scores busts) all-bust draws
    rng = np.random.default_rng(2024)
    scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], p=[0.5, 0.125, 0.125, 0.125, 0.125], size=(8, 4000))
    wins, tie, score_ties = _argmax_counts(scores)
    tied_then_beaten = (scores[0] == scores[1]) & (scores[0] > 0.0) & (scores[2:].max(axis=0) > scores[0])
    assert tie > 0 and score_ties > 0 and tied_then_beaten.any()
    assert _tally_counts(scores) == (wins, tie, score_ties)


# counts taken before chunks were played on several threads; the n = 10
# games add the sampler's two kinds of round: a scalar threshold over many
# rounds (ii.2) and a threshold per game (i)
PINNED_CLI = [
    (["--game", "i", "--n", "5"], [35360, 37281, 39572, 42024, 45763], 0),
    (["--game", "ii.3", "--n", "3"], [62696, 63024, 74280], 0),
    (["--game", "ii.2", "--n", "10"], [19267, 19313, 19512, 19393, 19663, 19477, 19344, 19322, 19276, 19262], 6171),
    (["--game", "i", "--n", "10"], [18094, 18907, 19175, 19658, 20081, 20327, 20255, 20786, 20922, 21795], 0),
]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_counts_do_not_depend_on_the_thread_count(monkeypatch, capsys, workers):
    monkeypatch.setattr(simulator, "_workers", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        for args, wins, tie in PINNED_CLI:
            assert main(["simulate", *args, "--trials", "200000", "--seed", "7", "--format", "json"]) == 0
            out = json.loads(capsys.readouterr().out)
            assert (out["win_counts"], out["tie_count"], out["score_tie_count"]) == (wins, tie, 0)
        rep = run(
            "sequential",
            Variant.ZERO_SUM,
            StrategyProfile.fixed((0.0, 0.3, 0.7, 1.0, 0.55)),
            SimConfig(trials=20_000, seed=21, chunk_count=3),
        )
        assert (rep.win_counts, rep.tie_count, rep.score_tie_count) == ((3092, 4615, 6378, 0, 5915), 0, 0)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_error_in_one_stream_gives_no_report(monkeypatch, workers):
    monkeypatch.setattr(simulator, "_workers", lambda: workers)
    streams = []

    class Failing(simulator._Sampler):
        def fill(self, tau, out, rng):
            streams.append(rng.stream_id)
            if rng.stream_id == 3:
                raise RuntimeError("injected")
            return super().fill(tau, out, rng)

    monkeypatch.setattr(simulator, "_Sampler", Failing)
    with pytest.raises(RuntimeError, match="injected"):
        run("simultaneous", Variant.EXTERNAL, StrategyProfile.fixed((0.5,)), SimConfig(trials=80, chunk_count=8))
    if workers == 1:
        assert streams == [0, 1, 2, 3]  # no chunk is taken after the error


@pytest.mark.parametrize("on_main", [True, False])
def test_error_on_either_thread_stops_both(monkeypatch, on_main):
    monkeypatch.setattr(simulator, "_workers", lambda: 2)
    streams = []

    class Failing(simulator._Sampler):
        def fill(self, tau, out, rng):
            streams.append(rng.stream_id)
            if (threading.current_thread() is threading.main_thread()) == on_main:
                raise RuntimeError("injected")
            time.sleep(0.01)  # leave the failing thread time to take a chunk
            return super().fill(tau, out, rng)

    monkeypatch.setattr(simulator, "_Sampler", Failing)
    with pytest.raises(RuntimeError, match="injected"):
        run("simultaneous", Variant.EXTERNAL, StrategyProfile.fixed((0.5,)), SimConfig(trials=640, chunk_count=64))
    assert len(set(streams)) < 64
    assert not [t for t in threading.enumerate() if t.name.startswith("showdown-chunks")]  # none outlives run


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


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        run("parallel", Variant.EXTERNAL, StrategyProfile.fixed((0.5,)), SimConfig(trials=1))


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
