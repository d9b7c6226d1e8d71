"""Seeded Monte Carlo engine for full games.

Plays sequential or simultaneous games under arbitrary strategy profiles and
reports win/tie counts with standard errors.  Trials are split into chunks;
chunk c draws from the counter-based stream (seed, stream_id=c), so a report
is a pure function of (mode, variant, profile, seed, trials, chunk_count)
no matter how chunks are scheduled.  This is the independent oracle the
analytic solvers are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .score import RandomStream, sample_score, sample_scores
from .sequential import SeqState, seq_policy, theta
from .simultaneous import Variant

__all__ = [
    "SEQ_OPTIMAL",
    "StrategyProfile",
    "SimConfig",
    "SimReport",
    "play_once",
    "run",
]

Mode = Literal["sequential", "simultaneous"]

# Marker strategy: play the sequential optimal policy max(theta_r, best score).
SEQ_OPTIMAL = "seq-optimal"


@dataclass(frozen=True)
class StrategyProfile:
    """Per-player strategies: a fixed greed threshold or the sequential policy."""

    strategies: tuple[float | str, ...]

    def __post_init__(self) -> None:
        if not self.strategies:
            raise ValueError("profile needs at least one player")
        for s in self.strategies:
            if s == SEQ_OPTIMAL:
                continue
            if not isinstance(s, (int, float)) or not 0.0 <= float(s) <= 1.0:
                raise ValueError(f"strategy must be a threshold in [0, 1] or {SEQ_OPTIMAL!r}, got {s!r}")

    @classmethod
    def fixed(cls, thresholds: Sequence[float]) -> "StrategyProfile":
        return cls(tuple(float(t) for t in thresholds))

    @classmethod
    def sequential_optimal(cls, n: int) -> "StrategyProfile":
        return cls((SEQ_OPTIMAL,) * n)

    @property
    def n(self) -> int:
        return len(self.strategies)


@dataclass(frozen=True)
class SimConfig:
    """Trial count, master seed, and chunk split for one simulation run."""

    trials: int
    seed: int = 0
    chunk_count: int = 1

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.chunk_count < 1:
            raise ValueError("chunk_count must be at least 1")

    def chunk_sizes(self) -> list[int]:
        """Partition of trials across chunks (sizes differ by at most one)."""
        base, extra = divmod(self.trials, self.chunk_count)
        return [base + (1 if i < extra else 0) for i in range(self.chunk_count)]


@dataclass(frozen=True)
class SimReport:
    """Counts and estimates from a simulation run.

    tie_count is the all-bust draw; score_tie_count holds exact positive-score
    ties (probability zero in the continuous model, counted separately so any
    float artifact is observable).  Counts always sum to trials.
    """

    mode: str
    variant: Variant
    thresholds_used: tuple[float | str, ...]
    trials: int
    seed: int
    chunk_count: int
    win_counts: tuple[int, ...]
    tie_count: int
    score_tie_count: int

    @property
    def win_rates(self) -> tuple[float, ...]:
        return tuple(c / self.trials for c in self.win_counts)

    @property
    def tie_rate(self) -> float:
        return self.tie_count / self.trials

    def stderr(self, estimate: float) -> float:
        return math.sqrt(estimate * (1.0 - estimate) / self.trials)

    @property
    def win_stderrs(self) -> tuple[float, ...]:
        return tuple(self.stderr(r) for r in self.win_rates)


def _final_scores(profile: StrategyProfile, trials: int, rng: RandomStream) -> np.ndarray:
    """Scores of all players in seat order, threading the running best score
    through the turns.  Only the sequential policy reads it: a fixed
    threshold ignores earlier scores, so a profile of fixed thresholds plays
    the same games in either mode."""
    n = profile.n
    scores = np.empty((n, trials))
    best = np.zeros(trials)
    # no seat after the last sequential-policy one reads the running best
    last = max((i for i, s in enumerate(profile.strategies) if s == SEQ_OPTIMAL), default=0)
    for i, strat in enumerate(profile.strategies):
        tau = np.maximum(theta(n - i), best) if strat == SEQ_OPTIMAL else float(strat)
        s = sample_scores(tau, trials, rng)
        scores[i] = s
        if i < last:
            np.maximum(best, s, out=best)
    return scores


def _tally(
    scores: np.ndarray, variant: Variant
) -> tuple[np.ndarray, int, int]:
    """Win counts per player, all-bust ties, and exact positive-score ties.

    The winner holds the strictly highest positive score.  Under ADVANTAGED
    the all-bust draw converts to a win for the last player.
    """
    n = scores.shape[0]
    top = scores.max(axis=0)
    at_top = scores == top
    # first seat at the top score; argmax over the float scores along axis 0
    # would copy the whole (n, trials) array, the boolean mask is 8x smaller
    winner = at_top.argmax(axis=0)
    shared = at_top.sum(axis=0) > 1
    all_bust = top == 0.0
    score_tie = shared & ~all_bust
    decided = ~shared & ~all_bust  # a lone player's bust is a draw, not a win
    win_counts = np.bincount(winner[decided], minlength=n).astype(np.int64)
    tie = int(all_bust.sum())
    if variant is Variant.ADVANTAGED:
        win_counts[n - 1] += tie
        tie = 0
    return win_counts, tie, int(score_tie.sum())


def play_once(
    mode: Mode,
    variant: Variant,
    profile: StrategyProfile,
    rng: RandomStream,
) -> int | None:
    """Play one full game; returns the winner's index or None for a draw.

    Sequential mode deals turns in order, each player seeing the best earlier
    score; simultaneous mode samples all scores independently.  A draw is the
    all-bust event (ADVANTAGED converts it to a win for the last player).
    """
    variant = Variant(variant)
    scores: list[float] = []
    best = 0.0
    for i, strat in enumerate(profile.strategies):
        if strat == SEQ_OPTIMAL:
            if mode != "sequential":
                raise ValueError("the sequential policy needs mode='sequential'")
            tau = seq_policy(SeqState(remaining=profile.n - i, best_score=best))
        else:
            tau = float(strat)
        s = sample_score(tau, rng)
        scores.append(s)
        best = max(best, s)
    top = max(scores)
    if top == 0.0:
        return profile.n - 1 if variant is Variant.ADVANTAGED else None
    if scores.count(top) > 1:
        return None  # exact positive tie: probability-zero draw
    return scores.index(top)


def run(
    mode: Mode,
    variant: Variant,
    profile: StrategyProfile,
    config: SimConfig,
) -> SimReport:
    """Run config.trials games and merge per-chunk counts into a SimReport.

    Deterministic for fixed (seed, chunk_count) regardless of execution
    order: chunk c always draws from RandomStream(seed, stream_id=c).
    """
    if mode not in ("sequential", "simultaneous"):
        raise ValueError(f"unknown mode {mode!r}")
    variant = Variant(variant)
    if mode == "simultaneous" and SEQ_OPTIMAL in profile.strategies:
        raise ValueError("the sequential policy needs mode='sequential'")
    n = profile.n
    win_counts = np.zeros(n, dtype=np.int64)
    tie_count = 0
    score_tie_count = 0
    for c, size in enumerate(config.chunk_sizes()):
        if size == 0:
            continue
        rng = RandomStream(config.seed, stream_id=c)
        # no name keeps a chunk's (n, size) scores past its tally, so the next
        # chunk's array never coexists with it
        w, t, st = _tally(_final_scores(profile, size, rng), variant)
        win_counts += w
        tie_count += t
        score_tie_count += st
    return SimReport(
        mode=mode,
        variant=variant,
        thresholds_used=profile.strategies,
        trials=config.trials,
        seed=config.seed,
        chunk_count=config.chunk_count,
        win_counts=tuple(int(c) for c in win_counts),
        tie_count=tie_count,
        score_tie_count=score_tie_count,
    )
