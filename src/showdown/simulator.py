"""Seeded Monte Carlo engine for full games.

Plays sequential or simultaneous games under arbitrary strategy profiles and
reports win/tie counts with standard errors.  Trials are split into chunks;
chunk c draws from the counter-based stream (seed, stream_id=c), so a report
is a pure function of (mode, variant, profile, seed, trials, chunk_count)
no matter how chunks are scheduled.  This is the independent oracle the
analytic solvers are checked against.

The non-empty chunks run concurrently, one thread per CPU the process may
use (at most one per chunk), and the counts are identical for any thread
count.  A chunk is played seat by seat in one pass that keeps only each
game's running top score, the first seat holding it and a shared flag, so
no (players, games) array is ever held: a running chunk needs about 78
bytes per game, whatever the number of players.  About 67 of them are
buffers its thread allocates once per run and reuses for every seat and
chunk; the rest are each sampling round's `np.flatnonzero` index arrays.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Iterator, Literal, Sequence

import numpy as np

from ._record import record
from .score import RandomStream, _Sampler, _integer, _threshold
from .sequential import theta
from .simultaneous import Variant

__all__ = [
    "SEQ_OPTIMAL",
    "StrategyProfile",
    "SimConfig",
    "SimReport",
    "run",
]

Mode = Literal["sequential", "simultaneous"]

# Marker strategy: play the sequential optimal policy max(theta_r, best score).
SEQ_OPTIMAL = "seq-optimal"


@record
class StrategyProfile:
    """Per-player strategies: a fixed greed threshold or the sequential policy."""

    strategies: tuple[float | str, ...]

    def __post_init__(self) -> None:
        if not self.strategies:
            raise ValueError("profile needs at least one player")
        strategies = (s if s == SEQ_OPTIMAL else _threshold(s, "strategy") for s in self.strategies)
        object.__setattr__(self, "strategies", tuple(strategies))

    @classmethod
    def fixed(cls, thresholds: Sequence[float]) -> "StrategyProfile":
        return cls(tuple(_threshold(t, "strategy") for t in thresholds))

    @classmethod
    def sequential_optimal(cls, n: int) -> "StrategyProfile":
        return cls((SEQ_OPTIMAL,) * _integer(n, "player count"))

    @property
    def n(self) -> int:
        return len(self.strategies)


@record
class SimConfig:
    """Trial count, master seed, and chunk split for one simulation run; pass
    chunk_count=8, the default of `showdown simulate --chunks`, to draw its games."""

    trials: int
    seed: int = 0
    chunk_count: int = 1

    def __post_init__(self) -> None:
        # refused here rather than inside a chunk thread; stored as Python
        # ints, so a report's seed is the one drawn from
        for name in ("trials", "seed", "chunk_count"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.chunk_count < 1:
            raise ValueError("chunk_count must be at least 1")
        # refused here, before any chunk's RandomStream is keyed on a thread
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")

    def chunk_sizes(self) -> Iterator[int]:
        """Sizes of the non-empty chunks, in chunk order: trials split over
        chunk_count chunks, sizes differing by at most one.  Chunks past the
        first min(trials, chunk_count) would be empty and are never yielded."""
        base, extra = divmod(self.trials, self.chunk_count)
        for c in range(min(self.trials, self.chunk_count)):
            yield base + (1 if c < extra else 0)


@record
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


class _Tally:
    """One chunk's outcome, built seat by seat: the top score so far, the
    first seat holding it, and whether a later seat matched it.  The buffers
    hold up to `capacity` games and are reused by every chunk; each seat's
    update is full-width comparisons and products, never a masked write."""

    __slots__ = ("top", "_top", "_first", "_lead", "_shared", "_flag")

    def __init__(self, capacity: int) -> None:
        self._top = np.empty(capacity)
        self._first = np.empty(capacity, dtype=np.int32)
        self._lead = np.empty(capacity, dtype=np.int32)
        self._shared = np.empty(capacity, dtype=bool)
        self._flag = np.empty(capacity, dtype=bool)

    def start(self, size: int) -> None:
        """Begin `size` games with no seat played: the running top is 0."""
        self.top = self._top[:size]
        self.top.fill(0.0)
        self._first[:size] = 0
        self._shared[:size] = False

    def add(self, seat: int, scores: np.ndarray) -> None:
        """Take the next seat's scores, one per game, in seven full-width passes."""
        size = scores.size
        top, first, shared, flag = self.top, self._first[:size], self._shared[:size], self._flag[:size]
        higher = np.greater(scores, top, out=flag)
        np.greater(shared, higher, out=shared)  # shared and not higher: a higher score ends a tie
        # seats only grow, so the larger of the old leader and seat * higher
        # is the new leader
        lead = np.multiply(higher, np.int32(seat), out=self._lead[:size])
        shared |= np.equal(scores, top, out=flag)
        np.maximum(first, lead, out=first)
        np.maximum(top, scores, out=top)

    def counts(self, n: int) -> np.ndarray:
        """n + 2 counts: wins per seat, all-bust draws, and exact positive-score
        ties.  The winner holds the strictly highest positive score; a lone
        player's bust is a draw, not a win."""
        size = self.top.size
        first = self._first[:size]
        np.copyto(first, n + 1, where=self._shared[:size])
        np.copyto(first, n, where=np.equal(self.top, 0.0, out=self._flag[:size]))
        return np.bincount(first, minlength=n + 2)


class _Player:
    """One thread's buffers for chunks of up to `capacity` games: the score
    row, the per-game thresholds of the sequential policy, the sampler's
    scratch and the tally, allocated once and reused for every seat and
    chunk."""

    __slots__ = ("_sampler", "_tally", "_scores", "_tau")

    def __init__(self, capacity: int) -> None:
        self._sampler = _Sampler(capacity)
        self._tally = _Tally(capacity)
        self._scores = np.empty(capacity)
        self._tau = np.empty(capacity)

    def play(self, seats: Sequence[tuple[float, bool]], size: int, rng: RandomStream) -> np.ndarray:
        """Tally.counts of `size` games, played seat by seat from rng.

        seats holds (threshold, policy) per seat: a policy seat plays the
        sequential rule max(theta, top score so far), the others their fixed
        threshold.  A fixed threshold ignores earlier scores, so a profile of
        fixed thresholds plays the same games in either mode.
        """
        tally, scores, tau = self._tally, self._scores[:size], self._tau[:size]
        tally.start(size)
        for seat, (threshold, policy) in enumerate(seats):
            limit = np.maximum(tally.top, threshold, out=tau) if policy else threshold
            tally.add(seat, self._sampler.fill(limit, scores, rng))
        return tally.counts(len(seats))


def _workers() -> int:
    """Threads that can play chunks at once: one per CPU this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _play_chunks(seats: Sequence[tuple[float, bool]], config: SimConfig) -> np.ndarray:
    """Summed Tally.counts of every non-empty chunk, chunk c played from
    RandomStream(config.seed, c).

    The main thread and up to _workers() - 1 helpers take the chunks in
    turn, each with one _Player sized for the largest chunk.  The counts are
    integer sums, so they do not depend on which thread plays which chunk.
    The first error in any chunk stops every thread from taking another, and
    is raised here.
    """
    capacity = -(-config.trials // config.chunk_count)
    chunks = enumerate(config.chunk_sizes())
    lock = threading.Lock()
    totals = np.zeros(len(seats) + 2, dtype=np.int64)
    errors: list[BaseException] = []

    def work() -> None:
        player = None
        try:
            while True:
                with lock:
                    item = None if errors else next(chunks, None)
                if item is None:
                    return
                c, size = item
                if player is None:
                    player = _Player(capacity)
                counts = player.play(seats, size, RandomStream(config.seed, stream_id=c))
                with lock:
                    np.add(totals, counts, out=totals)
        except BaseException as exc:  # handed to the main thread, which raises it
            with lock:
                errors.append(exc)

    helpers = [
        threading.Thread(target=work, name=f"showdown-chunks-{k}", daemon=True)
        for k in range(1, min(_workers(), config.trials, config.chunk_count))
    ]
    for t in helpers:
        t.start()
    try:
        work()
        for t in helpers:
            t.join()
    except BaseException as exc:  # an interrupt while joining: no helper takes another chunk
        with lock:
            errors.append(exc)
        raise
    if errors:
        raise errors[0]
    return totals


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
    seats = tuple(
        (theta(n - i), True) if s == SEQ_OPTIMAL else (float(s), False)
        for i, s in enumerate(profile.strategies)
    )
    counts = _play_chunks(seats, config)
    win_counts, tie_count, score_tie_count = counts[:n], int(counts[n]), int(counts[n + 1])
    if variant is Variant.ADVANTAGED:  # the last seat converts the all-bust draw
        win_counts[n - 1] += tie_count
        tie_count = 0
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
