"""Sequential game: each player spins in turn, seeing all earlier final scores.

With r players still to play and best earlier score M, the optimal greed
threshold is max(theta_r, M), where theta_r solves

    bust_prob(x)**(r-1) = integral of bust_prob(t)**(r-1) over [x, 1].

Because bust_prob is an exponential polynomial and the win-probability
recursion only ever multiplies by it and integrates, the whole table of
equilibrium win probabilities is computed exactly in the ExpPoly algebra.
The two three-player coalition analyses (first+second squeezing the third,
first+third squeezing the second) reduce to optimal-stopping problems with
payoffs built from the same pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .numerics import Bracket, ExpPoly, solve_root
from .score import BUST, bust_prob
from .stopping import PayoffSpec, expected_payoff, optimal_threshold

__all__ = [
    "MAX_PLAYERS",
    "theta",
    "SeqState",
    "seq_policy",
    "advise",
    "win_prob",
    "SeqEquilibrium",
    "win_matrix",
    "coalition_second_threshold",
    "CoalitionReport",
    "coalition_12",
    "coalition_13",
]

# Exact ExpPoly tables are validated up to 12 players; coefficient growth
# beyond that is untested.
MAX_PLAYERS = 12

_E = math.e
_EXP_X = ExpPoly({(0, 1): 1.0})  # e**x


@lru_cache(maxsize=None)
def _bust_pow(r: int) -> ExpPoly:
    return BUST**r


@lru_cache(maxsize=None)
def _bust_pow_anti(r: int) -> ExpPoly:
    return _bust_pow(r).antiderivative()


def _check_n(n: int) -> int:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"player count must be a positive integer, got {n}")
    if n > MAX_PLAYERS:
        raise ValueError(f"exact tables are capped at {MAX_PLAYERS} players, got {n}")
    return n


def _theta_residual(n: int, x: float) -> float:
    p_pow = _bust_pow(n - 1)
    return p_pow(x) - p_pow.integral(x, 1.0)


@lru_cache(maxsize=None)
def theta(n: int, tol: float = 1e-12) -> float:
    """Equilibrium greed threshold with n players left and no positive score yet.

    theta(1) = 0: the last player against no score stops on any first spin.
    The sequence is strictly increasing in n.
    """
    _check_n(n)
    if n == 1:
        return 0.0
    return solve_root(lambda x: _theta_residual(n, x), Bracket(0.0, 1.0), tol)


@dataclass(frozen=True)
class SeqState:
    """Turn state: players still to play (including the mover) and best score so far."""

    remaining: int
    best_score: float

    def __post_init__(self) -> None:
        if self.remaining < 1:
            raise ValueError("remaining must be at least 1")
        if not 0.0 <= self.best_score <= 1.0:
            raise ValueError(f"best score must lie in [0, 1], got {self.best_score}")


def seq_policy(state: SeqState) -> float:
    """Optimal greed threshold for the player about to move: max(theta_r, M)."""
    return max(theta(state.remaining), state.best_score)


def advise(state: SeqState, current_score: float) -> str:
    """'stop' or 'spin' for the mover's current running score.

    Stops exactly when the score has reached the policy threshold; the
    measure-zero tie at the threshold resolves to 'stop'.
    """
    if not 0.0 <= current_score <= 1.0:
        raise ValueError(f"score must lie in [0, 1], got {current_score}")
    return "stop" if current_score >= seq_policy(state) else "spin"


@lru_cache(maxsize=None)
def _win_poly(r: int, m: int) -> ExpPoly:
    """Closed form of the m-th mover's win probability among r remaining players,
    as a function of the best earlier score (valid at and above theta_r)."""
    if m == 1:
        anti = _bust_pow_anti(r - 1)
        return _EXP_X * (ExpPoly.constant(anti(1.0)) - anti)
    prev = _win_poly(r - 1, m - 1)
    anti = prev.antiderivative()
    return BUST * prev + _EXP_X * (ExpPoly.constant(anti(1.0)) - anti)


def win_prob(r: int, m: int, x: float) -> float:
    """Win probability of the m-th of r players still to play, given best score x.

    All players are assumed to follow the optimal policy.  Only defined for
    x >= theta_r; below that the mover would ignore x, so the closed form
    does not apply.
    """
    _check_n(r)
    if not 1 <= m <= r:
        raise ValueError(f"need 1 <= m <= r, got m = {m}, r = {r}")
    if x < theta(r) - 1e-12:
        raise ValueError(
            f"win_prob is defined for x >= theta_{r} = {theta(r):.6f}, got x = {x}"
        )
    return _win_poly(r, m)(x)


@dataclass(frozen=True)
class SeqEquilibrium:
    """Optimal-play summary for an n-player sequential game.

    thetas[r-1] is the threshold used when r players remain and no positive
    score is on the board; win_probs[m-1] is the m-th mover's win probability.
    residuals[r-1] is theta_r's defining equation evaluated at thetas[r-1].
    """

    n: int
    thetas: tuple[float, ...]
    win_probs: tuple[float, ...]
    residuals: tuple[float, ...]


@lru_cache(maxsize=None)
def _win_vector(n: int) -> tuple[float, ...]:
    if n == 1:
        return (1.0,)
    th = theta(n)
    bust_at = bust_prob(th)
    e_th = math.exp(th)
    prev = _win_vector(n - 1)
    probs = [e_th * bust_at ** (n - 1)]
    for m in range(2, n + 1):
        anti = _win_poly(n - 1, m - 1).antiderivative()
        probs.append(bust_at * prev[m - 2] + e_th * (anti(1.0) - anti(th)))
    return tuple(probs)


def win_matrix(n: int) -> SeqEquilibrium:
    """Thresholds and per-seat win probabilities under optimal play."""
    _check_n(n)
    thetas = tuple(theta(r) for r in range(1, n + 1))
    return SeqEquilibrium(
        n=n,
        thetas=thetas,
        win_probs=_win_vector(n),
        residuals=tuple(_theta_residual(r, th) for r, th in enumerate(thetas, start=1)),
    )


# ---------------------------------------------------------------------------
# Three-player coalitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoalitionReport:
    """Outcome of a two-member coalition in the three-player game.

    first_threshold is the leader's adjusted greed threshold; the partner's
    rule is the best-reply described by the coalition (the implicit threshold
    coalition_second_threshold(x) for first+second, or matching the second
    player's score for first+third).  The victim's win probability drops
    strictly below its optimal-play baseline.
    """

    coalition: str
    first_threshold: float
    victim: int
    victim_win_prob: float
    nash_baseline: float


@lru_cache(maxsize=None)
def coalition_second_threshold(x: float) -> float:
    """Second mover's threshold when colluding with the first against the third.

    Given the first player's final score x, returns the root t in [0, 1] of

        -e**t * (2t - 3) + t * e**x * (x - 1) = e,

    the one-more-spin indifference point for the payoff 'third player busts'.
    At x = 0 this reduces to the two-player threshold theta(2).
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"score must lie in [0, 1], got {x}")
    shift = math.exp(x) * (x - 1.0)

    def residual(t: float) -> float:
        return -math.exp(t) * (2.0 * t - 3.0) + t * shift - _E

    return solve_root(residual, Bracket(0.0, 1.0), 1e-14)


_BUST_ANTI = BUST.antiderivative()
_BUST_ANTI_AT_1 = _BUST_ANTI(1.0)


@lru_cache(maxsize=None)
def _third_loses(x: float) -> float:
    """Probability the third player loses, given the first scored x and the
    second plays coalition_second_threshold(x)."""
    t = coalition_second_threshold(x)
    return bust_prob(t) * bust_prob(x) + math.exp(t) * (_BUST_ANTI_AT_1 - _BUST_ANTI(t))


def coalition_12(tol: float = 1e-11) -> CoalitionReport:
    """First and second players collude to cut the third player's win odds.

    The first player's threshold solves the stopping problem whose payoff is
    the third player's losing probability; each payoff evaluation hides an
    implicit root-solve for the second player's reply, memoized on the score.
    """
    spec = PayoffSpec(h=_third_loses, h0=_third_loses(0.0))
    sol = expected_payoff(spec, tol)
    return CoalitionReport(
        coalition="first-and-second",
        first_threshold=sol.kappa,
        victim=3,
        victim_win_prob=1.0 - sol.expected_payoff,
        nash_baseline=win_matrix(3).win_probs[2],
    )


def coalition_13() -> CoalitionReport:
    """First and third players collude to cut the second player's win odds.

    The third player simply tries to beat the second's score, so the second's
    win probability given a first-player score x >= theta(2) is
    e**x * integral of bust_prob over [x, 1]; the first player stops to
    minimize it.  Busting leaves the second a two-player game he wins with
    probability e**theta(2) * bust_prob(theta(2)).
    """
    th2 = theta(2)
    # Second player's win probability when the first stops at x >= theta(2).
    second_wins = _EXP_X * (ExpPoly.constant(_BUST_ANTI_AT_1) - _BUST_ANTI)
    vartheta = math.exp(th2) * bust_prob(th2)

    def payoff(x: float) -> float:
        return 1.0 - second_wins(max(x, th2))

    spec = PayoffSpec(h=payoff, h0=1.0 - vartheta)
    rho = optimal_threshold(spec, 1e-13)
    p_rho = bust_prob(rho)
    anti = second_wins.antiderivative()
    victim = p_rho * vartheta + (1.0 - p_rho) * (anti(1.0) - anti(rho)) / (1.0 - rho)
    return CoalitionReport(
        coalition="first-and-third",
        first_threshold=rho,
        victim=2,
        victim_win_prob=victim,
        nash_baseline=win_matrix(3).win_probs[1],
    )
