"""Sequential game: each player spins in turn, seeing all earlier final scores.

With r players still to play and best earlier score M, the optimal greed
threshold is max(theta_r, M), where theta_r solves

    p(x)**(r-1) = integral of p(t)**(r-1) over [x, 1],   p = bust_prob.

The integrand is entire, so a fixed Gauss-Legendre rule on [x, 1] gives the
integral to rounding, and theta_r, being strictly increasing in r, is a
bracketed root on [theta_{r-1}, 1].

The win functions W(r, m), the m-th of r remaining players' win probability
given a best earlier score x >= theta_r, obey a linear recursion:

    W(r, 1) = e**x * integral of p**(r-1) over [x, 1],
    W(r, m) = L W(r-1, m-1),  (L f)(x) = p(x) f(x) + e**x * integral of f over [x, 1].

They are entire as well, so they are collocated on Chebyshev points of
[0, 1] (Trefethen, Spectral Methods in MATLAB, SIAM 2000), where L is a
matrix, and the table of equilibrium win probabilities is a rolling
recursion over the blocks W(r, 1..r), one matrix product per r.  The two
three-player coalition analyses (first+second squeezing the third,
first+third squeezing the second) reduce to optimal-stopping problems whose
payoffs have closed forms (first+third) or are analytic (first+second).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.chebyshev import chebint, chebpts2, chebvander

from .numerics import Bracket, solve_root
from .score import _gauss_legendre, bust_prob
from .stopping import PayoffSpec, expected_payoff

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

# Closure stays below 1e-14, and doubling either size below moves no
# threshold or table entry by more than about 1e-15, up to this many players.
MAX_PLAYERS = 100

# Chebyshev points carrying the win functions, and Gauss-Legendre nodes for
# theta's integral and coalition 12's payoff.
_NODES = 100
_RULE = 16

_E = math.e


def _check_n(n: int) -> int:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"player count must be a positive integer, got {n}")
    if n > MAX_PLAYERS:
        raise ValueError(f"game-i tables are capped at {MAX_PLAYERS} players, got {n}")
    return n


def _bust(x: np.ndarray) -> np.ndarray:
    return 1.0 + np.exp(x) * (x - 1.0)


def _theta_residual(n: int, x: float) -> float:
    """p(x)**(n-1) minus the integral of p**(n-1) over [x, 1]."""
    s, w = _gauss_legendre(_RULE)
    tail = (1.0 - x) * float(_bust(x + (1.0 - x) * s) ** (n - 1) @ w)
    return bust_prob(x) ** (n - 1) - tail


@lru_cache(maxsize=None)
def theta(n: int) -> float:
    """Equilibrium greed threshold with n players left and no positive score yet.

    theta(1) = 0: the last player against no score stops on any first spin.
    The sequence is strictly increasing in n, so theta(n - 1) brackets
    theta(n) from below.
    """
    _check_n(n)
    if n == 1:
        return 0.0
    return solve_root(lambda x: _theta_residual(n, x), Bracket(theta(n - 1), 1.0))


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


# ---------------------------------------------------------------------------
# Win functions by Chebyshev collocation
# ---------------------------------------------------------------------------


class _Collocation:
    """Functions on [0, 1] as their values at `nodes` Chebyshev points.

    `bust` and `exp` hold p and e**x at the points.  `tail` maps values to
    the values of the integral over [x, 1]; `coef` maps values to the
    interpolant's Chebyshev coefficients and `tail_coef` to those of its
    integral over [x, 1].  All are read-only, as instances are shared.
    """

    __slots__ = ("bust", "exp", "tail", "coef", "tail_coef")

    def __init__(self, nodes: int) -> None:
        t = chebpts2(nodes)
        self.coef = np.linalg.inv(chebvander(t, nodes - 1))
        self.tail_coef = chebint(self.coef, lbnd=1.0, scl=-0.5)  # dx = dt / 2, zero at x = 1
        self.tail = chebvander(t, nodes) @ self.tail_coef
        x = 0.5 * (t + 1.0)
        self.bust, self.exp = _bust(x), np.exp(x)
        for name in self.__slots__:
            getattr(self, name).flags.writeable = False

    def first(self, power: int) -> np.ndarray:
        """W(power + 1, 1) = e**x * integral of p**power over [x, 1]."""
        return self.exp * (self.tail @ self.bust**power)

    def apply(self, f: np.ndarray) -> np.ndarray:
        """L f for each row of f."""
        return self.bust * f + self.exp * (f @ self.tail.T)

    @staticmethod
    def at(coefficients: np.ndarray, a: float) -> np.ndarray:
        """Row vector taking values at the points to the value at a of what
        `coefficients` maps them to."""
        k = np.arange(coefficients.shape[0])
        return np.cos(k * math.acos(2.0 * a - 1.0)) @ coefficients


# built on first use, never at import, and shared by every caller
_collocation = lru_cache(maxsize=None)(_Collocation)


def win_prob(r: int, m: int, x: float) -> float:
    """Win probability of the m-th of r players still to play, given best score x.

    All players are assumed to follow the optimal policy.  Only defined for
    x >= theta_r; below that the mover would ignore x, so the recursion does
    not apply.  W(r - m + 1, 1) is collocated and L applied m - 1 times.
    """
    _check_n(r)
    if not 1 <= m <= r:
        raise ValueError(f"need 1 <= m <= r, got m = {m}, r = {r}")
    if not theta(r) - 1e-12 <= x <= 1.0:
        raise ValueError(
            f"win_prob is defined for theta_{r} = {theta(r):.6f} <= x <= 1, got x = {x}"
        )
    col = _collocation(_NODES)
    f = col.first(r - m)
    for _ in range(m - 1):
        f = col.apply(f)
    return float(col.at(col.coef, x) @ f)


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


class _WinTable:
    """Rows 1..k of the win table at one node count, extended on demand;
    row k holds the k seats of the k-player game.

    In row k the first mover stops above theta_k and wins with probability
    e**theta_k p(theta_k)**(k-1).  Seat m > 1 wins p(theta_k) times seat m-1
    of row k-1 (the first mover busts) plus e**theta_k times the integral of
    W(k-1, m-1) over [theta_k, 1] (the first mover scores).  `block` holds
    W(k-1, 1..k-1) at the points and rolls forward one product per k, so a
    longer table continues from the rows already built.
    """

    __slots__ = ("col", "rows", "block")

    def __init__(self, nodes: int) -> None:
        self.col = _collocation(nodes)
        self.rows: list[tuple[float, ...]] = [(1.0,)]
        self.block = np.empty((0, nodes))

    def upto(self, n: int) -> tuple[tuple[float, ...], ...]:
        col = self.col
        for k in range(len(self.rows) + 1, n + 1):
            self.block = np.vstack((col.first(k - 2), col.apply(self.block)))
            th = theta(k)
            p_th, e_th = bust_prob(th), math.exp(th)
            later = p_th * np.array(self.rows[-1]) + e_th * (self.block @ col.at(col.tail_coef, th))
            self.rows.append((e_th * p_th ** (k - 1), *later.tolist()))
        return tuple(self.rows[:n])


# one table per node count, built on first use and shared by every caller
_win_table = lru_cache(maxsize=None)(_WinTable)


def _win_rows(n: int, nodes: int = _NODES) -> tuple[tuple[float, ...], ...]:
    """Rows 1..n of the win table on `nodes` Chebyshev points."""
    return _win_table(nodes).upto(n)


def win_matrix(n: int) -> SeqEquilibrium:
    """Thresholds and per-seat win probabilities under optimal play."""
    _check_n(n)
    thetas = tuple(theta(r) for r in range(1, n + 1))
    return SeqEquilibrium(
        n=n,
        thetas=thetas,
        win_probs=_win_rows(n)[-1],
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


class _Analytic:
    """A payoff analytic on [0, 1] whose integrals take the fixed _RULE-node
    Gauss-Legendre rule; as `PayoffSpec.h` it replaces adaptive quadrature."""

    __slots__ = ("h",)

    def __init__(self, h: Callable[[float], float]) -> None:
        self.h = h

    def __call__(self, x: float) -> float:
        return self.h(x)

    def integral(self, a: float, b: float) -> float:
        s, w = _gauss_legendre(_RULE)
        return (b - a) * math.fsum(
            wi * self.h(a + (b - a) * si) for si, wi in zip(s.tolist(), w.tolist())
        )


def _bust_tail(x: float) -> float:
    """Integral of bust_prob over [x, 1]."""
    return 1.0 - _E - x - math.exp(x) * (x - 2.0)


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


@lru_cache(maxsize=None)
def _third_loses(x: float) -> float:
    """Probability the third player loses, given the first scored x and the
    second plays coalition_second_threshold(x)."""
    t = coalition_second_threshold(x)
    return bust_prob(t) * bust_prob(x) + math.exp(t) * _bust_tail(t)


def coalition_12() -> CoalitionReport:
    """First and second players collude to cut the third player's win odds.

    The first player's threshold solves the stopping problem whose payoff is
    the third player's losing probability.  That payoff is analytic, so its
    integrals take the fixed Gauss-Legendre rule; each node hides an
    implicit root-solve for the second player's reply, memoized on the score.
    The threshold is solved to within 1e-11.
    """
    spec = PayoffSpec(h=_Analytic(_third_loses), h0=_third_loses(0.0))
    sol = expected_payoff(spec, 1e-11)
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
    s(x) = e**x * integral of bust_prob over [x, 1], whose antiderivative is
    S(x) = e**x (2 - e - x) - e**(2x) (2x - 5) / 4.  Busting leaves the second
    a two-player game, won with probability vartheta = e**theta(2) *
    bust_prob(theta(2)).  The first player stops where the payoff 1 - s
    (1 - vartheta on busting) meets its value after one more spin, that is
    at the root of vartheta x - s(x) + S(1) - S(x) on [theta(2), 1].
    """
    th2 = theta(2)
    vartheta = math.exp(th2) * bust_prob(th2)

    def second_wins_anti(x: float) -> float:
        return math.exp(x) * (2.0 - _E - x) - math.exp(2.0 * x) * (2.0 * x - 5.0) / 4.0

    def stop_minus_spin(x: float) -> float:
        tail = second_wins_anti(1.0) - second_wins_anti(x)
        return vartheta * x - math.exp(x) * _bust_tail(x) + tail

    rho = solve_root(stop_minus_spin, Bracket(th2, 1.0), 1e-13)
    p_rho = bust_prob(rho)
    tail = second_wins_anti(1.0) - second_wins_anti(rho)
    victim = p_rho * vartheta + (1.0 - p_rho) * tail / (1.0 - rho)
    return CoalitionReport(
        coalition="first-and-third",
        first_threshold=rho,
        victim=2,
        victim_win_prob=victim,
        nash_baseline=win_matrix(3).win_probs[1],
    )
