"""Sequential game: each player spins in turn, seeing all earlier final scores.

With r players still to play and best earlier score M, the optimal greed
threshold is max(theta_r, M), where theta_r solves

    p(x)**(r-1) = integral of p(t)**(r-1) over [x, 1],   p = bust_prob.

The integrand is entire, so a fixed Gauss-Legendre rule on [x, 1] gives the
integral to rounding.  The residual of that equation is increasing and convex
in x and equals 1 at x = 1, so Newton's method from x = 1 falls monotonically
to theta_r; every theta up to the cap is solved in one lockstep iteration.

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
payoffs have closed forms (first+third) or are analytic (first+second); the
latter's second-mover reply takes the same lockstep Newton iteration from 1.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .numerics import Bracket, NumericsError, solve_root
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
    "CoalitionReport",
    "coalition_12",
    "coalition_13",
]

# Closure stays below 1e-14, and doubling either size below moves no
# threshold or table entry by more than about 1e-15, up to this many players.
MAX_PLAYERS = 100

# Chebyshev points carrying the win functions, and Gauss-Legendre nodes for
# theta's integral and coalition 12's payoff.  The point count is a multiple
# of 8: with OpenBLAS 0.3.31 (Haswell kernels), products whose rows are that
# wide came out bit for bit the same under one and two BLAS threads, and at
# 100 points two threads moved win-table entries in the last bit.
_NODES = 104
_RULE = 16

# Newton's iteration takes 11 steps for the thresholds and at most 8 for
# coalition 12's second mover; this many means it is not converging.
_NEWTON_CAP = 50

_E = math.e


def _check_n(n: int) -> int:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"player count must be a positive integer, got {n}")
    if n > MAX_PLAYERS:
        raise ValueError(f"game-i tables are capped at {MAX_PLAYERS} players, got {n}")
    return n


def _bust(x: np.ndarray) -> np.ndarray:
    return 1.0 + np.exp(x) * (x - 1.0)


def _theta_residual(r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """p(x)**(r-1) minus the integral of p**(r-1) over [x, 1], for each
    player count in r and point in x."""
    s, w = _gauss_legendre(_RULE)
    width = 1.0 - x
    tail = width * (_bust(x[:, None] + width[:, None] * s) ** (r - 1)[:, None] @ w)
    return _bust(x) ** (r - 1) - tail


def _newton(step: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> Iterator[np.ndarray]:
    """Newton's iterates x - step(x), in lockstep over the array x, for
    elementwise residuals increasing and convex (or decreasing and concave)
    below x, with the residual at x of the slope's sign: the iterates fall
    monotonically to the one root, and no bracket is needed.

    A step that would raise an iterate is rounding at the root and is not
    taken.  An element stops once its step is at most 4 eps x or it did not
    move (where the residual rounds to an ulp off zero at the root), so its
    root does not depend on the rest of the array.  Raises NumericsError
    after _NEWTON_CAP steps.
    """
    running = np.ones(x.shape, dtype=bool)
    for _ in range(_NEWTON_CAP):
        dx = step(x)
        moved = np.where(running, np.minimum(x, x - dx), x)
        yield moved
        running &= (np.abs(dx) > 4.0 * math.ulp(1.0) * moved) & (moved != x)
        if not running.any():
            return
        x = moved
    raise NumericsError(f"a Newton iteration did not settle in {_NEWTON_CAP} steps")


def _theta_newton() -> Iterator[np.ndarray]:
    """Newton's iterates for theta_2..theta_MAX_PLAYERS, in lockstep from x = 1.

    The residual R_r has slope p**(r-2) ((r-1) p' + p), and p' = x e**x >= 0,
    p'' = (1 + x) e**x > 0, so R_r is increasing and convex on [0, 1] with
    R_r(1) = 1.
    """
    r = np.arange(2, MAX_PLAYERS + 1)

    def step(x):
        p = _bust(x)
        return _theta_residual(r, x) / (p ** (r - 2) * ((r - 1) * x * np.exp(x) + p))

    return _newton(step, np.ones(r.size))


@lru_cache(maxsize=None)
def _thetas() -> np.ndarray:
    """theta_1..theta_MAX_PLAYERS, read-only: theta_1 = 0 and the rest the
    last of Newton's iterates."""
    for x in _theta_newton():
        pass
    thetas = np.concatenate(([0.0], x))
    thetas.flags.writeable = False
    return thetas


def theta(n: int) -> float:
    """Equilibrium greed threshold with n players left and no positive score yet.

    theta(1) = 0: the last player against no score stops on any first spin.
    The sequence is strictly increasing in n.
    """
    return float(_thetas()[_check_n(n) - 1])


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
        # T_k(t_j) = cos(pi k (N-1-j) / (N-1)) at the N points t_j, k = 0..N,
        # the angle reduced modulo 2 pi before the cosine
        last = nodes - 1
        cheb = np.outer(np.arange(nodes + 1), last - np.arange(nodes)) % (2 * last) * np.pi
        cheb /= last
        np.cos(cheb, out=cheb)
        # Values to coefficients is a DCT-I (Trefethen, Approximation Theory
        # and Approximation Practice, ch. 3): c_k = 2/(N-1) times the sum of
        # f_j T_k(t_j) over j, end terms halved, and c_0, c_{N-1} halved.
        coef = (2.0 / last) * cheb[:nodes]
        coef[:, [0, -1]] *= 0.5
        coef[[0, -1]] *= 0.5
        # Term by term, with dx = dt / 2: T_0 integrates to T_1, T_1 to T_2 / 4,
        # T_k to T_{k+1} / (2(k+1)) - T_{k-1} / (2(k-1)); the constant term
        # makes the integral zero at x = 1, where every T_k is 1.
        c = -0.5 * coef
        tail_coef = np.zeros((nodes + 1, nodes))
        twice = 2.0 * np.arange(nodes + 1)[:, None]
        tail_coef[1] = c[0]
        tail_coef[2:] = c[1:] / twice[2:]
        tail_coef[1:last] -= c[2:] / twice[1:last]
        tail_coef[0] = -tail_coef[1:].sum(axis=0)
        self.coef, self.tail_coef = coef, tail_coef
        self.tail = cheb.T @ tail_coef
        x = 0.5 * (cheb[1] + 1.0)
        self.bust, self.exp = _bust(x), np.exp(x)
        for name in self.__slots__:
            getattr(self, name).flags.writeable = False

    def first(self, powers) -> np.ndarray:
        """W(power + 1, 1) = e**x * integral of p**power over [x, 1], one row
        for each of `powers`."""
        out = self.bust ** np.asarray(powers)[..., None] @ self.tail.T
        out *= self.exp
        return out

    def apply(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """L f for each row of f, written to `out` if given."""
        out = np.matmul(f, self.tail.T, out=out)
        out *= self.exp
        out += self.bust * f
        return out

    @staticmethod
    def at(coefficients: np.ndarray, a) -> np.ndarray:
        """Rows taking values at the points to the value at each a of what
        `coefficients` maps them to (one row for a scalar a)."""
        k = np.arange(coefficients.shape[0])
        cosines = np.multiply.outer(np.arccos(2.0 * np.asarray(a) - 1.0), k)
        return np.cos(cosines, out=cosines) @ coefficients


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
    longer table continues from the rows already built.  `firsts` holds
    W(k-1, 1) and `tails` the row taking values to the integral over
    [theta_k, 1], for every k up to the cap: built whole, a table rolled
    forward matches a fresh one bit for bit.  Tables are shared, so one
    caller at a time extends one.
    """

    __slots__ = ("col", "rows", "block", "firsts", "tails", "lock")

    def __init__(self, nodes: int) -> None:
        col = self.col = _collocation(nodes)
        self.firsts = col.first(np.arange(MAX_PLAYERS - 1))
        self.tails = col.at(col.tail_coef, _thetas()[1:])
        self.rows: list[tuple[float, ...]] = [(1.0,)]
        self.block = np.empty((0, nodes))
        self.lock = threading.Lock()

    def upto(self, n: int) -> tuple[tuple[float, ...], ...]:
        thetas = _thetas()
        with self.lock:
            for k in range(len(self.rows) + 1, n + 1):
                block = np.empty((k - 1, self.block.shape[1]))
                block[0] = self.firsts[k - 2]
                self.col.apply(self.block, out=block[1:])
                self.block = block
                th = float(thetas[k - 1])
                p_th, e_th = bust_prob(th), math.exp(th)
                later = p_th * np.array(self.rows[-1]) + e_th * (self.block @ self.tails[k - 2])
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
    thetas = _thetas()
    # the whole cap's residuals, then the first n: a matrix product's rounding
    # can depend on its row count, and an entry must not depend on n
    residuals = _theta_residual(np.arange(1, MAX_PLAYERS + 1), thetas)[:n]
    return SeqEquilibrium(
        n=n,
        thetas=tuple(thetas[:n].tolist()),
        win_probs=_win_rows(n)[-1],
        residuals=tuple(residuals.tolist()),
    )


# ---------------------------------------------------------------------------
# Three-player coalitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoalitionReport:
    """Outcome of a two-member coalition in the three-player game.

    first_threshold is the leader's adjusted greed threshold; the partner's
    rule is the best-reply described by the coalition (an implicit threshold
    in the first player's score for first+second, or matching the second
    player's score for first+third).  The victim's win probability drops
    strictly below its optimal-play baseline.
    """

    coalition: str
    first_threshold: float
    victim: int
    victim_win_prob: float
    nash_baseline: float


class _Analytic:
    """A payoff analytic on [0, 1], given by `values`, its values at an
    array of points.  Its `pieces` are the one piece [0, 1] of degree
    2 _RULE - 1, so the stopping kernel integrates it, to rounding, by the
    _RULE-node Gauss-Legendre rule."""

    __slots__ = ("values",)

    def __init__(self, values: Callable[[np.ndarray], np.ndarray]) -> None:
        self.values = values

    def pieces(self) -> tuple[tuple[float, float], tuple[int]]:
        return (0.0, 1.0), (2 * _RULE - 1,)


def _bust_tail(x, ex):
    """Integral of bust_prob over [x, 1], with ex = e**x; for floats and arrays."""
    return 1.0 - _E - x - ex * (x - 2.0)


def _second_newton(xs: np.ndarray) -> Iterator[np.ndarray]:
    """Newton's iterates from t = 1 for the second mover's threshold when
    colluding with the first against the third, at each first-player score
    in xs: the root t in [0, 1] of the one-more-spin indifference for the
    payoff 'third player busts',

        g(t) = -e**t (2t - 3) + t e**x (x - 1) - e,

    theta(2) at x = 0.  g' = e**x (x - 1) - e**t (2t - 1), g'' < 0,
    g(0) = 3 - e > 0 and g(1) = e**x (x - 1) <= 0.
    """
    shift = np.exp(xs) * (xs - 1.0)

    def step(t):
        et = np.exp(t)
        return (-et * (2.0 * t - 3.0) + t * shift - _E) / (shift - et * (2.0 * t - 1.0))

    return _newton(step, np.ones(xs.shape))


def _third_loses_many(xs: np.ndarray) -> np.ndarray:
    """Probability the third player loses, given each of the first player's
    scores xs and the second's reply t: the second busts against t and the
    third busts chasing x, or the second stops above t and the third busts
    chasing that score."""
    for t in _second_newton(xs):
        pass
    et = np.exp(t)
    return _bust(xs) * (1.0 + et * (t - 1.0)) + et * _bust_tail(t, et)


def coalition_12() -> CoalitionReport:
    """First and second players collude to cut the third player's win odds.

    The first player's threshold solves the stopping problem whose payoff is
    the third player's losing probability.  That payoff is analytic, so the
    kernel integrates it by the fixed Gauss-Legendre rule, and each of its
    calls (the first at the spot check's 256 points, both ends and the
    rule's nodes, then one for each root-finder step, at x and the rule on
    [x, 1]) solves the second player's reply at every point in one lockstep
    Newton iteration.  The threshold is solved to within 1e-12.
    """
    h = _Analytic(_third_loses_many)
    sol = expected_payoff(PayoffSpec(h=h, h0=float(h.values(np.zeros(1))[0])))
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
        ex = math.exp(x)
        return vartheta * x - ex * _bust_tail(x, ex) + tail

    rho = solve_root(stop_minus_spin, Bracket(th2, 1.0))
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
