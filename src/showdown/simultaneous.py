"""No-information game: all players pick greed thresholds simultaneously.

Three payoff variants share the same scoring process and differ only in how
the win/tie events map to payoffs:

* EXTERNAL   -- the winner is paid 1 by an external agent; an all-bust tie
                pays nothing to anyone (the payoff sum may be 0).
* ZERO_SUM   -- the winner collects 1/(n-1) from each loser; an all-bust tie
                pays nothing.
* ADVANTAGED -- one designated player (by convention the last) wins the
                all-bust tie; constant-sum.

Each variant has a symmetric (or symmetric-except-the-advantaged) Nash
equilibrium characterized by a one- or two-equation fixed point in the bust
probability p(x) = 1 + e**x (x - 1).  Win probabilities for arbitrary
threshold profiles, one or a batch at a time, integrate products of score
CDFs in factored form, as sums of log-CDFs on `score._node_blocks`, the
Gauss-Legendre layout every such product shares, and best responses reduce
to the optimal-stopping kernel.  Every threshold is a
bracketed root solved to 1e-12, the default of `solve_root`, which the
stopping kernel also uses: the thresholds, best responses and epsilon_delta's
nested roots one scalar Brent solve at a time, and the points of the
advantaged game's two curves (`advantaged_curve_points`, figure 3) all at
once, by the lockstep bisection `numerics._bisect_roots` on the same
residual formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .numerics import Bracket, NumericsError, _bisect_roots, solve_root
from . import score
from .score import CdfProduct, _log_cdf, bust_prob
from .stopping import PayoffSpec, optimal_threshold

__all__ = [
    "Variant",
    "alpha",
    "gamma",
    "epsilon_delta",
    "advantaged_curve_points",
    "SymmetricEquilibrium",
    "equilibrium",
    "ProfileOutcome",
    "win_probabilities",
    "win_probabilities_many",
    "two_player_win",
    "payoff_map",
    "stop_payoff_function",
    "best_response",
]


class Variant(str, Enum):
    """Payoff variant of the no-information game."""

    EXTERNAL = "ii.1"
    ZERO_SUM = "ii.2"
    ADVANTAGED = "ii.3"


def _check_n(n: int, minimum: int = 2) -> int:
    if not isinstance(n, int) or n < minimum:
        raise ValueError(f"player count must be an integer >= {minimum}, got {n}")
    return n


def _check_thresholds(thresholds) -> tuple[float, ...]:
    out = tuple(float(u) for u in thresholds)
    for u in out:
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"thresholds must lie in [0, 1], got {u}")
    return out


# alpha's and gamma's equations p(x)**(n-1) = r(x) are solved in the form
# p(x) = r(x)**(1/(n-1)).  Both sides of the power form stay near 0 over most
# of [0, 1] at large n, which holds Brent's method to bisection steps (up to
# 22 evaluations by n = 1000); the root form is nearly linear (at most 14).


def _alpha_residual(n: int, x: float) -> float:
    b = bust_prob(x)
    return b - ((1.0 - b**n) / (n * math.exp(x))) ** (1.0 / (n - 1))


def _gamma_residual(n: int, x: float) -> float:
    return bust_prob(x) - (1.0 + math.exp(x) * (n - 1)) ** (-1.0 / (n - 1))


@lru_cache(maxsize=None)
def alpha(n: int) -> float:
    """Symmetric Nash threshold of the externally-paid game.

    Root in (0, 1) of  p(x)**(n-1) = (1 - p(x)**n) / (n e**x); the left side
    increases from 0 to 1 while the right decreases from 1/n to 0, so the
    bracket [0, 1] always works.  Strictly increasing in n.
    """
    _check_n(n)
    return solve_root(lambda x: _alpha_residual(n, x), Bracket(0.0, 1.0))


@lru_cache(maxsize=None)
def gamma(n: int) -> float:
    """Symmetric Nash threshold of the zero-sum game.

    Root in (0, 1) of  p(x)**(n-1) = 1 / (1 + e**x (n-1)).  Strictly
    increasing in n, and larger than alpha(n): in the zero-sum game a player
    must not merely win often but out-score the rest.
    """
    _check_n(n)
    return solve_root(lambda x: _gamma_residual(n, x), Bracket(0.0, 1.0))


# The two residuals of the advantaged game serve floats and arrays alike: the
# callers pass e**x and p(x), and e**y, computed by math or numpy.


def _int_power(q, k):
    """q**k for integer k, as |q|**k with the sign put back for negative q
    and odd k: the same value (CPython and libm take the power of |q| and
    negate it), but numpy's power is about ten times slower on a negative
    base."""
    return abs(q) ** k * (1 - 2 * ((q < 0.0) & (k % 2 == 1)))


def _normal_residual(n, x, ex, px, y, ey):
    """Indifference of a normal player when the other normal players use x
    and the advantaged player uses y, with ex = e**x, px = p(x) and
    ey = e**y; its root in y falls as x grows.  It has a pole at y = 0,
    where the denominator vanishes: a float division raises, an array's
    gives an infinity or NaN."""
    num = ey * (_int_power(1.0 + ex * (y - 1.0), n) - 1.0) + n * ex
    den = n * ex * (1.0 + ey * (y - 1.0)) * (1.0 + ex * (n - 2.0 + x))
    return px ** (n - 2) - num / den


def _advantaged_residual(n, x, ex, px, y):
    """Stopping condition h(y) - h_tilde(y) of the advantaged player against
    n - 1 rivals at x, with ex = e**x and px = p(x), where
    h(y) = q**(n-1) with q = 1 + e**x (y - 1) and the bust value is
    p(x)**(n-1).  Its y-derivative h' + h - h(0) is non-negative, it is
    negative at y = x < 1 and equals 1 - p(x)**(n-1) > 0 at y = 1, so it
    has exactly one root on [x, 1]: the advantaged seat's best response,
    rising with x."""
    q = 1.0 + ex * (y - 1.0)
    return q ** (n - 1) - px ** (n - 1) * y - (1.0 - q**n) / (n * ex)


def _advantaged_reply(n: int, x: float) -> float:
    """First y in [x, 1] where the advantaged seat's residual is >= 0.  At
    x = 1, and within rounding of it, that is x itself."""
    ex, px = math.exp(x), bust_prob(x)

    def residual(y: float) -> float:
        return _advantaged_residual(n, x, ex, px, y)

    if residual(x) >= 0.0:
        return x
    return solve_root(residual, Bracket(x, 1.0))


@lru_cache(maxsize=None)
def epsilon_delta(n: int) -> tuple[float, float]:
    """Nash thresholds (epsilon_n, delta_n) of the advantaged game.

    epsilon_n is shared by the normal players, delta_n > epsilon_n belongs to
    the advantaged player, who can afford to be greedier because the all-bust
    tie is his win.  delta is the advantaged seat's reply to x (one bracketed
    root on [x, 1]) and epsilon_n the root in x of the normal players'
    indifference along that reply.  That outer residual is negative at x = 0
    and positive at x = 1, where the reply is 1 itself (its residual is
    exactly 0 at y = x = 1) and the residual is 1 - 1 / (1 + e (n - 1)), so
    [0, 1] brackets the root.  Every root here is a scalar `solve_root`, the
    reply nested in each evaluation of the outer residual.
    """
    _check_n(n)

    def outer(x: float) -> float:
        y = _advantaged_reply(n, x)
        return _normal_residual(n, x, math.exp(x), bust_prob(x), y, math.exp(y))

    x = solve_root(outer, Bracket(0.0, 1.0))
    return x, _advantaged_reply(n, x)


# The points below y = 1 that figure 3's decreasing curve is bracketed
# between: 1 / 2**k for k = 1, ..., 52.
_HALVINGS = 2.0 ** -np.arange(1.0, 53.0)


def advantaged_curve_points(n, x) -> tuple[np.ndarray, np.ndarray]:
    """Heights of the two defining curves of the advantaged game at abscissa x.

    n (integers >= 2) and x (in [0, 1]) broadcast to one shape, and each
    point is solved alone: the result at a point does not depend on the
    others.  Returns two float64 arrays of that shape: y on the decreasing
    normal-player curve and y on the increasing advantaged-player curve.
    The increasing curve is the advantaged seat's reply and always exists.
    The decreasing curve is the largest root of the normal player's
    indifference in (0, 1]; it is NaN where that residual is negative at
    y = 1 (the curve has left the box above).  It is bracketed by halving
    down from y = 1, trying y = 1 / 2**k for k = 1, ..., 52 at once, the
    first k where the residual turns negative closing the bracket; that
    passes over the spurious root that can sit next to the pole at y = 0,
    where the residual reads NaN and never counts as a sign change.  All
    roots are solved in lockstep, to 1e-12.  Useful for plotting the system
    and for brute-force cross-checks of epsilon_delta.
    """
    n, x = np.broadcast_arrays(np.asarray(n), np.asarray(x, dtype=float))
    if not np.issubdtype(n.dtype, np.integer) or not (n >= 2).all():
        raise ValueError("player counts must be integers >= 2")
    if not ((x >= 0.0) & (x <= 1.0)).all():  # also rejects NaN
        raise ValueError("x must lie in [0, 1]")
    # contiguous and at least 1-d, so that numpy takes the same kernels for
    # every point (its power on a 0-d array can differ in the last bit)
    shape = x.shape
    n, x = n.ravel(), x.ravel()
    ex = np.exp(x)
    px = 1.0 + ex * (x - 1.0)

    def advantaged(y):
        return _advantaged_residual(n, x, ex, px, y)

    at_x = advantaged(x)
    increasing = np.where(
        at_x >= 0.0, x, _bisect_roots(advantaged, x, 1.0, at_x, advantaged(1.0))
    )
    if np.isnan(increasing).any():
        raise NumericsError("the advantaged reply has no sign change on [x, 1]")

    # the normal residual at y = 1, 1/2, 1/4, ... in each point's row, with
    # the pole's infinities read as NaN
    ys = np.concatenate(([1.0], _HALVINGS))
    with np.errstate(divide="ignore", invalid="ignore"):
        vs = _normal_residual(n[:, None], x[:, None], ex[:, None], px[:, None], ys, np.exp(ys))
    vs[np.isinf(vs)] = np.nan
    top = vs[:, 0]
    k = np.argmax(vs < 0.0, axis=1)  # the first flip (NaN never flips), else 0
    rows = np.arange(len(vs))
    decreasing = _bisect_roots(
        lambda y: _normal_residual(n, x, ex, px, y, np.exp(y)),
        ys[k],
        ys[k - 1],
        np.where(k > 0, vs[rows, k], np.nan),  # no bracket where no point flips
        vs[rows, k - 1],
    )
    return np.where(top == 0.0, 1.0, decreasing).reshape(shape), increasing.reshape(shape)


@dataclass(frozen=True)
class SymmetricEquilibrium:
    """Equilibrium profile of a no-information variant.

    thresholds, win_probs and payoffs are per player, in seat order; for
    ADVANTAGED the last seat is the advantaged player and its win probability
    includes the tie he converts.  tie_prob is the all-bust probability where
    a tie outcome exists (None for ADVANTAGED).  payoffs are the variant's
    expected payoffs: the win probabilities for EXTERNAL and ADVANTAGED, and
    exactly 0 for every seat of the symmetric zero-sum game.  All of these are
    closed forms in the thresholds.  residuals holds the defining equations
    evaluated at the solution: the alpha or gamma equation, or for ADVANTAGED
    the normal and the advantaged player's conditions.
    """

    variant: Variant
    n: int
    thresholds: tuple[float, ...]
    win_probs: tuple[float, ...]
    tie_prob: float | None
    payoffs: tuple[float, ...]
    residuals: tuple[float, ...]


def equilibrium(variant: Variant, n: int) -> SymmetricEquilibrium:
    """Nash equilibrium thresholds, win/tie probabilities and payoffs for a
    variant."""
    variant = Variant(variant)
    _check_n(n)
    if variant is not Variant.ADVANTAGED:
        if variant is Variant.EXTERNAL:
            u, residual = alpha(n), _alpha_residual
        else:
            u, residual = gamma(n), _gamma_residual
        tie = bust_prob(u) ** n
        wins = ((1.0 - tie) / n,) * n
        payoffs = wins if variant is Variant.EXTERNAL else (0.0,) * n
        return SymmetricEquilibrium(variant, n, (u,) * n, wins, tie, payoffs, (residual(n, u),))
    eps, delta = epsilon_delta(n)
    p_eps, p_delta = bust_prob(eps), bust_prob(delta)
    e_eps, e_delta = math.exp(eps), math.exp(delta)
    p_adv = p_eps ** (n - 1) * p_delta + e_delta * (
        1.0 - (1.0 + e_eps * (delta - 1.0)) ** n
    ) / (e_eps * n)
    wins = ((1.0 - p_adv) / (n - 1),) * (n - 1) + (p_adv,)
    return SymmetricEquilibrium(
        variant,
        n,
        (eps,) * (n - 1) + (delta,),
        wins,
        None,
        wins,
        (
            _normal_residual(n, eps, e_eps, p_eps, delta, e_delta),
            _advantaged_residual(n, eps, e_eps, p_eps, delta),
        ),
    )


@dataclass(frozen=True)
class ProfileOutcome:
    """Win/tie decomposition of an arbitrary threshold profile.

    win_probs are the probabilities of holding the strictly highest positive
    score; tie_prob is the all-bust event.  Positive-score ties have
    probability zero under the continuous score law.  payoff_map maps it to
    per-player payoffs for a chosen variant.
    """

    thresholds: tuple[float, ...]
    win_probs: tuple[float, ...]
    tie_prob: float
    advantaged: int | None = None


def win_probabilities_many(profiles) -> tuple[np.ndarray, np.ndarray]:
    """Win probabilities (m, n) and all-bust tie probabilities (m,) of m
    threshold profiles of n players each.

    Player i wins with probability
    e**(u_i) * integral over [u_i, 1] of prod_{j != i} F_{u_j}(s) ds.
    Every profile's [min u, 1] is cut at its sorted thresholds and 1 into n
    pieces, some perhaps of zero width, and integrated on score._node_blocks,
    the stopping kernel's layout: k factors are linear on the k-th
    piece, so it takes the (k // 2 + 1)-point rule.  At a node above u_i, player i adds
    the exponential of the summed log-CDFs less its own.  Nothing is
    multiplied out, so the closure sum(win) + tie = 1 holds to rounding for
    any n (below 1e-14 at n = 100), and each win is capped at its row's
    1 - tie.  Profiles are taken in blocks of at most score._BLOCK log-CDF
    values, each laid out inside its block, and each profile's nodes are
    always split the same way, so a row does not depend on the rest of the
    batch.
    """
    us = np.asarray(profiles, dtype=float)
    if us.ndim != 2:
        raise ValueError(f"profiles must form an (m, n) array, got shape {us.shape}")
    m, n = us.shape
    _check_n(n)
    if not ((us >= 0.0) & (us <= 1.0)).all():  # also rejects NaN
        raise ValueError("thresholds must lie in [0, 1]")
    # piece k of a sorted profile has k + 1 linear factors (or zero width)
    linear = tuple(range(1, n + 1))
    rows = max(1, score._BLOCK // (n * sum(k // 2 + 1 for k in linear)))  # profiles per block
    wins, tie = np.empty((m, n)), np.empty(m)
    for r in range(0, m, rows):
        u = us[r : r + rows, None]
        e = np.exp(u)
        p = 1.0 + e * (u - 1.0)
        np.prod(p[:, 0], axis=1, out=tie[r : r + rows])
        cuts = np.concatenate((np.sort(u[:, 0], axis=1), np.ones((len(u), 1))), axis=1)
        acc = np.zeros((u.shape[0], n))
        for _, s, w in score._node_blocks(cuts, linear, n):
            s = s[:, :, None]
            logs = _log_cdf(s, u, p, e)
            np.subtract(logs.sum(axis=2, keepdims=True), logs, out=logs)
            others = np.exp(logs, out=logs)
            others *= s > u
            acc += np.einsum("rtj,rt->rj", others, w)
        np.minimum(acc * e[:, 0], 1.0 - tie[r : r + rows, None], out=wins[r : r + rows])
    return wins, tie


def win_probabilities(
    thresholds, advantaged: int | None = None
) -> ProfileOutcome:
    """Per-player win probabilities and the all-bust tie probability of one
    profile: win_probabilities_many on a batch of one."""
    us = _check_thresholds(thresholds)
    n = _check_n(len(us))
    if advantaged is not None and not 0 <= advantaged < n:
        raise ValueError(f"advantaged index out of range: {advantaged}")
    wins, tie = win_probabilities_many([us])
    return ProfileOutcome(us, tuple(wins[0].tolist()), float(tie[0]), advantaged)


def two_player_win(x: float, y: float) -> float:
    """First player's win probability in the two-player game, in closed form.

    Branches at x = y: below, the first player's conditional chance of
    out-drawing the second is (1-y)/(2(1-x)); above, he also wins whenever the
    second lands in (y, x).
    """
    (x, y) = _check_thresholds((x, y))
    ex, ey = math.exp(x), math.exp(y)
    if x <= y:
        return 0.5 * ex * (ey * (y - 1.0) * (-2.0 * x + y + 1.0) - 2.0 * x + 2.0)
    return -0.5 * ex * (x - 1.0) * ((x - 1.0) * ey + 2.0)


def payoff_map(variant: Variant, outcome) -> tuple[float, ...] | np.ndarray:
    """Map a win/tie decomposition to per-player expected payoffs.

    EXTERNAL: payoff equals win probability.  ZERO_SUM: winners collect
    1/(n-1) from each rival, so payoff_i = P_i - (1 - P_i - tie)/(n-1).
    ADVANTAGED: the advantaged player (outcome.advantaged, defaulting to the
    last seat) adds the tie mass to his wins.  `outcome` is a ProfileOutcome,
    mapped to a tuple, or the (wins, tie) arrays of win_probabilities_many,
    mapped row by row to an (m, n) array with the last seat advantaged; a
    batch of other shapes raises ValueError.
    """
    variant = Variant(variant)
    single = isinstance(outcome, ProfileOutcome)
    if single:
        wins, tie = np.array(outcome.win_probs), np.array(outcome.tie_prob)
    else:
        wins, tie = (np.asarray(a, dtype=float) for a in outcome)
        if wins.ndim != 2 or wins.shape[1] < 2 or tie.shape != wins.shape[:1]:
            raise ValueError(f"batch needs wins (m, n >= 2), tie (m,); got {wins.shape}, {tie.shape}")
    n = wins.shape[-1]
    if variant is Variant.EXTERNAL:
        out = wins
    elif variant is Variant.ZERO_SUM:
        # wins - (1 - wins - tie) / (n - 1), in that order, in one array
        out = np.subtract(1.0, wins)
        out -= tie[..., None]
        out /= n - 1
        np.subtract(wins, out, out=out)
    else:
        adv = outcome.advantaged if single and outcome.advantaged is not None else n - 1
        out = wins.copy()
        out[..., adv] += tie
    return tuple(out.tolist()) if single else out


def stop_payoff_function(
    variant: Variant, player: int, rival_thresholds
) -> PayoffSpec:
    """Payoff of stopping at score x for one player against fixed rivals.

    For positive x the win probability is the product of the rivals' CDFs at
    x, mapped through the variant payoff; the bust value differs by variant:
    0 for EXTERNAL, -(1 - prod of rival bust probabilities)/(n-1) for
    ZERO_SUM, and for ADVANTAGED the product of rival bust probabilities when
    `player` is the advantaged seat (index n-1), else 0.  The result is
    non-decreasing and carries the rivals' CDF product in factored form.
    """
    variant = Variant(variant)
    rivals = _check_thresholds(rival_thresholds)
    n = len(rivals) + 1
    _check_n(n)
    if not 0 <= player < n:
        raise ValueError(f"player index out of range: {player}")
    if variant is Variant.ZERO_SUM:
        form = CdfProduct(rivals, n / (n - 1.0), -1.0 / (n - 1.0))
        return PayoffSpec(h=form, h0=-(1.0 - form.all_bust) / (n - 1.0))
    win = CdfProduct(rivals)
    advantaged = variant is Variant.ADVANTAGED and player == n - 1
    return PayoffSpec(h=win, h0=win.all_bust if advantaged else 0.0)


def best_response(variant: Variant, player: int, rival_thresholds) -> float:
    """Threshold maximizing the player's expected payoff against fixed rivals.

    At an equilibrium profile this returns the player's own equilibrium
    threshold, which is the Nash fixed-point check.
    """
    return optimal_threshold(stop_payoff_function(variant, player, rival_thresholds))
