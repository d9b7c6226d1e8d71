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
probability p(x) = 1 + e**x (x - 1).  Win probabilities for an arbitrary
threshold profile integrate products of score CDFs in factored form, as
sums of log-CDFs of its `CdfProduct` groups on `score._node_blocks`, the
Gauss-Legendre layout every such product shares, and best responses reduce
to the optimal-stopping kernel.  Every threshold is solved to `numerics`'
one tolerance, 1e-12: the thresholds, best responses and epsilon_n by
Brent's method (`solve_root`) on a bracket, one at a time.  The advantaged
seat's reply needs no bracket: its residual is increasing and convex on
[x, 1], so Newton's method from y = 1 falls monotonically to it, one float
at a time inside epsilon_delta (`numerics._newton_scalar`) and in lockstep
for figure 3's increasing curve (`numerics._newton`).  Figure 3's decreasing
curve (`advantaged_curve_points`) is bracketed by halving and solved for
all points at once by the lockstep ITP finder `numerics._bracketed_roots`.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._record import record
from .numerics import NumericsError, _bracketed_roots, _newton, _newton_scalar, solve_root
from . import score
from .score import CdfProduct, _log_cdf, bust_prob
from .stopping import PayoffSpec, optimal_threshold

__all__ = [
    "MAX_PLAYERS",
    "Variant",
    "alpha",
    "gamma",
    "epsilon_delta",
    "advantaged_curve_points",
    "SymmetricEquilibrium",
    "equilibrium",
    "ProfileOutcome",
    "win_probabilities",
    "three_player_wins",
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


# The most players a ii.* solver accepts: alpha, gamma, epsilon and delta are
# within 2 ulps of 60-digit roots at n = 10**3, 10**6 and 10**9, but epsilon
# is 6 ulps off at 10**10 and 514 at 10**12, and alpha 8 074 at 10**15.
MAX_PLAYERS = 10**9


def _check_n(n) -> int:
    if not hasattr(type(n), "__index__") or n < 2:  # an integer, numpy's too
        raise ValueError(f"player count must be an integer >= 2, got {n}")
    if n > MAX_PLAYERS:
        raise ValueError(f"player count must be at most {MAX_PLAYERS}, got {n}")
    return operator.index(n)  # a Python int: no solver caches a numpy power


def _check_seat(seat, n: int, name: str) -> int:
    if not hasattr(type(seat), "__index__"):  # a bool is seat 0 or 1; a float, not a seat
        raise ValueError(f"{name} index must be an integer, got {seat!r}")
    if not 0 <= seat < n:
        raise ValueError(f"{name} index out of range: {seat}")
    return operator.index(seat)


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
    n = _check_n(n)
    return solve_root(lambda x: _alpha_residual(n, x), 0.0, 1.0)


@lru_cache(maxsize=None)
def gamma(n: int) -> float:
    """Symmetric Nash threshold of the zero-sum game.

    Root in (0, 1) of  p(x)**(n-1) = 1 / (1 + e**x (n-1)).  Strictly
    increasing in n, and larger than alpha(n): in the zero-sum game a player
    must not merely win often but out-score the rest.
    """
    n = _check_n(n)
    return solve_root(lambda x: _gamma_residual(n, x), 0.0, 1.0)


# The two residuals of the advantaged game serve floats and arrays alike: the
# callers pass the terms at x (`_XTerms`) and e**y, computed by math or numpy.


class _XTerms(NamedTuple):
    """The terms of the advantaged game's two residuals that do not depend on
    y, for n players at abscissa x: e**x, n e**x, p(x)**(n-2), p(x)**(n-1)
    and the factor 1 + e**x (n - 2 + x) of the normal residual's
    denominator.  A root solve in y builds them once."""

    ex: float | np.ndarray
    n_ex: float | np.ndarray
    p_n2: float | np.ndarray
    p_n1: float | np.ndarray
    den_x: float | np.ndarray

    @classmethod
    def at(cls, n, x, ex, px) -> "_XTerms":
        """The terms for n players at x, with ex = e**x and px = p(x)."""
        return cls(ex, n * ex, px ** (n - 2), px ** (n - 1), 1.0 + ex * (n - 2.0 + x))


def _int_power(q, k):
    """q**k for integer k, as |q|**k with the sign put back for negative q
    and odd k: the same value (CPython and libm take the power of |q| and
    negate it), but numpy's power is about ten times slower on a negative
    base."""
    return abs(q) ** k * (1 - 2 * ((q < 0.0) & (k % 2 == 1)))


def _normal_residual(n, t: _XTerms, y, ey):
    """Indifference of a normal player when the other normal players use x
    and the advantaged player uses y, with t the terms at x and ey = e**y;
    its root in y falls as x grows.  It has a pole at y = 0, where the
    denominator vanishes: a float division raises, an array's gives an
    infinity or NaN."""
    num = ey * (_int_power(1.0 + t.ex * (y - 1.0), n) - 1.0) + t.n_ex
    den = t.n_ex * (1.0 + ey * (y - 1.0)) * t.den_x
    return t.p_n2 - num / den


def _advantaged_residual(n, t: _XTerms, y):
    """Stopping condition A(y) = h(y) - h_tilde(y) of the advantaged seat
    against n - 1 rivals at x, with t the terms at x, where h(y) = q**(n-1)
    with q = 1 + e**x (y - 1) and the bust value is p(x)**(n-1).

    On [x, 1], q lies in [p(x), 1], so
    A' = (n-1) e**x q**(n-2) + q**(n-1) - p(x)**(n-1) >= 0 and
    A'' = (n-1) e**x q**(n-3) ((n-2) e**x + q) >= 0, while A(x) < 0 for
    x < 1 and A(1) = 1 - p(x)**(n-1) >= 0.  So A has exactly one root on
    [x, 1], the seat's best response, rising with x; and since A is
    increasing and convex there, Newton's iterates from y = 1 fall
    monotonically to it, with no bracket needed."""
    q = 1.0 + t.ex * (y - 1.0)
    return q ** (n - 1) - t.p_n1 * y - (1.0 - q**n) / t.n_ex


def _advantaged_step(n, t: _XTerms, y):
    """Newton's step A(y) / A'(y) on the advantaged seat's residual, with
    A written out again so that q and q**(n-1) are taken once each: these
    steps are nearly all of the reply's cost."""
    q = 1.0 + t.ex * (y - 1.0)
    h = q ** (n - 1)
    residual = h - t.p_n1 * y - (1.0 - q**n) / t.n_ex
    return residual / ((n - 1) * t.ex * q ** (n - 2) + h - t.p_n1)


def _scalar_terms(n: int, x: float) -> _XTerms:
    """The terms at x as floats."""
    return _XTerms.at(n, x, math.exp(x), bust_prob(x))


def _advantaged_reply(n: int, x: float, t: _XTerms) -> float:
    """The advantaged seat's reply to x: the first y in [x, 1] where its
    residual is >= 0, with t the terms at x.  That is x itself where the
    residual at x is (at x = 1, and within rounding of it), else the root
    by Newton's method from y = 1 (`numerics._newton_scalar`)."""
    if _advantaged_residual(n, t, x) >= 0.0:
        return x
    return _newton_scalar(lambda y: _advantaged_step(n, t, y), 1.0)


@lru_cache(maxsize=None)
def epsilon_delta(n: int) -> tuple[float, float]:
    """Nash thresholds (epsilon_n, delta_n) of the advantaged game.

    epsilon_n is shared by the normal players, delta_n > epsilon_n belongs to
    the advantaged seat, which can afford to be greedier because the all-bust
    tie is its win.  delta is the seat's reply to x, by Newton's method from
    y = 1 (`_advantaged_reply`), and epsilon_n the root in x of the normal
    players' indifference along that reply.  That outer residual is negative
    at x = 0 and positive at x = 1, where the reply is 1 itself (its
    residual is exactly 0 at y = x = 1) and the residual is
    1 - 1 / (1 + e (n - 1)), so [0, 1] brackets the root, which `solve_root`
    finds by Brent's method: for n >= 3 the outer residual has both convex
    and concave stretches, so Newton could overshoot there.
    """
    n = _check_n(n)

    def outer(x: float) -> float:
        t = _scalar_terms(n, x)
        y = _advantaged_reply(n, x, t)
        return _normal_residual(n, t, y, math.exp(y))

    x = solve_root(outer, 0.0, 1.0)
    return x, _advantaged_reply(n, x, _scalar_terms(n, x))


# The points below y = 1 that figure 3's decreasing curve is bracketed
# between: 1 / 2**k for k = 1, ..., 52.
_HALVINGS = 2.0 ** -np.arange(1.0, 53.0)


def advantaged_curve_points(n, x) -> tuple[np.ndarray, np.ndarray]:
    """Heights of the two defining curves of the advantaged game at abscissa x.

    n (integers >= 2) and x (in [0, 1]) broadcast to one shape, and each
    point is solved alone: the result at a point does not depend on the
    others.  Returns two float64 arrays of that shape: y on the decreasing
    normal-player curve and y on the increasing advantaged-player curve.
    The increasing curve is the advantaged seat's reply and always exists:
    x where the seat's residual at x is >= 0, elsewhere its root by one
    lockstep Newton iteration from y = 1 (`numerics._newton`) over those
    points.  The decreasing curve is the largest root of the normal player's
    indifference in (0, 1]; it is NaN where that residual is negative at
    y = 1 (the curve has left the box above).  It is bracketed by halving
    down from y = 1, trying y = 1 / 2**k for k = 1, ..., 52 in turn, each
    only at the points whose residual has not yet turned negative, the first
    negative value closing a point's bracket; that passes over the spurious
    root that can sit next to the pole at y = 0, where the residual reads
    NaN and never counts as a sign change.  Those brackets' roots are
    solved in lockstep by the ITP method (`numerics._bracketed_roots`), to
    1e-12.  Useful for plotting the system and for brute-force cross-checks
    of epsilon_delta.
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
    t = _XTerms.at(n, x, ex, 1.0 + ex * (x - 1.0))

    increasing = x.copy()
    (below,) = np.nonzero(_advantaged_residual(n, t, x) < 0.0)
    if below.size:
        n_b, t_b = n[below], _XTerms._make(a[below] for a in t)
        for y in _newton(lambda y: _advantaged_step(n_b, t_b, y), np.ones(below.size)):
            pass
        increasing[below] = y
    if np.isnan(increasing).any():
        raise NumericsError("the advantaged reply is not finite")

    # the normal residual at y = 1, 1/2, 1/4, ... at the points still
    # positive there (or NaN, as every infinity reads: the pole's, and a
    # power's overflow at large n), each point's bracket [lo, hi] closed by
    # its first negative value
    ys = np.concatenate(([1.0], _HALVINGS))
    eys = np.exp(ys)
    lo, hi = np.ones(x.shape), np.ones(x.shape)
    f_lo, f_hi = np.full(x.shape, np.nan), np.full(x.shape, np.nan)
    open_, t_open, f_prev = np.arange(x.size), t, None
    for k, y in enumerate(ys):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            v = _normal_residual(n[open_], t_open, y, eys[k])
        v[np.isinf(v)] = np.nan
        if k == 0:
            top = v
        else:
            neg = v < 0.0
            closed = open_[neg]
            lo[closed], hi[closed] = y, ys[k - 1]
            f_lo[closed], f_hi[closed] = v[neg], f_prev[neg]
        keep = ~(v < 0.0)
        open_, f_prev = open_[keep], v[keep]
        if not open_.size:
            break
        t_open = _XTerms._make(a[keep] for a in t_open)
    decreasing = _bracketed_roots(
        lambda i, y: _normal_residual(n[i], _XTerms._make(a[i] for a in t), y, np.exp(y)),
        lo, hi, f_lo, f_hi,
    )
    return np.where(top == 0.0, 1.0, decreasing).reshape(shape), increasing.reshape(shape)


@record
class SymmetricEquilibrium:
    """Equilibrium profile of a no-information variant.

    groups holds the seats sharing a threshold, in seat order, each as
    (threshold, seats, win_prob, payoff): all n for EXTERNAL and ZERO_SUM;
    for ADVANTAGED the n - 1 normal seats, then the advantaged last seat,
    whose win probability includes the tie it converts.  thresholds,
    win_probs and payoffs expand them to one entry per seat.  tie_prob is
    the all-bust probability where a tie outcome exists (None for
    ADVANTAGED).  The payoffs are the win probabilities for EXTERNAL and
    ADVANTAGED, and exactly 0 for every seat of the symmetric zero-sum game.
    All of these are closed forms in the thresholds.  residuals holds the
    defining equations evaluated at the solution: the alpha or gamma
    equation, or for ADVANTAGED the normal and the advantaged player's
    conditions.
    """

    variant: Variant
    n: int
    groups: tuple[tuple[float, int, float, float], ...]
    tie_prob: float | None
    residuals: tuple[float, ...]

    def _per_seat(self, k: int) -> tuple[float, ...]:
        return tuple(v for group in self.groups for v in (group[k],) * group[1])

    thresholds = property(lambda self: self._per_seat(0))
    win_probs = property(lambda self: self._per_seat(2))
    payoffs = property(lambda self: self._per_seat(3))


def equilibrium(variant: Variant, n: int) -> SymmetricEquilibrium:
    """Nash equilibrium thresholds, win/tie probabilities and payoffs for a
    variant, in O(1) time and memory in n."""
    variant = Variant(variant)
    n = _check_n(n)
    if variant is not Variant.ADVANTAGED:
        if variant is Variant.EXTERNAL:
            u, residual = alpha(n), _alpha_residual
        else:
            u, residual = gamma(n), _gamma_residual
        tie = bust_prob(u) ** n
        win = (1.0 - tie) / n
        group = (u, n, win, win if variant is Variant.EXTERNAL else 0.0)
        return SymmetricEquilibrium(variant, n, (group,), tie, (residual(n, u),))
    eps, delta = epsilon_delta(n)
    t, e_delta = _scalar_terms(n, eps), math.exp(delta)
    p_adv = t.p_n1 * bust_prob(delta) + e_delta * (
        1.0 - (1.0 + t.ex * (delta - 1.0)) ** n
    ) / t.n_ex
    p_normal = (1.0 - p_adv) / (n - 1)
    return SymmetricEquilibrium(
        variant,
        n,
        ((eps, n - 1, p_normal, p_normal), (delta, 1, p_adv, p_adv)),
        None,
        (
            _normal_residual(n, t, delta, e_delta),
            _advantaged_residual(n, t, delta),
        ),
    )


@record
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


def win_probabilities(
    thresholds, advantaged: int | None = None
) -> ProfileOutcome:
    """Per-player win probabilities and the all-bust tie probability of one
    threshold profile.

    Player i wins with probability
    e**(u_i) * integral over [u_i, 1] of prod_{j != i} F_{u_j}(s) ds.
    The profile's groups in `score.CdfProduct`, its distinct thresholds
    v_1 < ... < v_d with counts c_g, bust probabilities and e**v_g, cut
    [v_1, 1] into d pieces, the last perhaps of zero width, integrated on
    score._node_blocks, the stopping kernel's layout: the L_k = c_1 + ... +
    c_k factors linear on the k-th piece take the (L_k // 2 + 1)-point rule.
    At each node the log-CDFs add up to sum_g c_g log F_{v_g}, and group g,
    at a node above v_g, adds the exponential of that sum less its own
    log-CDF; every seat takes its group's win.  So a symmetric profile costs
    one piece and one log-CDF per node.  Nothing is multiplied out, so the
    closure sum(win) + tie = 1 holds to rounding for any n (within 1.5e-14
    up to n = 100), and each win is capped at 1 - tie.  The tie is the
    product's `all_bust`: the seats' bust probabilities multiplied in seat
    order, the bust value `stop_payoff_function` takes too.
    """
    us = tuple(map(float, thresholds))
    form = CdfProduct(us)
    n = _check_n(len(us))
    advantaged = None if advantaged is None else _check_seat(advantaged, n, "advantaged")
    v, p, e, c = form._groups
    cuts, linear = np.append(v, 1.0), tuple(np.cumsum(c).tolist())
    counts = c[:, 0].astype(float)  # einsum is several times slower on integers
    wins = np.zeros(len(v))
    for _, s, w in score._node_blocks(cuts, linear, len(v)):
        logs = _log_cdf(s, v, p, e)
        np.subtract(np.einsum("g,gt->t", counts, logs), logs, out=logs)
        others = np.exp(logs, out=logs)
        others *= s > v
        wins += np.einsum("gt,t->g", others, w)
    tie = form.all_bust
    wins = np.minimum(wins * e[:, 0], 1.0 - tie)[form._seats]
    return ProfileOutcome(us, tuple(wins.tolist()), tie, advantaged)


def _ramp_integral(u, a):
    """Integral over [u, 1] of (s - a)_+: (c - a) t + t**2 / 2 with
    c = max(u, a) and t = 1 - c."""
    c = np.maximum(u, a)
    t = 1.0 - c
    return (c - a) * t + t * t / 2.0


def three_player_wins(u1, u2, u3) -> tuple[np.ndarray, np.ndarray]:
    """Win probabilities (..., 3) and all-bust tie probabilities (...) of
    three-player profiles, in closed form: win_probabilities' wins and tie,
    for every profile of thresholds that broadcast together.

    With F_a(s) = p_a + e**a (s - a)_+, seat u against rivals a and b wins
    e**u [(1 - u) p_a p_b + p_a e**b I_b + p_b e**a I_a + e**(a+b) J], where
    I_a = integral over [u, 1] of (s - a)_+ and J that of (s - a)_+ (s - b)_+.
    Every term is non-negative, so nothing cancels.
    """
    us = [np.asarray(u, dtype=float) for u in (u1, u2, u3)]
    if not all(((u >= 0.0) & (u <= 1.0)).all() for u in us):  # also rejects NaN
        raise ValueError("thresholds must lie in [0, 1]")
    wins = np.empty(np.broadcast_shapes(*(u.shape for u in us)) + (3,))
    es = [np.exp(u) for u in us]
    ps = [1.0 + e * (u - 1.0) for u, e in zip(us, es)]
    # J's integrand is (s - a)(s - b) above m = max(u, a, b), the same m for every seat
    m = np.maximum(np.maximum(us[0], us[1]), us[2])
    t = 1.0 - m
    t2, t3 = t * t / 2.0, t**3 / 3.0
    for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        u, a, b = us[i], us[j], us[k]
        al, be = m - a, m - b
        j_ab = al * be * t + (al + be) * t2 + t3
        pa, pb, ea, eb = ps[j], ps[k], es[j], es[k]
        i_a, i_b = _ramp_integral(u, a), _ramp_integral(u, b)
        wins[..., i] = es[i] * ((1.0 - u) * pa * pb + pa * eb * i_b + pb * ea * i_a + ea * eb * j_ab)
    return wins, ps[0] * ps[1] * ps[2]


def two_player_win(x: float, y: float) -> float:
    """First player's win probability in the two-player game, in closed form.

    Branches at x = y: below, the first player's conditional chance of
    out-drawing the second is (1-y)/(2(1-x)); above, the first also wins
    whenever the second lands in (y, x).
    """
    x, y = score._check_threshold(x), score._check_threshold(y)
    ex, ey = math.exp(x), math.exp(y)
    if x <= y:
        return 0.5 * ex * (ey * (y - 1.0) * (-2.0 * x + y + 1.0) - 2.0 * x + 2.0)
    return -0.5 * ex * (x - 1.0) * ((x - 1.0) * ey + 2.0)


def payoff_map(variant: Variant, outcome) -> tuple[float, ...] | np.ndarray:
    """Map a win/tie decomposition to per-player expected payoffs.

    EXTERNAL: payoff equals win probability.  ZERO_SUM: winners collect
    1/(n-1) from each rival, so payoff_i = P_i - (1 - P_i - tie)/(n-1).
    ADVANTAGED: the advantaged seat (outcome.advantaged, defaulting to the
    last seat) adds the tie mass to its wins.  `outcome` is a ProfileOutcome,
    mapped to a tuple, or (wins, tie) arrays of shapes (m, n) and (m,), such
    as three_player_wins returns, mapped row by row to an (m, n) array with
    the last seat advantaged; a batch of other shapes raises ValueError.
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
        out[..., operator.index(adv)] += tie  # True as seat 1, not a mask
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
    non-decreasing and carries the rivals' CDF product in factored form,
    whose `all_bust` is that product of bust probabilities.  `player` is a
    seat index: an integer (a bool or a numpy integer too), or ValueError.
    """
    variant = Variant(variant)
    rivals = tuple(rival_thresholds)
    n = _check_n(len(rivals) + 1)
    player = _check_seat(player, n, "player")
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
