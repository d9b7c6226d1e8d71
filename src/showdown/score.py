"""Law of a single player's final score under a greed threshold.

A player with greed threshold tau keeps adding uniform [0, 1] draws to a
running sum until it reaches tau; passing 1 busts the score to exactly 0.
The final score xi_tau is a mixture: an atom at 0 with mass

    bust_prob(tau) = 1 + e**tau * (tau - 1)

and, with the complementary mass e**tau * (1 - tau), a uniform draw on
(tau, 1].  Everything downstream (win probabilities, equilibria) reduces to
expectations against this law.  Products of many players' CDFs stay in
factored form (`CdfProduct`): multiplied out, they cancel catastrophically.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .numerics import NumericsError

__all__ = [
    "bust_prob",
    "score_cdf",
    "CdfProduct",
    "RandomStream",
]

def _check_threshold(tau: float) -> float:
    tau = float(tau)
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {tau}")
    return tau


def bust_prob(tau: float) -> float:
    """Probability that a player with greed threshold tau ends with score 0."""
    tau = _check_threshold(tau)
    return 1.0 + math.exp(tau) * (tau - 1.0)


def score_cdf(tau: float, x: float) -> float:
    """P(score <= x) for a player with greed threshold tau.

    Flat at the bust mass on [0, tau], then linear with slope e**tau up to 1.
    """
    tau = _check_threshold(tau)
    if math.isnan(x):
        raise ValueError("score must not be NaN")
    if x < 0.0:
        return 0.0
    if x <= tau:
        return 1.0 + math.exp(tau) * (tau - 1.0)
    if x <= 1.0:
        return 1.0 + math.exp(tau) * (x - 1.0)
    return 1.0


# Most log-CDF values one block holds: `_node_blocks` yields at most
# _BLOCK // n nodes of one profile of n thresholds at a time.
_BLOCK = 1 << 15
# CdfProduct.values takes its factors _SMALL_BLOCK // len(xs) at a time, so
# for up to 4 096 points its one temporary holds at most 4 096 values (32 KB),
# small enough not to raise peak RSS (a 120 KB array per call did so by
# 0.1 MB).  Past 4 096 points it takes one factor at a time over the whole
# input: the stopping kernel passes up to _BLOCK = 2**15 points, 256 KB.
_SMALL_BLOCK = 1 << 12
_TINY = np.finfo(float).tiny


def _log_cdf(s: np.ndarray, u: np.ndarray, p: np.ndarray, e: np.ndarray) -> np.ndarray:
    """log F_u(s) = log(p + e * max(s - u, 0)), broadcast over s and the
    thresholds u with their bust probabilities p and e**u; values that round
    to 0 are floored at the smallest normal float.  One array is allocated,
    for s - u, and the rest runs in place in it, so p and e must not
    broadcast beyond the shape of s - u."""
    out = s - u
    np.maximum(out, 0.0, out=out)
    out *= e
    out += p
    np.maximum(out, _TINY, out=out)
    return np.log(out, out=out)


# Newton passes the Gauss-Legendre family may take before it gives up
_NEWTON_CAP = 50
# the first zero of the Bessel function J_0
_J01 = 2.404825557695773
# (M, nodes, weights): the Gauss-Legendre rules m = 1, ..., M on [0, 1], flat
# and read-only, rule m at offset m (m - 1) / 2 with its nodes ascending;
# `_rules_upto` replaces it with a longer family when a larger rule is asked for
_family = (0, np.empty(0), np.empty(0))


def _legendre_roots(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The roots x >= 0 of the Legendre polynomials P_m, m = lo + 1, ..., hi,
    as t = 1 - x, with their Gauss weights halved for [0, 1].  Returns flat
    t and weight arrays, rule after rule, each rule's t ascending.

    Newton's method in t.  It starts from Tricomi's approximation to the
    k-th root, x = (1 - (m - 1) / (8 m**3)) cos(pi (4k - 1) / (4m + 2)),
    except at the root nearest 1: there x = cos(j / sqrt(m (m + 1) + 1/3)),
    with j the first zero of J_0, is off in t by 5e-4 at m = 2 and 3e-7 at
    m = 16, against Tricomi's 3e-3, so almost every node settles in two
    passes.  P_m(1 - t) comes from Legendre's recurrence in the form
    E_k = E_{k-1} - (2k - 1) t P_{k-1}, P_k = P_{k-1} + E_k / k, with
    E_k = k (P_k - P_{k-1}): it reads t rather than the rounded 1 - t, so a
    root near x = 1 and its 1 - x**2 = t (2 - t) keep their relative
    accuracy, and the weight 2 / ((1 - x**2) P_m'(x)**2) with them.  The
    nodes are ordered by degree, so step k of the recurrence runs on the
    slice of degrees m >= k.

    Each node stops on its own, so it does not depend on which other rules
    are built with it: once its step is at most 2**-26 t.  The relative
    error left after a step is at most half the square of the step's (the
    residual's second derivative over twice its first is x / (t (2 - t))
    in size at the root), so it is then below rounding.  The weight takes
    the last step's q = (1 - x**2) P_m'(x), which is stationary at the
    root, moved by half its first-order change over the step: that leaves
    an error of third order in the step.  Raises NumericsError after
    _NEWTON_CAP passes.
    """
    m = np.arange(lo + 1, hi + 1)
    half = (m + 1) // 2  # roots with x >= 0; rules 1..m-1 have m**2 // 4
    deg = np.repeat(m, half)
    k = np.arange(1, deg.size + 1) - np.repeat(m * m // 4 - (lo + 1) ** 2 // 4, half)
    first = k == 1
    angle = np.pi * (4.0 * k - 1.0) / (4.0 * deg + 2.0)
    angle[first] = _J01 / np.sqrt(m * (m + 1.0) + 1.0 / 3.0)
    shrink = (deg - 1.0) / (8.0 * deg**3)
    shrink[first] = 0.0
    t = 1.0 - (1.0 - shrink) * np.cos(angle)
    t[2 * k - 1 == deg] = 1.0  # x = 0, the middle root of an odd degree
    weights = np.empty_like(t)
    steps = np.arange(2, hi + 1)
    active = np.arange(t.size)
    for _ in range(_NEWTON_CAP):
        ta, ma = t[active], deg[active]
        p, e, scratch = 1.0 - ta, -ta, np.empty_like(ta)  # P_1 and E_1
        for j, s in zip(steps.tolist(), np.searchsorted(ma, steps).tolist()):
            if s == ta.size:
                break
            ts, ps, es, xs = ta[s:], p[s:], e[s:], scratch[s:]
            np.multiply(ts, ps, out=xs)
            xs *= 2 * j - 1
            es -= xs
            ps += np.divide(es, j, out=xs)
        q = ta * p * ma  # m (P_{m-1} - x P_m) = (1 - x**2) P_m'(x)
        q -= e
        dt = p * ta * (2.0 - ta) / q
        tn = ta + dt
        t[active] = tn
        q += 0.5 * ma * (ma + 1.0) * p * dt  # q' = -m (m + 1) P_m(x)
        weights[active] = tn * (2.0 - tn) / (q * q)
        active = active[np.abs(dt) > 2.0**-26 * tn]
        if not active.size:
            return t, weights
    raise NumericsError(f"Gauss-Legendre nodes did not settle in {_NEWTON_CAP} Newton passes")


def _rules_upto(m: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The family `_family`, first extended to the rules up to the least
    M = 32 * 2**j >= m when it is shorter: only the new rules are built, and
    each rule's nodes and weights are the same whatever M is.  A build costs
    about a dozen numpy calls per degree up to M, whatever the lower rules,
    so the first one goes to 32 at once: rules 16 (game i's) and 31 (60
    players' wins) in one build."""
    global _family
    family = _family
    top = family[0]
    if top >= m:
        return family
    size = max(32, 2 * top)
    while size < m:
        size *= 2
    t, w = _legendre_roots(top, size)
    # position i of rule j is its root t with index min(i, j - 1 - i): the
    # nodes t / 2 below 1/2 mirror the nodes 1 - t / 2 above it.  Rules
    # 1..j-1 hold j (j - 1) / 2 nodes and j**2 // 4 roots t.
    rule = np.arange(top + 1, size + 1)
    i = np.arange(size * (size + 1) // 2 - top * (top + 1) // 2)
    i -= np.repeat(rule * (rule - 1) // 2 - top * (top + 1) // 2, rule)
    mirror = np.repeat(rule - 1, rule) - i
    root = np.repeat(rule * rule // 4 - (top + 1) ** 2 // 4, rule) + np.minimum(i, mirror)
    x = 0.5 * t[root]
    above = i > mirror
    x[above] = 1.0 - x[above]
    nodes = np.concatenate((family[1], x))
    weights = np.concatenate((family[2], w[root]))
    nodes.flags.writeable = weights.flags.writeable = False
    _family = family = (size, nodes, weights)
    return family


@lru_cache(maxsize=None)
def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre rule on [0, 1], exact to degree 2m - 1: a
    read-only view into the family of `_rules_upto`, shared by every caller."""
    _, nodes, weights = _rules_upto(m)
    at = m * (m - 1) // 2
    return nodes[at : at + m], weights[at : at + m]


@lru_cache(maxsize=256)
def _layout(linear: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every node of the layout with the (linear[k] // 2 + 1)-point rule on
    piece k, in order: its piece, and its node and weight on [0, 1]; read-only."""
    counts = np.array(linear, dtype=np.intp) // 2 + 1
    _, nodes, weights = _rules_upto(int(counts.max(initial=0)))
    piece = np.repeat(np.arange(counts.size), counts)
    # each node's place in the family: its rule's offset there, less its
    # piece's offset in the layout, plus its own place in the layout
    at = counts * (counts - 1) // 2 - (np.cumsum(counts) - counts)
    at = np.repeat(at, counts) + np.arange(piece.size)
    out = piece, nodes[at], weights[at]
    for a in out:
        a.flags.writeable = False
    return out


class CdfProduct:
    """x -> scale * prod_j F_{u_j}(x) + shift on [0, 1]: the score CDFs of
    thresholds u_j in factored form, mapped affinely for the zero-sum payoff.
    `values` takes an array of points; `pieces` cuts [0, 1] at the distinct
    thresholds, between which every CDF is a positive constant or linear, so
    that the stopping kernel integrates the product exactly piece by piece."""

    __slots__ = ("scale", "shift", "_factors", "_columns")

    def __init__(
        self, thresholds: Sequence[float], scale: float = 1.0, shift: float = 0.0
    ) -> None:
        self.scale = float(scale)
        self.shift = float(shift)
        # bust_prob rejects thresholds outside [0, 1]
        self._factors = tuple((u, bust_prob(u), math.exp(u)) for u in map(float, thresholds))
        # the thresholds, their bust probabilities and e**u as (n, 1) columns
        self._columns = np.array(self._factors).reshape(-1, 3).T[:, :, None]

    @property
    def all_bust(self) -> float:
        """Probability that every player of the factors busts: the product of
        their bust probabilities, in factor order."""
        return math.prod(p for _, p, _ in self._factors)

    def values(self, xs: np.ndarray) -> np.ndarray:
        """The form at every point of the 1-D array xs, taking the factors in
        blocks of at most _SMALL_BLOCK values, or one at a time past that
        many points."""
        u, p, e = self._columns
        prod = np.ones(xs.size)
        step = max(1, _SMALL_BLOCK // max(xs.size, 1))
        for i in range(0, len(u), step):
            j = slice(i, i + step)
            f = np.subtract(xs, u[j])  # one (factors, points) array, updated in place
            np.maximum(f, 0.0, out=f)
            f *= e[j]
            f += p[j]
            prod *= f.prod(axis=0)
        return self.scale * prod + self.shift

    def pieces(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """Cuts 0 = c_0 < ... < c_K = 1 at the distinct thresholds inside
        (0, 1), and the product's degree on each piece [c_{k-1}, c_k]: the
        number of its factors linear there, those with u <= c_{k-1}."""
        cuts = np.array(sorted({0.0, 1.0, *(u for u, _, _ in self._factors if 0.0 < u < 1.0)}))
        linear = np.searchsorted(np.sort(self._columns[0], axis=None), cuts[:-1], side="right")
        return cuts, tuple(linear.tolist())


def _node_blocks(
    cuts: np.ndarray, linear: tuple[int, ...], n: int
) -> Iterator[tuple[np.ndarray, ...]]:
    """Gauss-Legendre nodes for a product of n score CDFs between ascending
    cuts: one row of K + 1 cuts, or an (r, K + 1) array, a profile a row,
    with linear[k] of the factors linear on piece k in every row.  Between
    consecutive thresholds every CDF is a positive constant or linear, so
    the (linear[k] // 2 + 1)-point rule on piece k is exact for the product
    (a piece of zero width adds nothing).  Yields (piece, nodes, weights)
    blocks of at most _BLOCK // n nodes a row, piece after piece, each laid
    out when it is drawn; piece indexes each node's piece."""
    piece, x, w = _layout(linear)
    lo = cuts[..., :-1]
    widths = cuts[..., 1:] - lo
    step = max(1, _BLOCK // max(n, 1))
    for i in range(0, piece.size, step):
        k = piece[i : i + step]
        width = widths.take(k, axis=-1)
        yield k, lo.take(k, axis=-1) + width * x[i : i + step], width * w[i : i + step]


class RandomStream:
    """Counter-based random stream keyed by (seed, stream_id).

    Identical keys reproduce the identical draw sequence; distinct stream ids
    give statistically independent streams, so chunked simulations are
    reproducible regardless of scheduling.  Single-owner mutable state: hand a
    stream to one consumer at a time.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        # integers only (numpy's too): int(1.5) would key the stream of seed 1
        seed, stream_id = operator.index(seed), operator.index(stream_id)
        # the Philox key is the pair as two 64-bit words
        if not (0 <= seed < 1 << 64 and 0 <= stream_id < 1 << 64):
            raise ValueError(f"seed and stream_id must lie in [0, 2**64), got {seed} and {stream_id}")
        self.seed = seed
        self.stream_id = stream_id
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniforms(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """n uniform [0, 1) draws as a float64 array, written into `out` (a
        float64 array of length n) when one is given.  Either way the stream
        advances by the same n draws."""
        return self._gen.random(n, out=out)

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"


class _Sampler:
    """Scratch for drawing up to `capacity` final scores at a time: one
    round's active indices, their sums and fresh draws, and masks.  It is
    allocated once and reused by every `fill`, so a caller that draws many
    rows allocates only each round's surviving positions.  Single-owner,
    like RandomStream."""

    __slots__ = ("_index", "_spare", "_sums", "_draws", "_mask")

    def __init__(self, capacity: int) -> None:
        self._index = np.empty(capacity, dtype=np.intp)
        self._spare = np.empty(capacity, dtype=np.intp)
        self._sums = np.empty(capacity)
        self._draws = np.empty(capacity)
        self._mask = np.empty(capacity, dtype=bool)

    def fill(self, tau: float | np.ndarray, out: np.ndarray, rng: RandomStream) -> np.ndarray:
        """Final scores into the float64 row `out` (at most `capacity` long)
        and return it.  tau is a float, or an array with one threshold per
        score, all in [0, 1] (unchecked).

        Each score accumulates draws until it reaches its threshold and busts
        to 0 past 1; the draws are batched per round, one for every
        unfinished score in index order.  Boolean indexing and masked writes
        branch on every element of a random mask and cost several times a
        full pass, so survivors are found by `flatnonzero` and busts zeroed
        by a product.  Each round's sums go back by index assignment, not
        `ndarray.put`: the active indices are sorted, unique and in range, so
        both write the same values, and both raise on a bad index, but `put`
        took about three times as long (about 200 against 70 us for 56 000
        indices into 62 500 scores, on one core of a 2-CPU VM).
        """
        size = out.size
        scalar = np.ndim(tau) == 0
        rng.uniforms(size, out=out)
        active = np.flatnonzero(np.less(out, tau, out=self._mask[:size]))
        spare, other = self._index, self._spare
        while active.size:
            k = active.size
            sums = np.take(out, active, out=self._sums[:k], mode="clip")
            sums += rng.uniforms(k, out=self._draws[:k])
            out[active] = sums
            limit = tau if scalar else np.take(tau, active, out=self._draws[:k], mode="clip")
            keep = np.flatnonzero(np.less(sums, limit, out=self._mask[:k]))
            active = np.take(active, keep, out=spare[: keep.size], mode="clip")
            spare, other = other, spare
        return np.multiply(out, np.less_equal(out, 1.0, out=self._mask[:size]), out=out)
