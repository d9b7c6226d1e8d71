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
from typing import Iterable, Iterator, Sequence

import numpy as np

from .numerics import NumericsError, _NEWTON_CAP

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
        return bust_prob(tau)
    if x <= 1.0:
        return 1.0 + math.exp(tau) * (x - 1.0)
    return 1.0


# Most log-CDF values one block holds: `_node_blocks` yields at most
# _BLOCK // d nodes at a time to a caller taking d log-CDFs a node, one per
# distinct threshold of its profile.
_BLOCK = 1 << 15
# CdfProduct.values takes _SMALL_BLOCK // len(xs) groups' log-CDFs at a time,
# so for up to 4 096 points its one temporary holds at most 4 096 values
# (32 KB), small enough not to raise peak RSS (a 120 KB array per call did
# so by 0.1 MB).  Past 4 096 points it takes one group at a time over the
# whole input: the stopping kernel passes up to _BLOCK = 2**15 points, 256 KB.
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


# the first zero of the Bessel function J_0
_J01 = 2.404825557695773
# The first build also makes every rule up to this size: one build then
# serves rules 16 (game i's) and 31 (60 players' wins), and a build costs
# about a dozen numpy calls per degree up to its largest, whatever the rest.
_FIRST = 32
# m -> the m-point Gauss-Legendre rule on [0, 1], (nodes, weights), nodes
# ascending: read-only views into the flat arrays of the build that made it.
# A race between threads can only repeat a build, with the same bits.
_rules: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _legendre_roots(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The roots x >= 0 of the Legendre polynomial P_m for each degree of
    the ascending integer array m (each degree at least 1), as t = 1 - x,
    with their Gauss weights halved for [0, 1].  Returns flat t and weight
    arrays, degree after degree, each degree's t ascending.

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
    half = (m + 1) // 2  # roots with x >= 0
    deg = np.repeat(m, half)
    k = np.arange(1, deg.size + 1) - np.repeat(np.cumsum(half) - half, half)
    first = k == 1
    angle = np.pi * (4.0 * k - 1.0) / (4.0 * deg + 2.0)
    angle[first] = _J01 / np.sqrt(m * (m + 1.0) + 1.0 / 3.0)
    shrink = (deg - 1.0) / (8.0 * deg**3)
    shrink[first] = 0.0
    t = 1.0 - (1.0 - shrink) * np.cos(angle)
    t[2 * k - 1 == deg] = 1.0  # x = 0, the middle root of an odd degree
    weights = np.empty_like(t)
    steps = np.arange(2, m[-1] + 1)
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


def _build_rules(sizes: Iterable[int]) -> None:
    """Add to `_rules` the rules of the given sizes it lacks, and on the
    first build every size up to _FIRST, from one `_legendre_roots` call."""
    missing = set(sizes) if _rules else {*sizes, *range(1, _FIRST + 1)}
    m = np.array(sorted(missing.difference(_rules)), dtype=np.intp)
    if not m.size:
        return
    t, w = _legendre_roots(m)
    # position i of rule j is its root t with index min(i, j - 1 - i): the
    # nodes t / 2 below 1/2 mirror the nodes 1 - t / 2 above it
    end = np.cumsum(m)
    i = np.arange(end[-1]) - np.repeat(end - m, m)
    mirror = np.repeat(m - 1, m) - i
    half = (m + 1) // 2
    root = np.repeat(np.cumsum(half) - half, m) + np.minimum(i, mirror)
    x = 0.5 * t[root]
    above = i > mirror
    x[above] = 1.0 - x[above]
    w = w[root]
    x.flags.writeable = w.flags.writeable = False
    for size, stop in zip(m.tolist(), end.tolist()):
        _rules[size] = x[stop - size : stop], w[stop - size : stop]


def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre rule on [0, 1], exact to degree 2m - 1:
    read-only, and shared by every caller."""
    if m not in _rules:
        _build_rules((m,))
    return _rules[m]


@lru_cache(maxsize=256)
def _layout(linear: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every node of the layout with the (linear[k] // 2 + 1)-point rule on
    piece k, in order: its piece, and its node and weight on [0, 1]; read-only."""
    counts = [k // 2 + 1 for k in linear]
    _build_rules(counts)
    rules = [_rules[m] for m in counts] or [(np.empty(0),) * 2]
    out = np.repeat(np.arange(len(counts)), counts), *map(np.concatenate, zip(*rules))
    for a in out:
        a.flags.writeable = False
    return out


class CdfProduct:
    """x -> scale * prod_j F_{u_j}(x) + shift on [0, 1]: the score CDFs of
    thresholds u_j in factored form, mapped affinely for the zero-sum payoff,
    as prod_g F_{v_g}**c_g over the distinct thresholds v_g and their counts.
    `values` takes an array of points; `pieces` cuts [0, 1] at the distinct
    thresholds, between which every CDF is a positive constant or linear, so
    that the stopping kernel integrates the product exactly piece by piece.
    One grouping serves `win_probabilities` too: `_groups` holds v_g, p_g,
    e**v_g (numpy's) and c_g as (d, 1) columns, `_seats` each u_j's group."""

    __slots__ = ("scale", "shift", "_groups", "_seats")

    def __init__(
        self, thresholds: Sequence[float], scale: float = 1.0, shift: float = 0.0
    ) -> None:
        self.scale = float(scale)
        self.shift = float(shift)
        u = np.array(thresholds, dtype=float).ravel()
        v = np.sort(u)  # NaNs last
        if v.size and not (v[0] >= 0.0 and v[-1] <= 1.0):
            bad = float(u[~((u >= 0.0) & (u <= 1.0))][0])
            raise ValueError(f"thresholds must lie in [0, 1], got {bad}")
        v = np.append(v[:1], v[1:][v[1:] != v[:-1]])  # the distinct thresholds
        self._seats = np.searchsorted(v, u)
        v = v[:, None]
        e = np.exp(v)
        self._groups = (v, 1.0 + e * (v - 1.0), e, np.bincount(self._seats)[:, None])

    @property
    def all_bust(self) -> float:
        """P(all bust): the bust probabilities of the u_j multiplied in order."""
        return float(np.multiply.reduce(self._groups[1].ravel()[self._seats]))

    def values(self, xs: np.ndarray) -> np.ndarray:
        """scale * exp(sum_g c_g log F_{v_g}(x)) + shift at every point of the
        1-D array xs, by `_log_cdf` on blocks of groups of at most
        _SMALL_BLOCK values, or one group at a time past that many points."""
        u, p, e, c = self._groups
        total = np.zeros(xs.size)
        step = max(1, _SMALL_BLOCK // max(xs.size, 1))
        for i in range(0, len(u), step):
            j = slice(i, i + step)
            logs = _log_cdf(xs, u[j], p[j], e[j])  # one (groups, points) array
            logs *= c[j]
            total += logs.sum(axis=0)
        return self.scale * np.exp(total) + self.shift

    def pieces(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """Cuts 0 = c_0 < ... < c_K = 1 at the distinct thresholds inside
        (0, 1), and the product's degree on each piece [c_{k-1}, c_k]: the
        number of its factors linear there, those with u <= c_{k-1}: a
        running sum of the groups' counts."""
        u, _, _, c = (a[:, 0] for a in self._groups)
        inner = (u > 0.0) & (u < 1.0)
        cuts = np.concatenate(([0.0], u[inner], [1.0]))
        return cuts, (int(c[u == 0.0].sum()), *np.cumsum(c)[inner].tolist())


def _node_blocks(
    cuts: np.ndarray, linear: tuple[int, ...], d: int
) -> Iterator[tuple[np.ndarray, ...]]:
    """Gauss-Legendre nodes for a product of score CDFs between the K + 1
    ascending cuts, linear[k] of the factors linear on piece k, for a caller
    that takes d log-CDFs (one per distinct threshold) at each node.
    Between consecutive thresholds every CDF is a positive constant or
    linear, so the (linear[k] // 2 + 1)-point rule on piece k is exact for
    the product (a piece of zero width adds nothing).  Yields (piece, nodes,
    weights) blocks of at most _BLOCK // d nodes, piece after piece, each
    laid out when it is drawn; piece indexes each node's piece."""
    piece, x, w = _layout(linear)
    lo = cuts[:-1]
    widths = cuts[1:] - lo
    step = max(1, _BLOCK // max(d, 1))
    for i in range(0, piece.size, step):
        k = piece[i : i + step]
        width = widths[k]
        yield k, lo[k] + width * x[i : i + step], width * w[i : i + step]


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
