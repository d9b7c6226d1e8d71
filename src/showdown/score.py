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
from numpy.polynomial.legendre import leggauss

__all__ = [
    "bust_prob",
    "score_cdf",
    "CdfProduct",
    "RandomStream",
    "sample_scores",
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
# Most values CdfProduct.values holds at once: 32 KB, small enough not to
# raise peak RSS (a 120 KB array per call did so by 0.1 MB).
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


@lru_cache(maxsize=None)
def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre rule on [0, 1], exact to degree 2m - 1 and read-only,
    as every caller shares it.  The weights are recomputed from leggauss's nodes: its
    own lose up to 1e-11 of relative accuracy at the outermost nodes by m = 100."""
    x, _ = leggauss(m)
    p_prev, p = np.ones_like(x), x  # P_{k-1}(x), P_k(x) by Legendre's recurrence
    for k in range(2, m + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    q = (1.0 - x) * (1.0 + x)  # w = 2 / ((1 - x^2) P_m'(x)^2), halved for [0, 1]
    nodes, weights = 0.5 * (x + 1.0), q / (m * (p_prev - x * p)) ** 2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


class CdfProduct:
    """x -> scale * prod_j F_{u_j}(x) + shift on [0, 1]: the score CDFs of
    thresholds u_j in factored form, mapped affinely for the zero-sum payoff.
    Calls are plain-Python products and `values` takes an array of points;
    integrals, one interval or every piece at once (`pieces`), sum log-CDFs
    on `_node_blocks`, as `simultaneous.win_probabilities_many` does, and
    are exact up to rounding."""

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

    def __call__(self, x: float) -> float:
        prod = 1.0
        for u, p, e in self._factors:
            prod *= p if x <= u else p + e * (x - u)
        return self.scale * prod + self.shift

    @property
    def all_bust(self) -> float:
        """Probability that every player of the factors busts: the product of
        their bust probabilities, in factor order."""
        return math.prod(p for _, p, _ in self._factors)

    def values(self, xs: np.ndarray) -> np.ndarray:
        """The form at every point of the 1-D array xs, taking the factors in
        blocks of at most _SMALL_BLOCK values."""
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

    def integral(self, a: float, b: float) -> float:
        """Definite integral over [a, b], both inside [0, 1]."""
        if b < a:
            return -self.integral(b, a)
        total = sum(float(np.exp(logs.sum(axis=0)) @ w) for *_, w, logs in self._log_nodes(a, b))
        return self.scale * total + self.shift * (b - a)

    def _cuts(self, a: float, b: float) -> np.ndarray:
        """a, the distinct thresholds strictly inside (a, b), and b, ascending."""
        return np.array(sorted({a, b, *(t for t, _, _ in self._factors if a < t < b)}))

    def pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """Cuts 0 = c_0 < ... < c_K = 1 at the thresholds inside (0, 1), and
        the integral over each piece [c_{k-1}, c_k], summed node by node
        into the piece each node lies on in one pass over `_log_nodes(0, 1)`."""
        cuts = self._cuts(0.0, 1.0)
        sums = np.zeros(cuts.size - 1)
        for piece, _, w, logs in self._log_nodes(0.0, 1.0):
            sums += np.bincount(piece, np.exp(logs.sum(axis=0)) * w, minlength=sums.size)
        return cuts, self.scale * sums + self.shift * np.diff(cuts)

    def _log_nodes(self, a: float, b: float) -> Iterator[tuple[np.ndarray, ...]]:
        """The `_node_blocks` of [a, b] (a <= b), cut at the thresholds inside
        it, with logs[j, t] = log F_{u_j}(nodes[t]) (floored by `_log_cdf`):
        summed over blocks, exp(logs.sum(0)) @ weights integrates the product
        before scale and shift, and less row j it leaves factor j out."""
        u, p, e = self._columns
        for piece, s, w in _node_blocks(self._cuts(a, b), len(u)):
            yield piece, s, w, _log_cdf(s, u, p, e)


def _node_blocks(cuts: np.ndarray, n: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Gauss-Legendre rule for a product of n score CDFs between ascending
    cuts: one row of K + 1 cuts, or an (r, K + 1) array, a profile a row.
    Between consecutive thresholds every CDF is a positive constant or
    linear, so the (n // 2 + 1)-point rule on each piece is exact for the
    product (a piece of zero width adds nothing).  Yields (piece, nodes,
    weights) blocks of at most _BLOCK // n nodes a row, piece after piece,
    each laid out when it is drawn; piece indexes each node's piece."""
    x, w = _gauss_legendre(n // 2 + 1)
    m, shape = x.size, (*cuts.shape[:-1], -1)
    lo = cuts[..., :-1, None]
    widths = cuts[..., 1:, None] - lo
    size = widths.shape[-2] * m
    step = max(1, _BLOCK // max(n, 1))
    for i in range(0, size, step):
        j = min(i + step, size)
        a, b = i // m, (j - 1) // m + 1  # the pieces that nodes i to j - 1 lie on
        span, width = slice(i - a * m, j - a * m), widths[..., a:b, :]
        nodes = (lo[..., a:b, :] + width * x).reshape(shape)[..., span]
        yield np.arange(a, b).repeat(m)[span], nodes, (width * w).reshape(shape)[..., span]


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


def sample_scores(tau: float | np.ndarray, size: int, rng: RandomStream) -> np.ndarray:
    """Vector of `size` final scores; tau may be a scalar or a per-sample array.

    Each score accumulates draws until it reaches its threshold and busts to 0
    past 1; the draws are batched per round, one for every unfinished score.
    """
    tau_arr = np.asarray(tau, dtype=np.float64)
    scalar = tau_arr.ndim == 0
    if not scalar:
        tau_arr = np.broadcast_to(tau_arr, (size,))
    if size and (tau_arr.min() < 0.0 or tau_arr.max() > 1.0):
        raise ValueError("thresholds must lie in [0, 1]")
    # a scalar tau compares as a float: indexing a broadcast view would
    # gather a copy of it every round
    return _Sampler(size).fill(float(tau_arr) if scalar else tau_arr, np.empty(size), rng)

