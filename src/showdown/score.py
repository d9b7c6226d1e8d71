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
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .stopping import PayoffSpec

__all__ = [
    "bust_prob",
    "score_cdf",
    "CdfProduct",
    "RandomStream",
    "sample_score",
    "sample_scores",
    "expect",
    "expect_conditional",
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


# Most log-CDF values that CdfProduct.log_nodes, and
# simultaneous.win_probabilities_many, hold at once.
_BLOCK = 1 << 15
# Most values CdfProduct.values holds at once: 32 KB, small enough not to
# raise peak RSS (a 120 KB array per call did so by 0.1 MB).
_SMALL_BLOCK = 1 << 12
_TINY = np.finfo(float).tiny


def _log_cdf(s: np.ndarray, u: np.ndarray, p: np.ndarray, e: np.ndarray) -> np.ndarray:
    """log F_u(s), broadcast over s and the thresholds u with their bust
    probabilities p and e**u; values that round to 0 are floored at the
    smallest normal float."""
    return np.log(np.maximum(p + e * np.maximum(s - u, 0.0), _TINY))


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
    integrals, one interval or every piece at once (`pieces`), use the
    Gauss-Legendre nodes of `log_nodes` and are exact up to rounding."""

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
        total = sum(float(np.exp(logs.sum(axis=0)) @ w) for _, w, logs in self.log_nodes(a, b))
        return self.scale * total + self.shift * (b - a)

    def _cuts(self, a: float, b: float) -> np.ndarray:
        """a, the distinct thresholds strictly inside (a, b), and b, ascending."""
        return np.array(sorted({a, b, *(t for t, _, _ in self._factors if a < t < b)}))

    def pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """Cuts 0 = c_0 < ... < c_K = 1 at the thresholds inside (0, 1), and
        the integral over each piece [c_{k-1}, c_k]: one pass over the blocks
        of `log_nodes(0, 1)`, whose nodes come piece by piece, n // 2 + 1 to
        a piece."""
        cuts = self._cuts(0.0, 1.0)
        per_piece = len(self._factors) // 2 + 1
        sums = np.zeros(cuts.size - 1)
        start = 0
        for s, w, logs in self.log_nodes(0.0, 1.0):
            piece = np.arange(start, start + s.size) // per_piece
            sums += np.bincount(piece, np.exp(logs.sum(axis=0)) * w, minlength=sums.size)
            start += s.size
        return cuts, self.scale * sums + self.shift * np.diff(cuts)

    def log_nodes(
        self, a: float, b: float
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Gauss-Legendre nodes on [a, b] (a <= b) and the log of each factor there.

        [a, b] is cut at the thresholds inside it.  On each piece every CDF
        is a positive constant or linear in s, so the (n // 2 + 1)-point rule
        on each piece is exact for the product of all n factors.  Yields
        blocks (nodes, weights, logs), logs[j, t] = log F_{u_j}(nodes[t]), of
        at most _BLOCK values: summed over the blocks, exp(logs.sum(0)) @
        weights integrates the product (before scale and shift), and
        subtracting row j before the exp leaves factor j out.  Factors that
        round to 0 are floored at the smallest normal float.
        """
        u, p, e = self._columns
        cuts = self._cuts(a, b)[:, None]
        widths = cuts[1:] - cuts[:-1]
        x, w = _gauss_legendre(len(u) // 2 + 1)
        nodes = (cuts[:-1] + widths * x).ravel()
        weights = (widths * w).ravel()
        step = max(1, _BLOCK // max(len(u), 1))
        for i in range(0, nodes.size, step):
            s = nodes[i : i + step]
            yield s, weights[i : i + step], _log_cdf(s, u, p, e)


class RandomStream:
    """Counter-based random stream keyed by (seed, stream_id).

    Identical keys reproduce the identical draw sequence; distinct stream ids
    give statistically independent streams, so chunked simulations are
    reproducible regardless of scheduling.  Single-owner mutable state: hand a
    stream to one consumer at a time.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        if seed < 0 or stream_id < 0:
            raise ValueError("seed and stream_id must be non-negative")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self) -> float:
        """One uniform [0, 1) draw."""
        return float(self._gen.random())

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform [0, 1) draws as a float64 array."""
        return self._gen.random(n)

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"


def sample_score(tau: float, rng: RandomStream) -> float:
    """One final score: accumulate draws until reaching tau, bust past 1 to 0."""
    tau = _check_threshold(tau)
    s = rng.uniform()
    while s < tau:
        s += rng.uniform()
    return 0.0 if s > 1.0 else s


def sample_scores(tau: float | np.ndarray, size: int, rng: RandomStream) -> np.ndarray:
    """Vector of `size` final scores; tau may be a scalar or a per-sample array.

    Follows the same accumulate-until-threshold process as sample_score, with
    the draws batched per round for speed.
    """
    tau_arr = np.asarray(tau, dtype=np.float64)
    scalar = tau_arr.ndim == 0
    if not scalar:
        tau_arr = np.broadcast_to(tau_arr, (size,))
    if size and (tau_arr.min() < 0.0 or tau_arr.max() > 1.0):
        raise ValueError("thresholds must lie in [0, 1]")
    # a scalar tau compares as a float: indexing a broadcast view would
    # gather a copy of it every round
    limit = float(tau_arr) if scalar else tau_arr
    s = rng.uniforms(size)
    active = np.nonzero(s < limit)[0]
    while active.size:
        sums = s.take(active)
        sums += rng.uniforms(active.size)
        s.put(active, sums)
        active = active[sums < (limit if scalar else limit.take(active))]
    s[s > 1.0] = 0.0
    return s


def expect(spec: PayoffSpec, tau: float, tol: float = 1e-12) -> float:
    """E[h(score)] under threshold tau:  bust_prob(tau) * h(0) + e**tau * integral of h over [tau, 1]."""
    tau = _check_threshold(tau)
    return bust_prob(tau) * spec.h0 + math.exp(tau) * spec.integral(tau, 1.0, tol)


def expect_conditional(spec: PayoffSpec, tau: float, tol: float = 1e-12) -> float:
    """E[h(score) | score > 0] under threshold tau: the mean of h on the uniform part."""
    tau = _check_threshold(tau)
    if tau >= 1.0:
        raise ValueError("conditional expectation needs tau < 1 (no positive mass at tau = 1)")
    return spec.integral(tau, 1.0, tol) / (1.0 - tau)
