"""Single-player optimal-stopping kernel.

A player repeatedly adds uniform [0, 1] draws to a running score, busting to
score 0 on passing 1, and receives payoff h(score) on stopping.  For any
non-decreasing payoff the optimal policy is a threshold rule: spin below
kappa, stop above.  This module computes the threshold and the optimal
expected payoff, both in terms of the transformed payoff

    h_tilde(x) = h(0) * x + integral of h over [x, 1],

which is the expected payoff of exactly one more spin from score x.

The threshold is the sign change of the non-decreasing residual
D(x) = h(x) - h_tilde(x).  A payoff gives only its values at an array of
points and its pieces, the cuts between which it is a polynomial of a
stated degree (`_ClosedForm`); this module does all the integrating, on
the Gauss-Legendre rule exact for each piece (`score._node_blocks`).  One
call gives h at every cut and node, the piece integrals give D at every
cut, and the first cut with D >= 0 brackets the root on the piece below
it, which `solve_root` finishes to 1e-12.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from . import score
from .numerics import Bracket, solve_root

__all__ = [
    "PayoffSpec",
    "StoppingSolution",
    "optimal_threshold",
    "expected_payoff",
]

_MONOTONE_GRID = np.arange(1, 257) / 256.0  # exact binary fractions i / 256
_MONOTONE_SLACK = 1e-9


class _ClosedForm(Protocol):
    """A payoff that the kernel integrates exactly, piece by piece: a
    product of score CDFs (`score.CdfProduct`), or an analytic payoff
    (`sequential._Analytic`).  `values(xs)` evaluates it at a 1-D array of
    points.  `pieces()` returns its cuts 0 = c_0 < ... < c_K = 1 and, on each
    piece [c_{k-1}, c_k], its degree there as a polynomial, or the degree
    that integrates an analytic piece to rounding: the kernel lays the
    (degree // 2 + 1)-point Gauss-Legendre rule on the piece.
    """

    def values(self, xs: np.ndarray) -> np.ndarray: ...

    def pieces(self) -> tuple[Sequence[float], Sequence[int]]: ...


_PROTOCOL = ("values", "pieces")


@dataclass(frozen=True)
class PayoffSpec:
    """A non-decreasing payoff h on [0, 1] with an explicit bust value.

    `h` is the payoff for positive scores, a `_ClosedForm`; at 0 it should
    return the right-limit (its value there never enters an integral).
    `h0` is the payoff on busting, which may sit strictly below the
    right-limit of h -- several game constructions need a distinguished
    bust value.  Raises TypeError, naming what is missing, when h lacks a
    method of the protocol.
    """

    h: _ClosedForm
    h0: float

    def __post_init__(self) -> None:
        missing = [name for name in _PROTOCOL if not hasattr(self.h, name)]
        if missing:
            raise TypeError(
                f"PayoffSpec.h must provide {', '.join(_PROTOCOL)}; "
                f"{self.h!r} lacks {', '.join(missing)}"
            )


@dataclass(frozen=True)
class StoppingSolution:
    """Optimal threshold, its one-spin value, and the policy's expected payoff."""

    kappa: float
    expected_payoff: float
    h_tilde_at_kappa: float


def _check_monotone(spec: PayoffSpec, hs: np.ndarray) -> None:
    """Spot-check that h is non-decreasing and dominates h0 from its values
    hs on a 256-point grid."""
    drops = np.flatnonzero(hs[1:] < hs[:-1] - _MONOTONE_SLACK)
    if drops.size:
        i, xs, vs = int(drops[0]) + 1, _MONOTONE_GRID.tolist(), hs.tolist()
        raise ValueError(
            f"payoff is not non-decreasing: h({xs[i]}) = {vs[i]} < h({xs[i - 1]}) = {vs[i - 1]}"
        )
    lo = float(hs.min())
    if spec.h0 > lo + _MONOTONE_SLACK:
        raise ValueError(f"bust payoff h0 = {spec.h0} exceeds h on (0, 1] (min {lo})")


def _pieces(h: _ClosedForm, lo: float = 0.0) -> tuple[np.ndarray, tuple[int, ...]]:
    """The cuts of [lo, 1], lo and then h's cuts above it, and h's integer
    degree on each piece between them (a piece cut at lo keeps its degree)."""
    cuts, degrees = h.pieces()
    cuts = np.asarray(cuts, dtype=float)[1:]
    keep = cuts > lo
    degrees = tuple(map(operator.index, np.compress(keep, degrees)))  # floats raise TypeError
    return np.concatenate(([lo], cuts[keep])), degrees


def _integrals(
    h: _ClosedForm, cuts: np.ndarray, degrees: tuple[int, ...], head=()
) -> tuple[np.ndarray | None, np.ndarray]:
    """h at the points `head` (None with no pieces), and the integral of h
    over each piece between `cuts`, of the given degrees: `values` takes
    the nodes of `score._node_blocks` a block at a time, the first block
    with `head`, and each node's value times its weight goes to its piece."""
    sums, at_head = np.zeros(len(degrees)), None
    for piece, s, w in score._node_blocks(cuts, degrees, 1):
        hs = h.values(s if at_head is not None else np.concatenate((head, s)))
        if at_head is None:
            at_head, hs = hs[: len(head)], hs[len(head) :]
        sums += np.bincount(piece, hs * w, minlength=sums.size)
    return at_head, sums


def optimal_threshold(spec: PayoffSpec) -> float:
    """The optimal stopping threshold kappa = inf{x : h(x) >= h_tilde(x)}.

    The residual D(x) = h(x) - h_tilde(x), with right-limits of h and h0 at
    x = 0, has derivative h' + h - h0 >= 0, so it is non-decreasing.  One
    `values` call gives h on the monotone check's grid, at the cuts and at
    every node; D at cut c_k is h(c_k) - h0 c_k less the piece integrals
    above c_k.  `solve_root` locates the sign change on the piece below the
    first cut where D >= 0 to within 1e-12, each evaluation one `values`
    call at x and at the piece's rule on [x, c_k]; that also handles
    discontinuous payoffs.  For continuous non-constant h this is the unique
    root of h(x) = h_tilde(x).
    """
    cuts, degrees = _pieces(spec.h)
    hs, sums = _integrals(spec.h, cuts, degrees, np.concatenate((_MONOTONE_GRID, cuts)))
    _check_monotone(spec, hs[: _MONOTONE_GRID.size])
    hs = hs[_MONOTONE_GRID.size :]
    hs[0] = spec.h0  # D takes the bust value at 0, not the right-limit of h
    # above[k]: the integral of h over [cuts[k], 1], summed from the top down
    above = np.append(np.cumsum(sums[::-1])[::-1], 0.0)
    d = hs - (spec.h0 * cuts + above)
    hi = int(np.argmax(d >= 0.0))
    if d[hi] < 0.0:
        # h(1) >= h0 guarantees D(1) >= 0 up to rounding; treat as boundary.
        return 1.0
    if hi == 0:
        return 0.0
    lo, top, tail = float(cuts[hi - 1]), float(cuts[hi]), float(above[hi])
    nodes, weights = score._gauss_legendre(degrees[hi - 1] // 2 + 1)

    def residual(x: float) -> float:
        width = top - x
        hs = spec.h.values(np.concatenate(([x], x + width * nodes)))
        return float(hs[0]) - (spec.h0 * x + (float(hs[1:] @ (width * weights)) + tail))

    return solve_root(residual, Bracket(lo, top), f_ends=(float(d[hi - 1]), float(d[hi])))


def expected_payoff(spec: PayoffSpec) -> StoppingSolution:
    """Optimal threshold and expected payoff of the threshold policy.

    The payoff of playing from score 0 under the optimal rule is
    (h_tilde(kappa) - h(0)) * e**kappa + h(0), with the integral of h over
    [kappa, 1] taken on the pieces above kappa, the one holding it cut there.
    """
    kappa = optimal_threshold(spec)
    ht = spec.h0 * kappa + float(_integrals(spec.h, *_pieces(spec.h, kappa))[1].sum())
    value = (ht - spec.h0) * math.exp(kappa) + spec.h0
    return StoppingSolution(kappa=kappa, expected_payoff=value, h_tilde_at_kappa=ht)
