"""Shared numerical kernels.

Bracketed root finding two ways; there is no quadrature, since every payoff
integrates itself in closed form (`stopping.PayoffSpec`).  `solve_root` is
Brent's method on one scalar root: every threshold the solvers return but
game i's theta_r, and the advantaged reply nested inside epsilon_delta,
takes it, with float-only residuals, since numpy's per-call cost on
one-element arrays would outweigh the few evaluations Brent needs (game i's
theta_r and coalition 12's second-mover reply are lockstep Newton iterations
in `sequential`).  `_bisect_roots` is bisection in lockstep over an array of
brackets, for many independent roots of one elementwise residual at once:
figure 3's curve points.  The two algebras at the end are test references,
neither exported nor on any solver's call path: the exponential polynomials
(sums of c * x**j * exp(k*x), closed under products and antiderivatives, but
with coefficients growing like j! / k**j, so float values drift from about
n = 10 players on) and the monomial-basis piecewise polynomials that
`score.CdfProduct` is checked against at small n.

Everything here is pure and allocation-light; values are immutable and safe
to share across threads.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "NumericsError",
    "BracketError",
    "Bracket",
    "solve_root",
]

_EPS = 2.220446049250313e-16
_BISECT_TOL = 1e-12  # `_bisect_roots`' absolute tolerance


class NumericsError(Exception):
    """Base class for numerical failures raised by this package."""


class BracketError(NumericsError):
    """The supplied interval does not bracket a sign change."""


@dataclass(frozen=True)
class Bracket:
    """A finite interval [lo, hi] expected to bracket a root."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"bracket ends must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise ValueError(f"bracket needs lo < hi, got [{self.lo}, {self.hi}]")


def solve_root(
    f: Callable[[float], float],
    bracket: Bracket | tuple[float, float],
    tol: float = 1e-12,
    *,
    f_ends: tuple[float, float] | None = None,
) -> float:
    """Root of a continuous f inside `bracket`, by Brent's method plus a secant polish.

    Brent's "zeroin" (Algorithms for Minimization without Derivatives, 1973,
    ch. 4) keeps a bracket [b, c] with the best estimate b and takes an
    inverse-quadratic or secant step from b when it falls well inside the
    bracket, a bisection step otherwise, and never a step below the local
    tolerance 2 eps |b| + tol / 2.  f must change sign across the bracket (an
    endpoint evaluating to exactly zero is returned as-is).  The result always
    lies inside the initial bracket and the final bracket width is at most
    `tol` plus 4 eps |b|.  Deterministic.  `f_ends`, when given, holds f at
    the two ends of the bracket, which are then not evaluated again.

    Raises BracketError when there is no sign change and NumericsError when f
    returns a non-finite value.
    """
    if not isinstance(bracket, Bracket):
        bracket = Bracket(*bracket)
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    a, b = bracket.lo, bracket.hi
    fa, fb = (f(a), f(b)) if f_ends is None else f_ends
    for x, v in ((a, fa), (b, fb)):
        if not math.isfinite(v):
            raise NumericsError(f"f({x}) = {v} is not finite")
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise BracketError(
            f"no sign change on [{a}, {b}]: f(lo) = {fa}, f(hi) = {fb}"
        )
    c, fc = a, fa
    d = e = b - a  # last step and the one before it
    while True:
        if (fb < 0.0) == (fc < 0.0):  # the root left [b, c]: a is the other end
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):  # b is the end with the smaller residual
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        m = 0.5 * (c - b)
        if abs(m) <= tol1:
            break
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic through a, b, c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        fb = f(b)
        if not math.isfinite(fb):
            raise NumericsError(f"f({b}) = {fb} is not finite")
        if fb == 0.0:
            return b
    # One secant step across the final bracket sharpens the last few bits.
    x = b - fb * (b - c) / (fb - fc)
    return x if min(b, c) <= x <= max(b, c) else b


def _bisect_roots(f: Callable[[np.ndarray], np.ndarray], lo, hi, f_lo, f_hi) -> np.ndarray:
    """Roots of an elementwise f, one in each bracket [lo, hi], by bisection
    in lockstep.

    lo, hi and the values f_lo, f_hi of f at them broadcast to one shape, and
    f maps an array of points of that shape to its values there, element by
    element.  An end where f is exactly zero is returned as is, as is a
    midpoint where it is; an element whose ends do not change sign (NaN
    among them) gives NaN.  Every other element is halved, its width exactly
    (hi - lo) / 2**k after k steps, until that is at most _BISECT_TOL + 4 eps |x|
    for every x in the bracket (`solve_root`'s final bracket), and then
    takes `solve_root`'s secant step across its final bracket.  So an
    element's result depends only on its own bracket and f there, never on
    the rest of the batch.  Each step evaluates f at every element: at the
    midpoint of a running one, at its lower end once it has finished.

    Raises NumericsError when f returns a non-finite value inside a bracket.
    """
    lo, hi, f_lo, f_hi = (
        np.array(a, dtype=float) for a in np.broadcast_arrays(lo, hi, f_lo, f_hi)
    )
    bracketed = np.sign(f_lo) * np.sign(f_hi) <= 0.0  # False for NaN
    lo_neg = f_lo < 0.0
    root = np.where(f_lo == 0.0, lo, np.where(f_hi == 0.0, hi, np.nan))
    run = bracketed & np.isnan(root)
    width = hi - lo
    with np.errstate(all="ignore"):  # f at finished elements is never read
        # halvings until the width is at most _BISECT_TOL + 4 eps min |x| on [lo, hi]
        floor = _BISECT_TOL + 4.0 * _EPS * np.maximum(0.0, np.maximum(lo, -hi))
        ratio = np.where(run, np.maximum(width / floor, 1.0), 1.0)
        steps = np.ceil(np.log2(ratio)).astype(int)
        steps += run & (np.ldexp(width, -steps) > floor)  # log2's rounding
        # a finished element steps by 0: it stays at lo, where f keeps lo's sign
        step = np.where(run, width, 0.0)
        ends = set(steps[run].tolist())
        for k in range(int(steps.max(initial=0))):
            if k in ends:
                step[steps == k] = 0.0
            step *= 0.5
            mid = lo + step
            f_mid = f(mid)
            if not np.isfinite(f_mid.sum()):
                bad = (step > 0.0) & ~np.isfinite(f_mid)
                if bad.any():
                    raise NumericsError(f"f({mid[bad][0]}) = {f_mid[bad][0]} is not finite")
            zero = f_mid == 0.0
            if np.count_nonzero(zero):
                zero &= step > 0.0
                root[zero], run[zero], step[zero] = mid[zero], False, 0.0
            np.copyto(lo, mid, where=(f_mid < 0.0) == lo_neg)  # the root lies above mid
        # the final bracket [lo, top], and the secant step across it from the
        # end with the smaller residual, b, to the other, c, kept where it
        # lands inside
        top = np.minimum(lo + np.ldexp(width, -steps), hi)
        f_lo, f_top = f(lo), f(top)
        at_lo = ~(abs(f_top) < abs(f_lo))
        b, fb = np.where(at_lo, lo, top), np.where(at_lo, f_lo, f_top)
        c, fc = np.where(at_lo, top, lo), np.where(at_lo, f_top, f_lo)
        x = b - fb * (b - c) / (fb - fc)
    x = np.where((lo <= x) & (x <= top), x, b)
    return np.where(run, x, root)


# ---------------------------------------------------------------------------
# Exponential polynomials
# ---------------------------------------------------------------------------


def _exp_monomial_integral(j: int, k: int, a: float, b: float) -> float:
    """Integral of x**j * exp(k*x) over [a, b] with 0 <= a <= b.

    Expands exp(k*x) into its power series; every term is non-negative, so
    the sum is perfectly conditioned.  Terms decay factorially past m ~ k*b.
    """
    total = 0.0
    coef = 1.0  # k**m / m!
    m = 0
    while True:
        p = j + m + 1
        total += coef * (b**p - a**p) / p
        m += 1
        coef *= k / m
        # past the series peak, stop once the next term bound is negligible
        if m > k * b and coef * b ** (j + m + 1) <= 1e-17 * total:
            return total
        if m > 10_000:  # unreachable for sane exponents; guards infinite loops
            raise NumericsError(f"series for x^{j} e^{k}x did not converge")


# Kept here, though only tests use it, because the benchmark's tracer looks
# the class up in this module by name.
class ExpPoly:
    """Exact finite sum  f(x) = sum c[j,k] * x**j * exp(k*x)  with j, k >= 0.

    The family is a ring (closed under + and *) and closed under
    antidifferentiation, so integrals need no quadrature; float coefficients
    still round, which is why this serves only as a test reference.
    Instances are immutable; arithmetic returns new instances in canonical
    merged-key form with exact zeros dropped.
    """

    __slots__ = ("_terms", "_by_k")

    def __init__(
        self,
        terms: dict[tuple[int, int], float]
        | Iterable[tuple[tuple[int, int], float]]
        | None = None,
    ) -> None:
        merged: dict[tuple[int, int], float] = {}
        items = terms.items() if isinstance(terms, dict) else (terms or ())
        for (j, k), c in items:
            j, k, c = int(j), int(k), float(c)
            if j < 0 or k < 0:
                raise ValueError(f"exponents must be non-negative, got ({j}, {k})")
            if c != 0.0:
                merged[(j, k)] = merged.get((j, k), 0.0) + c
        # canonical key order makes evaluation independent of construction order
        self._terms = {key: c for key, c in sorted(merged.items()) if c != 0.0}
        by_k: dict[int, list[float]] = {}
        for (j, k), c in self._terms.items():
            coeffs = by_k.setdefault(k, [])
            if len(coeffs) <= j:
                coeffs.extend([0.0] * (j + 1 - len(coeffs)))
            coeffs[j] = c
        self._by_k = by_k

    @classmethod
    def constant(cls, c: float) -> "ExpPoly":
        return cls({(0, 0): c})

    @property
    def terms(self) -> dict[tuple[int, int], float]:
        return dict(self._terms)

    def __call__(self, x: float) -> float:
        total = 0.0
        for k, coeffs in self._by_k.items():
            acc = 0.0
            for c in reversed(coeffs):
                acc = acc * x + c
            total += acc if k == 0 else acc * math.exp(k * x)
        return total

    def __add__(self, other: "ExpPoly | float") -> "ExpPoly":
        if isinstance(other, (int, float)):
            other = ExpPoly.constant(float(other))
        if not isinstance(other, ExpPoly):
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0.0) + c
        return ExpPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "ExpPoly":
        return ExpPoly({key: -c for key, c in self._terms.items()})

    def __sub__(self, other: "ExpPoly | float") -> "ExpPoly":
        return self + (-other if isinstance(other, ExpPoly) else -float(other))

    def __rsub__(self, other: float) -> "ExpPoly":
        return (-self) + float(other)

    def __mul__(self, other: "ExpPoly | float") -> "ExpPoly":
        if isinstance(other, (int, float)):
            c = float(other)
            return ExpPoly({key: c * v for key, v in self._terms.items()})
        if not isinstance(other, ExpPoly):
            return NotImplemented
        # gather per-key products and sum them exactly rounded, so the
        # coefficients (and hence evaluations) are operand-order independent
        parts: dict[tuple[int, int], list[float]] = {}
        for (j1, k1), c1 in self._terms.items():
            for (j2, k2), c2 in other._terms.items():
                parts.setdefault((j1 + j2, k1 + k2), []).append(c1 * c2)
        return ExpPoly({key: math.fsum(vals) for key, vals in parts.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ExpPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers are defined")
        out = ExpPoly.constant(1.0)
        for _ in range(n):
            out = out * self
        return out

    def antiderivative(self) -> "ExpPoly":
        """Antiderivative with zero constant of integration.

        Uses integral(x**j * exp(k*x)) = x**j exp(kx)/k - (j/k) * integral of
        x**(j-1) exp(kx) for k != 0, and the power rule for k = 0.
        """
        out: dict[tuple[int, int], float] = {}
        for (j, k), c in self._terms.items():
            if k == 0:
                key = (j + 1, 0)
                out[key] = out.get(key, 0.0) + c / (j + 1)
            else:
                coef = c
                for i in range(j, -1, -1):
                    term = coef / k
                    out[(i, k)] = out.get((i, k), 0.0) + term
                    coef = -term * i
        return ExpPoly(out)

    def integral(self, a: float, b: float) -> float:
        """Exact definite integral over [a, b].

        For 0 <= a <= b each monomial integrates by the everywhere-positive
        series sum_m k**m/m! * (b**p - a**p)/p with p = j + m + 1, which is
        free of the cancellation the antiderivative's closed form suffers
        when j greatly exceeds k (its coefficients reach j!/k**j).  Outside
        that range it falls back to the antiderivative difference.
        """
        if a == b:
            return 0.0
        if b < a:
            return -self.integral(b, a)
        if a < 0.0:
            anti = self.antiderivative()
            return anti(b) - anti(a)
        return math.fsum(
            c * _exp_monomial_integral(j, k, a, b)
            for (j, k), c in self._terms.items()
        )

    def __repr__(self) -> str:
        inner = ", ".join(
            f"({j},{k}): {c:g}" for (j, k), c in sorted(self._terms.items())
        )
        return f"ExpPoly({{{inner}}})"


# ---------------------------------------------------------------------------
# Piecewise polynomials (small-n test reference)
# ---------------------------------------------------------------------------


class PiecewisePoly:
    """Piecewise polynomial: breakpoints and one coefficient tuple (ascending
    powers of the global variable) per segment.

    Products and definite integrals are exact in exact arithmetic, but the
    global monomial basis cancels in floats as the degree grows, so this
    serves only as a small-n reference for the factored kernel.
    """

    __slots__ = ("breakpoints", "coeffs")

    def __init__(
        self,
        breakpoints: Sequence[float],
        coeffs: Sequence[Sequence[float]],
    ) -> None:
        bp = tuple(float(x) for x in breakpoints)
        if len(bp) < 2 or any(b1 <= b0 for b0, b1 in zip(bp, bp[1:])):
            raise ValueError(f"breakpoints must be strictly increasing, got {bp}")
        if len(coeffs) != len(bp) - 1:
            raise ValueError("need exactly one coefficient tuple per segment")
        self.breakpoints = bp
        self.coeffs = tuple(tuple(float(c) for c in cs) or (0.0,) for cs in coeffs)

    def _segment(self, x: float) -> int:
        i = bisect_right(self.breakpoints, x) - 1
        return min(max(i, 0), len(self.coeffs) - 1)

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs[self._segment(x)]):
            acc = acc * x + c
        return acc

    def __mul__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        ends = (self.breakpoints[0], self.breakpoints[-1])
        if ends != (other.breakpoints[0], other.breakpoints[-1]):
            raise ValueError("operands must cover the same interval")
        bp = tuple(sorted(set(self.breakpoints) | set(other.breakpoints)))
        out = []
        for b0, b1 in zip(bp, bp[1:]):
            mid = 0.5 * (b0 + b1)
            c1 = self.coeffs[self._segment(mid)]
            c2 = other.coeffs[other._segment(mid)]
            prod = [0.0] * (len(c1) + len(c2) - 1)
            for i, a in enumerate(c1):
                for j, b in enumerate(c2):
                    prod[i + j] += a * b
            out.append(tuple(prod))
        return PiecewisePoly(bp, out)

    def integral(self, a: float, b: float) -> float:
        """Definite integral over [a, b] (clipped to the covered span)."""
        if b < a:
            return -self.integral(b, a)
        total = 0.0
        for i, (b0, b1) in enumerate(zip(self.breakpoints, self.breakpoints[1:])):
            s0, s1 = max(a, b0), min(b, b1)  # clips to the covered span
            if s1 <= s0:
                continue
            for p, c in enumerate(self.coeffs[i]):
                total += c * (s1 ** (p + 1) - s0 ** (p + 1)) / (p + 1)
        return total
