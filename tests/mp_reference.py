"""50-digit reference for game i: theta_r (r <= 20) and the table of win
probabilities (n <= 10), from the closed forms of the win functions.

Every win function is an exponential polynomial sum c[j, k] x**j e**(k x),
kept here as a dict {(j, k): mpf}.  The recursion

    W(r, 1) = e**x * integral of p**(r-1) over [x, 1]
    W(r, m) = p W(r-1, m-1) + e**x * integral of W(r-1, m-1) over [x, 1]

with p(x) = 1 + e**x (x - 1) only multiplies and integrates, so it stays in
that family.  Its coefficients grow like j! / k**j, which float arithmetic
cannot carry past n = 10 or so; 50 digits carry it with room to spare.
"""

from functools import lru_cache

import mpmath

mp = mpmath.mp.clone()
mp.dps = 50

BUST = {(0, 0): mp.mpf(1), (0, 1): mp.mpf(-1), (1, 1): mp.mpf(1)}
EXP = {(0, 1): mp.mpf(1)}


def _mul(a, b):
    out = {}
    for (j1, k1), c1 in a.items():
        for (j2, k2), c2 in b.items():
            key = (j1 + j2, k1 + k2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _add(a, b):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    return out


def _antiderivative(a):
    """integral of x**j e**(k x) = x**j e**(k x) / k - (j / k) integral of x**(j-1) e**(k x)."""
    out = {}
    for (j, k), c in a.items():
        if k == 0:
            out[(j + 1, 0)] = out.get((j + 1, 0), 0) + c / (j + 1)
            continue
        coef = c
        for i in range(j, -1, -1):
            term = coef / k
            out[(i, k)] = out.get((i, k), 0) + term
            coef = -term * i
    return out


def evaluate(a, x):
    x = mp.mpf(x)
    return mp.fsum(c * x**j * mp.exp(k * x) for (j, k), c in a.items())


def tail(a):
    """x -> integral of a over [x, 1], as an exponential polynomial."""
    anti = _antiderivative(a)
    return _add({(0, 0): evaluate(anti, 1)}, {key: -c for key, c in anti.items()})


@lru_cache(maxsize=None)
def bust_pow(r):
    return {(0, 0): mp.mpf(1)} if r == 0 else _mul(bust_pow(r - 1), BUST)


@lru_cache(maxsize=None)
def win_function(r, m):
    """W(r, m): the m-th of r remaining players' win probability given best score x."""
    if m == 1:
        return _mul(EXP, tail(bust_pow(r - 1)))
    prev = win_function(r - 1, m - 1)
    return _add(_mul(BUST, prev), _mul(EXP, tail(prev)))


@lru_cache(maxsize=None)
def _theta_equation(r):
    return _add(bust_pow(r - 1), {key: -c for key, c in tail(bust_pow(r - 1)).items()})


def theta_residual(r, x):
    """p(x)**(r-1) minus the integral of p**(r-1) over [x, 1]."""
    return evaluate(_theta_equation(r), x)


@lru_cache(maxsize=None)
def theta(r):
    """Root of theta_residual(r, .) on [theta(r - 1), 1], as an mpf."""
    if r == 1:
        return mp.mpf(0)
    return mp.findroot(lambda x: theta_residual(r, x), (theta(r - 1), mp.mpf(1)), solver="anderson")


@lru_cache(maxsize=None)
def win_row(n):
    """Seat m's win probability in the n-player game, m = 1..n, as mpfs."""
    if n == 1:
        return (mp.mpf(1),)
    th = theta(n)
    p_th, e_th = evaluate(BUST, th), mp.exp(th)
    prev = win_row(n - 1)
    row = [e_th * p_th ** (n - 1)]
    for m in range(2, n + 1):
        row.append(p_th * prev[m - 2] + e_th * evaluate(tail(win_function(n - 1, m - 1)), th))
    return tuple(row)
