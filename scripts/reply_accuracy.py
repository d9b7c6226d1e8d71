#!/usr/bin/env python3
"""Distance of each no-information best response to equilibrium rivals from
its 40-digit root, in ulps: ii.1, ii.2 and ii.3 at n = 20, 30, ..., 100,
150 and 200, seats 1 and n.  Such a reply sits on the rivals' cut, where
the residual D rises with slope p**(n - 1) only, so rounding in the payoff
moves it by several ulps; run this on two checkouts to compare their
accuracy there.  Needs mpmath."""

import argparse
import math
import sys

import mpmath as mp

from showdown import simultaneous as sim


def exact_reply(game, n, seat, rivals, reply):
    """The root of D(x) = h(x) - h0 x - integral of h over [x, 1] for the
    seat's stopping payoff h against the float rivals, at 40 digits, by
    bisection of [reply - 1e-12, reply + 1e-12] to 1e-30."""
    with mp.workdps(40):
        counts = {u: rivals.count(u) for u in set(rivals)}
        growth = {u: mp.exp(u) for u in counts}
        bust = {u: 1 + growth[u] * (u - 1) for u in counts}
        prod_bust = mp.fprod(bust[u] ** c for u, c in counts.items())
        if game == "ii.2":
            scale, shift, h0 = mp.mpf(n) / (n - 1), -mp.mpf(1) / (n - 1), -(1 - prod_bust) / (n - 1)
        else:
            scale, shift = 1, 0
            h0 = prod_bust if game == "ii.3" and seat == n else 0

        def h(x):
            cdfs = ((bust[u] + growth[u] * max(x - u, 0)) ** c for u, c in counts.items())
            return scale * mp.fprod(cdfs) + shift

        cuts = sorted(mp.mpf(u) for u in counts if 0 < u < 1)

        def residual(x):
            return h(x) - h0 * x - mp.quad(h, [x, *(c for c in cuts if c > x), mp.mpf(1)])

        lo, hi = mp.mpf(reply) - 1e-12, mp.mpf(reply) + 1e-12
        if not residual(lo) < 0 <= residual(hi):
            raise ValueError(f"{game} n = {n} seat {seat}: no sign change within 1e-12 of {reply}")
        while hi - lo > 1e-30:
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if residual(mid) >= 0 else (mid, hi)
        return hi


def run(argv=None):
    argparse.ArgumentParser(description=__doc__).parse_args(argv)

    errors = []
    for game in ("ii.1", "ii.2", "ii.3"):
        for n in (*range(20, 101, 10), 150, 200):
            thresholds = list(sim.equilibrium(game, n).thresholds)
            for seat in (1, n):
                rivals = thresholds[: seat - 1] + thresholds[seat:]
                reply = sim.best_response(game, seat - 1, rivals)
                ulps = float((reply - exact_reply(game, n, seat, rivals, reply)) / math.ulp(reply))
                errors.append(abs(ulps))
                print(f"{game} n = {n} seat {seat}: {reply!r} {ulps:+.1f} ulps")
    print(f"{len(errors)} replies: mean {sum(errors) / len(errors):.2f}, max {max(errors):.1f} ulps")
    return 0


if __name__ == "__main__":
    sys.exit(run())
