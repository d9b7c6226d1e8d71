#!/usr/bin/env python3
"""Monte Carlo cross-check of every analytic equilibrium: seeded million-game
runs for the sequential game and all three no-information variants, printed
with z-scores against the solver values."""

import argparse
import sys
import time

from showdown.cli import main as cli_main


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    configs = [("i", n) for n in (2, 3, 5)]
    configs += [(g, n) for g in ("ii.1", "ii.2", "ii.3") for n in (2, 3)]
    t0 = time.perf_counter()
    for game, n in configs:
        print(f"== game {game}, n = {n}, {args.trials} trials ==")
        code = cli_main(
            [
                "simulate",
                "--game",
                game,
                "--n",
                str(n),
                "--trials",
                str(args.trials),
                "--seed",
                str(args.seed),
            ]
        )
        if code != 0:
            return code
        print()
    print(f"{len(configs)} configurations in {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(run())
