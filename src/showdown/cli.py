"""Command-line surface.

Subcommands:

  table          reproduce a published results table (1, 2, 4, or 5)
  equilibrium    thresholds and win/tie probabilities for one game
  simulate       Monte Carlo run with analytic values and z-scores alongside
  best-response  optimal threshold against fixed rival thresholds
  coalition      three-player coalition analysis (pair 12 or 13)
  figure         CSV data grids for the three figures
  advise         interactive stop/spin advisor for a live sequential game

Formats: `table` prints 4-decimal fixed columns, `csv` a 6-decimal
comma-separated grid, `json` full-precision doubles.  Exit codes: 0 success
(also when the reader of the output closes it early), 2 usage error or a
request for more memory than can be allocated, 3 numerical failure or a
`figure --out` file that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import sequential as seq
from . import simultaneous as sim
from .numerics import NumericsError
from .score import bust_prob
from .simulator import SimConfig, StrategyProfile, run

GAMES = ("i", "ii.1", "ii.2", "ii.3")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

# rows rendered at a time: one block's byte matrices and int64 digit
# temporaries take a few MB, small beside figure 2's text at large grids
_BLOCK_ROWS = 1 << 16


def _scaled_units(values: np.ndarray, decimals: int) -> tuple[np.ndarray, np.ndarray]:
    """|values| * 10**decimals rounded to integers (int64), and where that
    is the correctly rounded value that `"%.*f"` prints.  The product is
    rounded once, so its nearest integer can differ from the exact value's
    only if a half-integer lies within one spacing of it; those cells, the
    non-finite ones and those of 2**52 or more are left to `%`."""
    with np.errstate(invalid="ignore", over="ignore"):
        scaled = np.abs(values) * 10.0**decimals
        exact = (scaled < 2.0**52) & (
            np.abs(scaled - np.floor(scaled) - 0.5) > np.spacing(scaled)
        )
        units = np.where(exact, np.rint(scaled), 0.0).astype(np.int64)
    return units, exact


def _fixed_bytes(values: np.ndarray, decimals: int) -> np.ndarray:
    """`"%.*f" % (decimals, v)` of each float64 v as an (m, w) uint8 matrix
    padded with NULs: a sign column, the integer digits, the point and the
    fraction digits, each column of digits written for all cells at once.
    The cells `_scaled_units` leaves to `%` go through the list rule."""
    units, exact = _scaled_units(values, decimals)
    (spill,) = np.nonzero(~exact)
    spilled = _cell_bytes(values[spill].tolist(), decimals)
    digits = max(len(str(units.max(initial=0))) - decimals, 1)
    text = np.zeros((len(values), max(digits + decimals + 2, spilled.shape[1])), np.uint8)
    text[np.signbit(values), 0] = ord("-")
    text[:, digits + 1] = ord(".")
    # right to left: the fraction digits, then the integer digits, whose
    # leading zeros (all but the units digit) stay NUL
    places = [*range(digits + decimals + 1, digits + 1, -1), *range(digits, 0, -1)]
    for k, place in enumerate(places):
        rest = units // 10
        text[:, place] = units - 10 * rest + ord("0")
        if k > decimals:
            text[units == 0, place] = 0
        units = rest
    text[spill] = 0
    text[spill, : spilled.shape[1]] = spilled
    return text


def _cell_bytes(column, decimals: int) -> np.ndarray:
    """One column's cells as an (m, w) uint8 matrix padded with NULs: floats
    (numpy's too) to `decimals` fixed places, None to an empty cell,
    anything else through str."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return _fixed_bytes(column, decimals)
    fixed = "%%.%df" % decimals
    text = np.array(
        [(fixed % v if isinstance(v, float) else "" if v is None else str(v)).encode() for v in column],
        dtype="S",
    )
    return text.view(np.uint8).reshape(len(text), text.dtype.itemsize)


def _lines(columns: Sequence[np.ndarray], sep: str = ",") -> str:
    """The rows of NUL-padded cell matrices, cells joined by `sep` and each
    row ended by LF, the NULs dropped, decoded once."""
    rows = len(columns[0])
    sep_column = np.full((rows, 1), ord(sep), np.uint8)
    parts = [part for column in columns for part in (column, sep_column)]
    parts[-1] = np.full((rows, 1), ord("\n"), np.uint8)
    return np.concatenate(parts, axis=1).tobytes().translate(None, b"\0").decode()


def render_csv(headers: Sequence[str], columns: Sequence[Sequence]) -> str:
    """Comma-separated grid: header row, LF endings, fixed 6-decimal floats.

    `columns` holds one column per header, all of one length: a float64
    array, or any sequence of floats, None, ints and strings.  Every cell
    reads as `"%.6f" % v` would print it (-0.0 as -0.000000, nan as nan),
    but an array's cells are written as digits into one byte matrix for the
    whole column, not formatted one value at a time.  The rows are rendered
    in blocks of `_BLOCK_ROWS`, so the matrices stay small beside the text."""
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    blocks = [
        _lines([_cell_bytes(column[start : start + _BLOCK_ROWS], 6) for column in columns])
        for start in range(0, max(lengths, default=0), _BLOCK_ROWS)
    ]
    return "".join([",".join(headers), "\n", *blocks])


def render_table(headers: Sequence[str], columns: Sequence[Sequence]) -> str:
    """Fixed-width text table with 4-decimal floats; `columns` as in
    `render_csv`."""
    text = [
        [h, *_lines([_cell_bytes(column, 4)]).split("\n")[:-1]]
        for h, column in zip(headers, columns, strict=True)
    ]
    widths = [max(map(len, col)) for col in text]
    justified = [[c.rjust(w) for c in col] for col, w in zip(text, widths)]
    return "\n".join(map("  ".join, zip(*justified, strict=True))) + "\n"


def _emit(args, headers, rows, json_obj) -> None:
    if args.format == "json":
        print(json.dumps(json_obj))
        return
    columns = list(zip(*rows, strict=True))
    render = render_csv if args.format == "csv" else render_table
    sys.stdout.write(render(headers, columns))


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def _records_rows(headers: Sequence[str], records: Sequence[dict]) -> list[list]:
    """Text/CSV rows of JSON records: each record's values under `headers`."""
    return [[rec[h] for h in headers] for rec in records]


def _table_record(table_id: int, n: int) -> dict:
    """Row n of table 2, 4 or 5 as its JSON record, keyed by column."""
    if table_id == 2:
        eq = sim.equilibrium(sim.Variant.EXTERNAL, n)
        return {"n": n, "alpha": eq.thresholds[0], "win_prob": eq.win_probs[0]}
    if table_id == 4:
        eq = sim.equilibrium(sim.Variant.ZERO_SUM, n)
        return {
            "n": n,
            "gamma": eq.thresholds[0],
            "tie_prob": eq.tie_prob,
            "win_prob": eq.win_probs[0],
        }
    eq = sim.equilibrium(sim.Variant.ADVANTAGED, n)
    return {
        "n": n,
        "epsilon": eq.thresholds[0],
        "delta": eq.thresholds[-1],
        "p_advantaged": eq.win_probs[-1],
        "p_normal": eq.win_probs[0],
    }


def _table_rows(table_id: int):
    ns = list(range(2, 11))
    if table_id == 1:
        headers = ["n", "theta"] + [f"P{m}" for m in range(1, 11)]
        rows = []
        json_rows = []
        for n in ns:
            eq = seq.win_matrix(n)
            pad = [None] * (10 - n)
            rows.append([n, eq.thetas[-1], *eq.win_probs, *pad])
            json_rows.append(
                {"n": n, "theta": eq.thetas[-1], "win_probs": list(eq.win_probs)}
            )
        return headers, rows, {"table": 1, "rows": json_rows}
    records = [_table_record(table_id, n) for n in ns]
    headers = list(records[0])
    return headers, _records_rows(headers, records), {"table": table_id, "rows": records}


def cmd_table(args) -> int:
    if args.id == 3:
        print(
            "table 3 is out of scope: its values are quoted from prior work "
            "(drawless variant), not computed here",
            file=sys.stderr,
        )
        return 2
    headers, rows, json_obj = _table_rows(args.id)
    _emit(args, headers, rows, json_obj)
    return 0


# ---------------------------------------------------------------------------
# equilibrium
# ---------------------------------------------------------------------------


def _seq_equilibrium_payload(n: int):
    eq = seq.win_matrix(n)
    return {
        "game": "i",
        "n": n,
        "thresholds": list(eq.thetas),
        "win_probs": list(eq.win_probs),
        "tie_prob": 0.0,
        "payoffs": list(eq.win_probs),
        "residuals": list(eq.residuals),
    }


def _sim_equilibrium_payload(game: str, n: int):
    variant = sim.Variant(game)
    eq = sim.equilibrium(variant, n)
    out = {
        "game": game,
        "n": n,
        "thresholds": list(eq.thresholds),
        "win_probs": list(eq.win_probs),
        "tie_prob": eq.tie_prob,
        "payoffs": list(eq.payoffs),
        "residuals": list(eq.residuals),
    }
    if variant is sim.Variant.EXTERNAL:
        out["alpha"] = eq.thresholds[0]
    elif variant is sim.Variant.ZERO_SUM:
        out["gamma"] = eq.thresholds[0]
    else:
        out.update(
            {
                "epsilon": eq.thresholds[0],
                "delta": eq.thresholds[-1],
                "p_adv": eq.win_probs[-1],
                "p_normal": eq.win_probs[0],
            }
        )
    return out


def cmd_equilibrium(args) -> int:
    n = args.n
    if args.game == "i":
        payload = _seq_equilibrium_payload(n)
        # the JSON thresholds list is indexed by players remaining; seat i's
        # baseline cutoff (nobody ahead holds a positive score) reverses it
        seat_thresholds = list(reversed(payload["thresholds"]))
    else:
        payload = _sim_equilibrium_payload(args.game, n)
        seat_thresholds = payload["thresholds"]
    headers = ["player", "threshold", "win_prob", "payoff"]
    rows = [
        [i + 1, seat_thresholds[i], payload["win_probs"][i], payload["payoffs"][i]]
        for i in range(n)
    ]
    if payload["tie_prob"] is not None:
        rows.append(["tie", None, payload["tie_prob"], None])
    _emit(args, headers, rows, payload)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _parse_thresholds(text: str, n: int) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"malformed thresholds {text!r}: {exc}") from None
    if len(values) != n:
        raise ValueError(f"expected {n} thresholds, got {len(values)}")
    return values


def _simulation_setup(args):
    """Profile, variant, mode, and analytic (win_probs, tie) for a simulate call."""
    n = args.n
    if args.game == "i":
        mode = "sequential"
        variant = sim.Variant.EXTERNAL
        if args.thresholds == "nash":
            profile = StrategyProfile.sequential_optimal(n)
            return mode, variant, profile, (seq.win_matrix(n).win_probs, 0.0)
    else:
        mode = "simultaneous"
        variant = sim.Variant(args.game)
        if args.thresholds == "nash":
            # ii.3 has no tie: its last win already holds the converted draw
            eq = sim.equilibrium(variant, n)
            analytic = (eq.win_probs, eq.tie_prob or 0.0)
            return mode, variant, StrategyProfile.fixed(eq.thresholds), analytic
    thresholds = tuple(_parse_thresholds(args.thresholds, n))
    profile = StrategyProfile.fixed(thresholds)
    # A fixed-threshold player ignores earlier scores, so a sequential game of
    # fixed thresholds has the outcome of the simultaneous one.
    if n == 1:
        bust = bust_prob(thresholds[0])
        return mode, variant, profile, ((1.0 - bust,), bust)
    outcome = sim.win_probabilities(thresholds)
    if variant is sim.Variant.ADVANTAGED:  # the last seat converts the draw
        return mode, variant, profile, (sim.payoff_map(variant, outcome), 0.0)
    return mode, variant, profile, (outcome.win_probs, outcome.tie_prob)


def cmd_simulate(args) -> int:
    if args.n < (1 if args.game == "i" else 2):
        raise ValueError(f"n too small for game {args.game}")
    mode, variant, profile, analytic = _simulation_setup(args)
    config = SimConfig(trials=args.trials, seed=args.seed, chunk_count=args.chunks)
    report = run(mode, variant, profile, config)

    labels = [f"player{i + 1}" for i in range(args.n)] + ["tie"]
    estimates = list(report.win_rates) + [report.tie_rate]
    refs = list(analytic[0]) + [analytic[1]]
    json_rows = []
    for label, est, ref in zip(labels, estimates, refs):
        if not 0.0 <= ref <= 1.0:
            raise NumericsError(f"analytic {label} probability {ref!r} lies outside [0, 1]")
        se = report.stderr(est)
        z = (est - ref) / report.stderr(ref) if ref not in (0.0, 1.0) else None
        json_rows.append(
            {"outcome": label, "estimate": est, "stderr": se, "analytic": ref, "z": z}
        )
    payload = {
        "game": args.game,
        "n": args.n,
        "mode": mode,
        "thresholds": list(profile.strategies),
        "trials": report.trials,
        "seed": report.seed,
        "chunk_count": report.chunk_count,
        "win_counts": list(report.win_counts),
        "tie_count": report.tie_count,
        "score_tie_count": report.score_tie_count,
        "results": json_rows,
    }
    headers = list(json_rows[0])
    _emit(args, headers, _records_rows(headers, json_rows), payload)
    return 0


# ---------------------------------------------------------------------------
# best-response
# ---------------------------------------------------------------------------


def cmd_best_response(args) -> int:
    if args.game == "i":
        raise ValueError("best-response applies to the no-information games (ii.1, ii.2, ii.3)")
    n = args.n
    variant = sim.Variant(args.game)
    eq = sim.equilibrium(variant, n)  # refuses n < 2 before the rivals are counted
    rivals = _parse_thresholds(args.rivals, n - 1)
    player = args.player - 1
    if not 0 <= player < n:
        raise ValueError(f"player must lie in 1..{n}, got {args.player}")
    br = sim.best_response(variant, player, rivals)

    own_eq = eq.thresholds[player]
    rival_eq = tuple(t for i, t in enumerate(eq.thresholds) if i != player)
    # "at equilibrium" to print precision, so 4-decimal inputs are recognized
    at_equilibrium = all(abs(a - b) < 1e-4 for a, b in zip(rivals, rival_eq))
    gap = abs(br - own_eq) if at_equilibrium else None

    payload = {
        "game": args.game,
        "n": n,
        "player": args.player,
        "rivals": list(rivals),
        "best_response": br,
        "equilibrium_gap": gap,
    }
    headers = ["player", "best_response", "equilibrium_gap"]
    _emit(args, headers, _records_rows(headers, [payload]), payload)
    return 0


# ---------------------------------------------------------------------------
# coalition
# ---------------------------------------------------------------------------


def cmd_coalition(args) -> int:
    if args.pair == 12:
        report = seq.coalition_12()
    elif args.pair == 13:
        report = seq.coalition_13()
    else:
        print(
            f"coalition pair {args.pair} is not covered: only the 3-player "
            "pairs 12 (against the third player) and 13 (against the second) are analyzed",
            file=sys.stderr,
        )
        return 2
    payload = {
        "coalition": report.coalition,
        "first_threshold": report.first_threshold,
        "victim": report.victim,
        "victim_win_prob": report.victim_win_prob,
        "nash_baseline": report.nash_baseline,
        "reduction": report.nash_baseline - report.victim_win_prob,
    }
    headers = list(payload)
    _emit(args, headers, _records_rows(headers, [payload]), payload)
    return 0


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------


# Figure 2 holds grid**2 rows; the whole command peaks at about 138 MB at
# grid 1001 and 392 MB at 2151 (measured ru_maxrss), and a mistyped 100000
# would ask for tens of GB.  One cap serves all three figures.
MAX_GRID = 2151


def _figure_columns(fig_id: int, grid: int):
    if fig_id == 1:
        a2 = sim.alpha(2)
        ref = sim.two_player_win(a2, a2)
        headers = ["y", "p1_win", "equilibrium_win"]
        rows = [
            [i / (grid - 1), sim.two_player_win(a2, i / (grid - 1)), ref]
            for i in range(grid)
        ]
        return headers, list(zip(*rows))
    if fig_id == 2:
        # i / (grid - 1) as in figures 1 and 3, bit for bit: both are correctly
        # rounded quotients of exact integers
        axis = np.arange(grid) / (grid - 1)
        x, y = np.repeat(axis, grid), np.tile(axis, grid)
        g3 = sim.gamma(3)
        wins, tie = sim.win_probabilities_many(np.column_stack((np.full_like(x, g3), x, y)))
        # seat 1's column, copied so that the other seats' payoffs are freed
        payoff1 = sim.payoff_map(sim.Variant.ZERO_SUM, (wins, tie))[:, 0].copy()
        return ["x", "y", "payoff1"], [x, y, payoff1]
    # every n's curves over one axis, all 5 * grid points in one call; an
    # empty cell where the decreasing curve has left the box (NaN)
    n = np.repeat(np.arange(2, 7), grid)
    x = np.tile(np.arange(grid) / (grid - 1), 5)
    decreasing, increasing = sim.advantaged_curve_points(n, x)
    decreasing = [None if math.isnan(y) else y for y in decreasing.tolist()]
    return ["n", "x", "y_decreasing", "y_increasing"], [n.tolist(), x, decreasing, increasing]


def cmd_figure(args) -> int:
    if args.grid < 2:
        raise ValueError("grid must be at least 2")
    if args.grid > MAX_GRID:
        raise ValueError(f"grid must be at most {MAX_GRID}, got {args.grid}")
    headers, columns = _figure_columns(args.id, args.grid)
    text = render_csv(headers, columns)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return 3
    return 0


# ---------------------------------------------------------------------------
# advise
# ---------------------------------------------------------------------------


def _read_value(prompt: str, parse, stdin, stdout):
    """Prompt until a line parses; None on end of input."""
    while True:
        stdout.write(prompt)
        stdout.flush()
        line = stdin.readline()
        if not line:
            return None
        line = line.strip()
        if line.lower() in ("quit", "exit", "q"):
            return None
        try:
            return parse(line)
        except ValueError:
            stdout.write(f"could not read {line!r}; enter a number or 'quit'\n")


def cmd_advise(args, stdin=None, stdout=None) -> int:
    """Line-oriented advisor: remaining players, best earlier score, then one
    running score per line; answers STOP or SPIN with the active threshold and
    the current win probability."""
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout

    def parse_r(text: str) -> int:
        r = int(text)
        if not 1 <= r <= seq.MAX_PLAYERS:
            raise ValueError
        return r

    def parse_unit(text: str) -> float:
        v = float(text)
        if not 0.0 <= v <= 1.0:
            raise ValueError
        return v

    stdout.write(
        "sequential-game advisor: you are about to play; 'quit' exits\n"
        f"players still to play including you (1-{seq.MAX_PLAYERS})?\n"
    )
    r = _read_value("> ", parse_r, stdin, stdout)
    if r is None:
        return 0
    stdout.write("best score among earlier players (0 if none)?\n")
    best = _read_value("> ", parse_unit, stdin, stdout)
    if best is None:
        return 0
    state = seq.SeqState(remaining=r, best_score=best)
    threshold = seq.seq_policy(state)
    pre_win = seq.win_prob(r, 1, threshold)
    stdout.write(
        f"threshold {threshold:.4f}; win probability before spinning {pre_win:.4f}\n"
        "running score after each spin?\n"
    )
    while True:
        s = _read_value("> ", parse_unit, stdin, stdout)
        if s is None:
            return 0
        if seq.advise(state, s) == "stop":
            stop_win = bust_prob(s) ** (r - 1) if r > 1 else 1.0
            stdout.write(
                f"STOP   threshold {threshold:.4f}  win probability if you stop {stop_win:.4f}\n"
            )
        else:
            spin_win = pre_win * math.exp(-s)
            stdout.write(
                f"SPIN   threshold {threshold:.4f}  win probability playing on {spin_win:.4f}\n"
            )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=("table", "csv", "json"), default="table",
        help="output format (default: table)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="showdown",
        description="Solvers and Monte Carlo simulation for the n-player "
        "unlimited-spin Showcase Showdown game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="reproduce a published results table")
    p.add_argument("--id", type=int, choices=(1, 2, 3, 4, 5), required=True)
    _add_common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("equilibrium", help="equilibrium thresholds and probabilities")
    p.add_argument("--game", choices=GAMES, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("simulate", help="Monte Carlo check of analytic values")
    p.add_argument("--game", choices=GAMES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--thresholds", default="nash",
        help="comma-separated thresholds or 'nash' (default: nash)",
    )
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--chunks", type=int, default=8,
        help="split the games into this many seeded chunks, chunk c drawing from stream c, "
        "played concurrently on the usable CPUs; counts are identical for any thread count, "
        "and each running chunk needs about 65 bytes per game in it (default: 8)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("best-response", help="optimal threshold against fixed rivals")
    p.add_argument("--game", choices=GAMES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--player", type=int, default=1, help="1-based seat (default 1)")
    p.add_argument("--rivals", required=True, help="comma-separated rival thresholds")
    _add_common(p)
    p.set_defaults(func=cmd_best_response)

    p = sub.add_parser("coalition", help="three-player coalition analysis")
    p.add_argument("--pair", type=int, required=True, help="12 or 13")
    _add_common(p)
    p.set_defaults(func=cmd_coalition)

    p = sub.add_parser("figure", help="CSV data grid for a figure")
    p.add_argument("--id", type=int, choices=(1, 2, 3), required=True)
    p.add_argument(
        "--grid", type=int, default=101,
        help=f"points per axis, 2 to {MAX_GRID} (default: 101)",
    )
    p.add_argument("--out", default="-", help="output path or - for stdout")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("advise", help="interactive sequential-game advisor")
    p.set_defaults(func=cmd_advise)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parse_args returns a fresh Namespace
    on every call, so nothing carries over between calls."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe (`showdown ... | head`): what is left
        # unwritten has no reader, so stdout's descriptor goes to devnull,
        # where the interpreter's flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
