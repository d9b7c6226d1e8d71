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

import json
import math
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

import numpy as np

from . import sequential as seq
from . import simultaneous as sim
from .numerics import NumericsError
from .score import _threshold, bust_prob
from .simulator import SimConfig, StrategyProfile, run

if TYPE_CHECKING:
    import argparse

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


class _Indexed(NamedTuple):
    """A column whose row i shows values[index[i]], for `render_csv`."""

    values: Sequence
    index: np.ndarray


def _csv_blocks(headers: Sequence[str], columns: Sequence) -> Iterator[str]:
    """`render_csv`'s text in pieces: the header row, then each block of at
    most `_BLOCK_ROWS` rows, each rendered only when it is asked for.  The
    columns' lengths are checked before the header is given out."""
    # an _Indexed column's values rendered once, its rows taken by index
    columns = [
        _Indexed(_cell_bytes(c.values, 6), c.index) if isinstance(c, _Indexed) else c
        for c in columns
    ]
    lengths = {len(c.index if isinstance(c, _Indexed) else c) for c in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    yield ",".join(headers) + "\n"
    for start in range(0, max(lengths, default=0), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        yield _lines([
            c.values[c.index[rows]] if isinstance(c, _Indexed) else _cell_bytes(c[rows], 6)
            for c in columns
        ])


def render_csv(headers: Sequence[str], columns: Sequence) -> str:
    """Comma-separated grid: header row, LF endings, fixed 6-decimal floats.

    `columns` holds one column per header, all of one length: a float64
    array, any sequence of floats, None, ints and strings, or an `_Indexed`
    (values, index) of such a sequence and an integer array, whose row i
    shows values[index[i]].  Every cell reads as `"%.6f" % v` would print it
    (-0.0 as -0.000000, nan as nan), but an array's cells are written as
    digits into one byte matrix for the whole column, not formatted one
    value at a time, and an `_Indexed` column's values are rendered
    once, however many rows repeat them.  The rows are rendered in blocks
    of `_BLOCK_ROWS`, so the matrices stay small beside the text;
    `cmd_figure` writes those blocks out one at a time."""
    return "".join(_csv_blocks(headers, columns))


def render_table(headers: Sequence[str], columns: Sequence[Sequence]) -> str:
    """Fixed-width text table with 4-decimal floats; `columns` as in
    `render_csv`, but no `_Indexed` column."""
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
        ((u, _, win, _),) = sim.equilibrium(sim.Variant.EXTERNAL, n).groups
        return {"n": n, "alpha": u, "win_prob": win}
    if table_id == 4:
        eq = sim.equilibrium(sim.Variant.ZERO_SUM, n)
        ((u, _, win, _),) = eq.groups
        return {"n": n, "gamma": u, "tie_prob": eq.tie_prob, "win_prob": win}
    (eps, _, p_normal, _), (delta, _, p_adv, _) = sim.equilibrium(sim.Variant.ADVANTAGED, n).groups
    return {"n": n, "epsilon": eps, "delta": delta, "p_advantaged": p_adv, "p_normal": p_normal}


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
    if variant is sim.Variant.ADVANTAGED:
        (eps, _, p_normal, _), (delta, _, p_adv, _) = eq.groups
        out.update({"epsilon": eps, "delta": delta, "p_adv": p_adv, "p_normal": p_normal})
    else:
        out["alpha" if variant is sim.Variant.EXTERNAL else "gamma"] = eq.groups[0][0]
    return out


# The most seats `equilibrium` and `simulate` list a row each: at 10**6 the
# equilibrium's JSON takes about 4 s and 0.3 GB, its table 6 s and 0.85 GB.
MAX_SEATS = 10**6


def _check_seats(n: int) -> None:
    if n > MAX_SEATS:
        raise ValueError(f"n must be at most {MAX_SEATS} for a row per seat, got {n}")


def cmd_equilibrium(args) -> int:
    n = args.n
    _check_seats(n)
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
    _check_seats(args.n)
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


# Figure 2 holds grid**2 rows; the whole command peaks at about 62 MB at
# grid 1001, 131 MB at 2001 and 145 MB at 2151 (measured ru_maxrss), and a
# mistyped 100000 would ask for tens of GB.  One cap serves all three figures.
MAX_GRID = 2151
# figure 2's rows per closed-form call: a block's temporaries stay in cache
# (warm at grid 101, 2 048 and 8 192 rows measured about 15 % slower)
_FIGURE2_ROWS = 4096


def _figure_columns(fig_id: int, grid: int):
    # i / (grid - 1) as numpy divides it, bit for bit: both are correctly
    # rounded quotients of exact integers
    axis = np.arange(grid) / (grid - 1)
    if fig_id == 1:
        a2 = sim.alpha(2)
        ref = sim.two_player_win(a2, a2)
        rows = [[y, sim.two_player_win(a2, y), ref] for y in axis.tolist()]
        return ["y", "p1_win", "equilibrium_win"], list(zip(*rows))
    if fig_id == 2:
        # row i holds x = axis[i // grid] and y = axis[i % grid]
        x, y = np.repeat(np.arange(grid), grid), np.tile(np.arange(grid), grid)
        g3, payoff1 = sim.gamma(3), np.empty(grid * grid)
        # in blocks of rows, so that the three seats' wins never span the grid
        for r in range(0, grid * grid, _FIGURE2_ROWS):
            rows = slice(r, r + _FIGURE2_ROWS)
            outcome = sim.three_player_wins(g3, axis[x[rows]], axis[y[rows]])
            payoff1[rows] = sim.payoff_map(sim.Variant.ZERO_SUM, outcome)[:, 0]
        return ["x", "y", "payoff1"], [_Indexed(axis, x), _Indexed(axis, y), payoff1]
    # every n's curves over one axis, all 5 * grid points in one call; an
    # empty cell where the decreasing curve has left the box (NaN)
    n = np.repeat(np.arange(2, 7), grid)
    x = np.tile(axis, 5)
    decreasing, increasing = sim.advantaged_curve_points(n, x)
    decreasing = [None if math.isnan(y) else y for y in decreasing.tolist()]
    return ["n", "x", "y_decreasing", "y_increasing"], [n.tolist(), x, decreasing, increasing]


def cmd_figure(args) -> int:
    if args.grid < 2:
        raise ValueError("grid must be at least 2")
    if args.grid > MAX_GRID:
        raise ValueError(f"grid must be at most {MAX_GRID}, got {args.grid}")
    headers, columns = _figure_columns(args.id, args.grid)
    # each block written as soon as it is rendered, so that the text is
    # never held whole beside the columns
    blocks = _csv_blocks(headers, columns)
    if args.out == "-":
        sys.stdout.writelines(blocks)
    else:
        try:
            with open(args.out, "w", newline="") as fh:
                fh.writelines(blocks)
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

    def parse_unit(text: str) -> float:
        return _threshold(float(text), "score")

    stdout.write(
        "sequential-game advisor: you are about to play; 'quit' exits\n"
        f"players still to play including you (1-{seq.MAX_PLAYERS})?\n"
    )
    r = _read_value("> ", lambda text: seq._within_cap(int(text)), stdin, stdout)
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


def _arg(*flags, **options):
    """One add_argument call's arguments, for the command table."""
    return flags, options


_FORMAT = _arg(
    "--format", choices=("table", "csv", "json"), default="table",
    help="output format (default: table)",
)
_GAME = _arg("--game", choices=GAMES, required=True)
_N = _arg("--n", type=int, required=True)

# name: (help, handler, arguments); `build_parser` adds them all as
# subcommands, and `_plain_args` reads a plain command line from them
_COMMANDS = {
    "table": ("reproduce a published results table", cmd_table, (
        _arg("--id", type=int, choices=(1, 2, 3, 4, 5), required=True),
        _FORMAT,
    )),
    "equilibrium": ("equilibrium thresholds and probabilities", cmd_equilibrium, (_GAME, _N, _FORMAT)),
    "simulate": ("Monte Carlo check of analytic values", cmd_simulate, (
        _GAME,
        _N,
        _arg(
            "--thresholds", default="nash",
            help="comma-separated thresholds or 'nash' (default: nash)",
        ),
        _arg("--trials", type=int, default=1_000_000),
        _arg("--seed", type=int, default=0),
        _arg(
            "--chunks", type=int, default=8,
            help="split the games into this many seeded chunks, chunk c drawing from stream c, "
            "played concurrently on the usable CPUs; counts are identical for any thread count, "
            "and each running chunk needs about 78 bytes per game in it (default: 8)",
        ),
        _FORMAT,
    )),
    "best-response": ("optimal threshold against fixed rivals", cmd_best_response, (
        _GAME,
        _N,
        _arg("--player", type=int, default=1, help="1-based seat (default 1)"),
        _arg("--rivals", required=True, help="comma-separated rival thresholds"),
        _FORMAT,
    )),
    "coalition": ("three-player coalition analysis", cmd_coalition, (
        _arg("--pair", type=int, required=True, help="12 or 13"),
        _FORMAT,
    )),
    "figure": ("CSV data grid for a figure", cmd_figure, (
        _arg("--id", type=int, choices=(1, 2, 3), required=True),
        _arg("--grid", type=int, default=101, help=f"points per axis, 2 to {MAX_GRID} (default: 101)"),
        _arg("--out", default="-", help="output path or - for stdout"),
    )),
    "advise": ("interactive sequential-game advisor", cmd_advise, ()),
}


def build_parser() -> argparse.ArgumentParser:
    # imported here alone: argparse and the gettext it loads are a large
    # share of a cold call, and `main` needs them only for help and usage
    # errors
    import argparse

    parser = argparse.ArgumentParser(
        prog="showdown",
        description="Solvers and Monte Carlo simulation for the n-player "
        "unlimited-spin Showcase Showdown game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, func, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func=func)
    return parser


def _plain_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """What `build_parser().parse_args(argv)` makes of a plain command line,
    `COMMAND --flag value ...`, read from `_COMMANDS` alone: each of the
    command's flags at most once, in any order, its value not starting with
    "-", converted by the flag's type and within its choices, and every flag
    left out at its default.  None for any other line: help, a missing or
    bad value, --flag=value, an abbreviation, a repeated flag, a negative
    number, --, an unknown command or a stray word."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, arguments = _COMMANDS[argv[0]]
    given = dict(zip(argv[1::2], argv[2::2]))
    if 2 * len(given) != len(argv) - 1:  # a flag without a value, or repeated
        return None
    args = {"command": argv[0], "func": func}
    for (flag,), options in arguments:
        if flag not in given:
            if options.get("required"):
                return None
            value = options.get("default")
        else:
            value = given.pop(flag)
            if value.startswith("-"):
                return None
            try:
                value = options.get("type", str)(value)
            except ValueError:
                return None
            if value not in options.get("choices", (value,)):
                return None
        args[flag[2:]] = value
    return None if given else SimpleNamespace(**args)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line; its exit code.  A plain line is parsed from the
    command table without argparse; anything else (help, an unknown
    command, a usage error) goes to the whole `build_parser` tree, so every
    help text, usage message and exit code is the tree's."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv) or build_parser().parse_args(argv)
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
