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
comma-separated grid, `json` full-precision doubles.  Exit codes: 0 success,
2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

from . import sequential as seq
from . import simultaneous as sim
from .numerics import NumericsError
from .score import bust_prob
from .simulator import SimConfig, StrategyProfile, run

GAMES = ("i", "ii.1", "ii.2", "ii.3")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _cell(value, decimals: int) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.{decimals}f}"
    return str(value)


def render_csv(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Comma-separated grid: header row, LF endings, fixed 6-decimal floats."""
    lines = [",".join(headers)]
    lines.extend(",".join(_cell(v, 6) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def render_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Fixed-width text table with 4-decimal floats."""
    cells = [[_cell(v, 4) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    out = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    out.extend("  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells)
    return "\n".join(out) + "\n"


def _emit(args, headers, rows, json_obj) -> None:
    if args.format == "json":
        print(json.dumps(json_obj))
    elif args.format == "csv":
        sys.stdout.write(render_csv(headers, rows))
    else:
        sys.stdout.write(render_table(headers, rows))


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
        "payoffs": list(
            sim.payoff_map(variant, sim.win_probabilities(eq.thresholds))
        ),
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
        if n < 1:
            raise ValueError("game i needs n >= 1")
        payload = _seq_equilibrium_payload(n)
        # the JSON thresholds list is indexed by players remaining; seat i's
        # baseline cutoff (nobody ahead holds a positive score) reverses it
        seat_thresholds = list(reversed(payload["thresholds"]))
    else:
        if n < 2:
            raise ValueError(f"game {args.game} needs n >= 2")
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
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"thresholds must lie in [0, 1], got {v}")
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
        thresholds = tuple(_parse_thresholds(args.thresholds, n))
    else:
        mode = "simultaneous"
        variant = sim.Variant(args.game)
        if args.thresholds == "nash":
            thresholds = sim.equilibrium(variant, n).thresholds
        else:
            thresholds = tuple(_parse_thresholds(args.thresholds, n))
    profile = StrategyProfile.fixed(thresholds)
    # A fixed-threshold player ignores earlier scores, so a sequential game of
    # fixed thresholds has the outcome of the simultaneous one.
    if n == 1:
        bust = bust_prob(thresholds[0])
        return mode, variant, profile, ((1.0 - bust,), bust)
    outcome = sim.win_probabilities(thresholds)
    if variant is sim.Variant.ADVANTAGED:
        wins = list(outcome.win_probs)
        wins[-1] += outcome.tie_prob  # the advantaged player converts the draw
        analytic = (tuple(wins), 0.0)
    else:
        analytic = (outcome.win_probs, outcome.tie_prob)
    return mode, variant, profile, analytic


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
    rivals = _parse_thresholds(args.rivals, n - 1)
    player = args.player - 1
    if not 0 <= player < n:
        raise ValueError(f"player must lie in 1..{n}, got {args.player}")
    br = sim.best_response(variant, player, rivals)

    eq = sim.equilibrium(variant, n)
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


def _figure_rows(fig_id: int, grid: int):
    if fig_id == 1:
        a2 = sim.alpha(2)
        ref = sim.two_player_win(a2, a2)
        headers = ["y", "p1_win", "equilibrium_win"]
        rows = [
            [i / (grid - 1), sim.two_player_win(a2, i / (grid - 1)), ref]
            for i in range(grid)
        ]
        return headers, rows
    if fig_id == 2:
        g3 = sim.gamma(3)
        axis = [i / (grid - 1) for i in range(grid)]
        cells = [(x, y) for x in axis for y in axis]
        batch = sim.win_probabilities_many([(g3, x, y) for x, y in cells])
        payoff1 = sim.payoff_map(sim.Variant.ZERO_SUM, batch)[:, 0].tolist()
        rows = [[x, y, v] for (x, y), v in zip(cells, payoff1)]
        return ["x", "y", "payoff1"], rows
    headers = ["n", "x", "y_decreasing", "y_increasing"]
    rows = []
    for n in range(2, 7):
        for i in range(grid):
            x = i / (grid - 1)
            ya, yb = sim.advantaged_curve_points(n, x)
            rows.append([n, x, ya, yb])
    return headers, rows


def cmd_figure(args) -> int:
    if args.grid < 2:
        raise ValueError("grid must be at least 2")
    headers, rows = _figure_rows(args.id, args.grid)
    text = render_csv(headers, rows)
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
    threshold = seq.seq_policy(seq.SeqState(remaining=r, best_score=best))
    pre_win = seq.win_prob(r, 1, threshold)
    stdout.write(
        f"threshold {threshold:.4f}; win probability before spinning {pre_win:.4f}\n"
        "running score after each spin?\n"
    )
    while True:
        s = _read_value("> ", parse_unit, stdin, stdout)
        if s is None:
            return 0
        if s >= threshold:
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
    p.add_argument("--chunks", type=int, default=8)
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
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--out", default="-", help="output path or - for stdout")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("advise", help="interactive sequential-game advisor")
    p.set_defaults(func=cmd_advise)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
