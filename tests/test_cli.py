import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import showdown
from showdown.cli import MAX_GRID, MAX_SEATS, build_parser, main, render_csv, render_table
from showdown.score import bust_prob
from showdown.sequential import theta
from showdown.simulator import SimConfig, StrategyProfile, run
from showdown.simultaneous import (
    Variant,
    alpha,
    best_response,
    epsilon_delta,
    equilibrium,
    gamma,
    payoff_map,
    three_player_wins,
    two_player_win,
    win_probabilities,
)

import mp_reference as ref
from cdf_reference import product_integral, reference_cdf
from curve_reference import curve_points
from reference_tables import MISROUNDED, TABLE1, TABLE2, TABLE4, TABLE5


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.strip().split("\n")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def expected_4dp(table: dict, label: str) -> str:
    """Published digit, corrected where the print is off by one ulp."""
    if label in MISROUNDED:
        return f"{MISROUNDED[label][1]:.4f}"
    return f"{table[label]:.4f}"


# --- tables -------------------------------------------------------------------


def test_table1_golden(capsys):
    # golden values come from the JSON output (full precision) so 4-decimal
    # rounding is applied once, not through the 6-decimal CSV
    code, out, _ = run_cli(capsys, ["table", "--id", "1", "--format", "json"])
    assert code == 0
    for row in json.loads(out)["rows"]:
        n = row["n"]
        assert f"{row['theta']:.4f}" == expected_4dp(TABLE1, f"theta_{n}")
        for m, p in enumerate(row["win_probs"], start=1):
            assert f"{p:.4f}" == expected_4dp(TABLE1, f"P_{n}^{m}")


def test_table1_csv_structure(capsys):
    code, out, _ = run_cli(capsys, ["table", "--id", "1", "--format", "csv"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:2] == ["n", "theta"]
    for row in rows:
        n = int(row[0])
        assert all(cell != "" for cell in row[: 2 + n])
        assert all(cell == "" for cell in row[2 + n :])


def test_table2_golden(capsys):
    code, out, _ = run_cli(capsys, ["table", "--id", "2", "--format", "json"])
    assert code == 0
    for row in json.loads(out)["rows"]:
        n = row["n"]
        assert f"{row['alpha']:.4f}" == expected_4dp(TABLE2, f"alpha_{n}")
        assert f"{row['win_prob']:.4f}" == expected_4dp(TABLE2, f"P_{n}")


def test_table4_golden(capsys):
    code, out, _ = run_cli(capsys, ["table", "--id", "4", "--format", "json"])
    assert code == 0
    for row in json.loads(out)["rows"]:
        n = row["n"]
        assert f"{row['gamma']:.4f}" == expected_4dp(TABLE4, f"gamma_{n}")
        assert f"{row['tie_prob']:.4f}" == expected_4dp(TABLE4, f"tie_{n}")
        assert f"{row['win_prob']:.4f}" == expected_4dp(TABLE4, f"win_{n}")


def test_table5_golden(capsys):
    code, out, _ = run_cli(capsys, ["table", "--id", "5", "--format", "json"])
    assert code == 0
    for row in json.loads(out)["rows"]:
        n = row["n"]
        assert f"{row['epsilon']:.4f}" == expected_4dp(TABLE5, f"eps_{n}")
        assert f"{row['delta']:.4f}" == expected_4dp(TABLE5, f"delta_{n}")
        assert f"{row['p_advantaged']:.4f}" == expected_4dp(TABLE5, f"PA_{n}")
        assert f"{row['p_normal']:.4f}" == expected_4dp(TABLE5, f"PN_{n}")


def test_tables_within_one_ulp_of_published(capsys):
    # every printed reference digit is within 1e-4 of the computed value
    checks = [
        ("1", TABLE1, {"theta": "theta_{n}"}),
        ("2", TABLE2, None),
        ("4", TABLE4, None),
        ("5", TABLE5, None),
    ]
    for table_id, ref, _ in checks:
        code, out, _ = run_cli(capsys, ["table", "--id", table_id, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        for row in payload["rows"]:
            n = row["n"]
            if table_id == "1":
                got = {f"theta_{n}": row["theta"]}
                got.update(
                    {f"P_{n}^{m}": p for m, p in enumerate(row["win_probs"], start=1)}
                )
            elif table_id == "2":
                got = {f"alpha_{n}": row["alpha"], f"P_{n}": row["win_prob"]}
            elif table_id == "4":
                got = {
                    f"gamma_{n}": row["gamma"],
                    f"tie_{n}": row["tie_prob"],
                    f"win_{n}": row["win_prob"],
                }
            else:
                got = {
                    f"eps_{n}": row["epsilon"],
                    f"delta_{n}": row["delta"],
                    f"PA_{n}": row["p_advantaged"],
                    f"PN_{n}": row["p_normal"],
                }
            for label, value in got.items():
                assert abs(value - ref[label]) < 1e-4, (table_id, label)


def test_table3_out_of_scope(capsys):
    code, out, err = run_cli(capsys, ["table", "--id", "3"])
    assert code == 2
    assert "out of scope" in err


# --- equilibrium ----------------------------------------------------------------


def test_equilibrium_sequential_json(capsys):
    code, out, _ = run_cli(capsys, ["equilibrium", "--game", "i", "--n", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    for key in ("game", "n", "thresholds", "win_probs", "tie_prob", "payoffs", "residuals"):
        assert key in payload
    assert [round(t, 4) for t in payload["thresholds"]] == [0.0, 0.5706, 0.6879]
    assert [round(p, 4) for p in payload["win_probs"]] == [0.2859, 0.3248, 0.3893]
    assert all(abs(r) < 1e-9 for r in payload["residuals"])


def test_equilibrium_sequential_large_n_json(capsys):
    code, out, _ = run_cli(capsys, ["equilibrium", "--game", "i", "--n", "60", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["thresholds"]) == len(payload["win_probs"]) == len(payload["residuals"]) == 60
    assert all(abs(r) <= 1e-13 for r in payload["residuals"])
    assert abs(math.fsum(payload["win_probs"]) - 1.0) <= 1e-13
    assert payload["thresholds"] == sorted(payload["thresholds"])


def test_equilibrium_sequential_refuses_beyond_cap(capsys):
    code, _, err = run_cli(capsys, ["equilibrium", "--game", "i", "--n", "101"])
    assert code == 2
    assert "capped at 100" in err


def test_equilibrium_external_json(capsys):
    code, out, _ = run_cli(capsys, ["equilibrium", "--game", "ii.1", "--n", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert round(payload["alpha"], 4) == 0.5887
    assert round(payload["win_probs"][0], 4) == 0.4665
    assert abs(payload["residuals"][0]) < 1e-12


def test_equilibrium_advantaged_json(capsys):
    code, out, _ = run_cli(capsys, ["equilibrium", "--game", "ii.3", "--n", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert round(payload["epsilon"], 4) == 0.4887
    assert round(payload["delta"], 4) == 0.6118
    assert round(payload["p_adv"], 4) == 0.5366
    assert payload["tie_prob"] is None
    # far beyond the published table, delta - epsilon is about 0.006
    code, out, _ = run_cli(capsys, ["equilibrium", "--game", "ii.3", "--n", "40", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert 0.0 < payload["epsilon"] < payload["delta"] < 1.0
    assert len(payload["residuals"]) == 2
    assert all(abs(r) <= 1e-12 for r in payload["residuals"])


def test_equilibrium_external_n30_payoffs_are_win_probabilities(capsys):
    code, out, _ = run_cli(capsys, ["equilibrium", "--game", "ii.1", "--n", "30", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    for pay, win in zip(payload["payoffs"], payload["win_probs"]):
        assert 0.0 <= pay <= 1.0
        assert abs(pay - win) <= 1e-12


def test_equilibrium_rejects_small_n(capsys):
    code, _, err = run_cli(capsys, ["equilibrium", "--game", "ii.2", "--n", "1"])
    assert code == 2
    assert "player count must be an integer >= 2, got 1" in err


def _refuse(*args, **kwargs):
    raise AssertionError("the win-probability kernel was called")


@pytest.mark.parametrize("game", ["ii.1", "ii.2", "ii.3"])
def test_equilibrium_n10000_takes_payoffs_from_the_solver(game, monkeypatch, capsys):
    # the solver's closed forms, with no second integration of the profile
    from showdown import simultaneous

    monkeypatch.setattr(simultaneous, "win_probabilities", _refuse)
    code, out, err = run_cli(
        capsys, ["equilibrium", "--game", game, "--n", "10000", "--format", "json"]
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert abs(math.fsum(payload["win_probs"]) + (payload["tie_prob"] or 0.0) - 1.0) <= 1e-13
    if game == "ii.2":
        assert payload["payoffs"] == [0.0] * 10000
    else:
        assert payload["payoffs"] == payload["win_probs"]


def test_equilibrium_zero_sum_table_never_prints_negative_zero(capsys):
    for n in range(2, 61):
        code, out, _ = run_cli(capsys, ["equilibrium", "--game", "ii.2", "--n", str(n)])
        assert code == 0
        assert "-0.0000" not in out, n


# --- simulate --------------------------------------------------------------------


def test_simulate_json_structure(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--game", "ii.2", "--n", "2", "--trials", "5000", "--seed", "42",
         "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["trials"] == 5000
    assert sum(payload["win_counts"]) + payload["tie_count"] + payload["score_tie_count"] == 5000
    labels = [r["outcome"] for r in payload["results"]]
    assert labels == ["player1", "player2", "tie"]
    for r in payload["results"]:
        assert r["analytic"] is not None
        if r["z"] is not None:
            assert abs(r["z"]) < 6.0


@pytest.mark.parametrize(
    "game, mode, variant, profile",
    [
        ("i", "sequential", Variant.EXTERNAL, StrategyProfile.sequential_optimal(3)),
        ("ii.2", "simultaneous", Variant.ZERO_SUM, StrategyProfile.fixed(equilibrium("ii.2", 3).thresholds)),
    ],
    ids=["i", "ii.2"],
)
def test_library_reproduces_simulate_with_eight_chunks(capsys, game, mode, variant, profile):
    # `--chunks` defaults to 8 and SimConfig.chunk_count to 1, so the library
    # draws the CLI's streams only when given chunk_count=8
    argv = ["simulate", "--game", game, "--n", "3", "--trials", "10000", "--seed", "7"]
    code, out, _ = run_cli(capsys, [*argv, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    cli = (payload["win_counts"], payload["tie_count"])
    report = run(mode, variant, profile, SimConfig(10_000, seed=7, chunk_count=8))
    assert (list(report.win_counts), report.tie_count) == cli
    report = run(mode, variant, profile, SimConfig(10_000, seed=7))
    assert (list(report.win_counts), report.tie_count) != cli


def test_simulate_single_trial(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--game", "i", "--n", "2", "--trials", "1", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert sum(payload["win_counts"]) + payload["tie_count"] + payload["score_tie_count"] == 1


def test_simulate_explicit_thresholds(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--game", "ii.1", "--n", "2", "--thresholds", "0.3,0.7",
         "--trials", "20000", "--seed", "3", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    ref = two_player_win(0.3, 0.7)
    est = payload["results"][0]["estimate"]
    assert abs(est - ref) < 4 * math.sqrt(ref * (1 - ref) / 20000)


def test_simulate_sequential_explicit_matches_analytic(capsys):
    # fixed-threshold players ignore earlier scores, so the sequential game
    # has the simultaneous profile's outcome; a lone player wins unless bust
    for thresholds, trials in (("0.5,0.2,0.8", 200000), ("0.6", 50000)):
        n = thresholds.count(",") + 1
        code, out, _ = run_cli(
            capsys,
            ["simulate", "--game", "i", "--n", str(n), "--thresholds", thresholds,
             "--trials", str(trials), "--seed", "11", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert sum(payload["win_counts"]) + payload["tie_count"] + payload["score_tie_count"] == trials
        refs = [r["analytic"] for r in payload["results"]]
        us = [float(t) for t in thresholds.split(",")]
        if n == 1:
            assert refs == [1.0 - bust_prob(us[0]), bust_prob(us[0])]
        else:
            outcome = win_probabilities(us)
            assert refs == [*outcome.win_probs, outcome.tie_prob]
        assert all(abs(r["z"]) < 4 for r in payload["results"])


def test_simulate_sequential_n40_matches_analytic(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--game", "i", "--n", "40", "--trials", "200000", "--seed", "3",
         "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tie_count"] == 0  # the last mover never busts against no score
    zs = [r["z"] for r in payload["results"][:40]]
    assert all(abs(z) < 4 for z in zs)


def test_simulate_advantaged_folds_tie_into_analytic(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--game", "ii.3", "--n", "2", "--trials", "50000", "--seed", "6",
         "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    rows = {r["outcome"]: r for r in payload["results"]}
    # the advantaged (last) player's analytic win rate includes the converted tie
    assert rows["player2"]["analytic"] == pytest.approx(0.5366, abs=5e-5)
    assert rows["tie"]["analytic"] == 0.0
    assert payload["tie_count"] == 0
    assert abs(rows["player2"]["z"]) < 4.5


@pytest.mark.parametrize(
    "game, thresholds", [("ii.1", "0,1"), ("i", "0,1"), ("ii.3", "1,1,0")]
)
def test_simulate_sure_outcomes_print_exact_probabilities(game, thresholds, capsys):
    # threshold 0 never busts and threshold 1 always does, so one seat wins
    # surely; the analytic value once came out as 1 + 2**-52 and exited 3
    n = thresholds.count(",") + 1
    code, out, err = run_cli(
        capsys,
        ["simulate", "--game", game, "--n", str(n), "--thresholds", thresholds,
         "--trials", "1000", "--seed", "1", "--format", "json"],
    )
    assert (code, err) == (0, "")
    analytic = [row["analytic"] for row in json.loads(out)["results"]]
    sure = thresholds.split(",").index("0")
    assert analytic == [1.0 if i == sure else 0.0 for i in range(n)] + [0.0]


def test_simulate_refuses_impossible_analytic_value(monkeypatch, capsys):
    from showdown import simultaneous

    def broken(thresholds, advantaged=None):
        return simultaneous.ProfileOutcome(tuple(thresholds), (0.4, 1.7), -0.1)

    monkeypatch.setattr(simultaneous, "win_probabilities", broken)
    code, out, err = run_cli(
        capsys,
        ["simulate", "--game", "ii.2", "--n", "2", "--thresholds", "0.5,0.5",
         "--trials", "100", "--format", "json"],
    )
    assert code == 3
    assert out == ""
    assert "player2" in err and "1.7" in err


@pytest.mark.parametrize("game", ["ii.1", "ii.2", "ii.3"])
def test_simulate_nash_prints_the_equilibrium_probabilities(game, monkeypatch, capsys):
    from showdown import simultaneous

    monkeypatch.setattr(simultaneous, "win_probabilities", _refuse)
    code, out, err = run_cli(
        capsys,
        ["simulate", "--game", game, "--n", "3", "--trials", "1000", "--seed", "2",
         "--format", "json"],
    )
    assert (code, err) == (0, "")
    eq = simultaneous.equilibrium(Variant(game), 3)
    analytic = [row["analytic"] for row in json.loads(out)["results"]]
    assert analytic == [*eq.win_probs, eq.tie_prob or 0.0]


def test_simulate_impossible_allocation_is_a_usage_error(capsys):
    # one chunk of 1e15 games asks numpy for petabytes, refused at once
    code, out, err = run_cli(
        capsys,
        ["simulate", "--game", "ii.1", "--n", "3", "--trials", "1000000000000000",
         "--chunks", "1"],
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


# thresholds at and next to the ends of [0, 1] (0 never busts, 1 always
# does) and interior points, as in test_simultaneous's sweep
SWEEP_EDGES = (0.0, 5e-324, 1e-300, 1e-12, 0.3, 0.5, 0.9, 1.0 - 2.0**-53, 1.0)


def _edge_profiles(n):
    """Nine profiles of n thresholds from SWEEP_EDGES, the j-th starting at
    edge j in steps of 4 (coprime to 9, so the n <= 9 values are distinct),
    and a cluster 1e-9 apart."""
    profiles = [[SWEEP_EDGES[(j + 4 * k) % 9] for k in range(n)] for j in range(9)]
    return profiles + [[0.5 + k * 1e-9 for k in range(n)]]


def _json_call(capsys, argv):
    code, out, err = run_cli(capsys, [*argv, "--format", "json"])
    assert (code, err) == (0, ""), (argv, err)
    return json.loads(out)


def test_cli_sweep_over_edge_profiles(capsys):
    # at n = 2..6, every valid equilibrium, simulate and best-response call
    # exits 0 and prints probabilities and thresholds in [0, 1]; a threshold
    # just outside [0, 1] exits 2; no call exits 3 or raises
    for n in range(2, 7):
        for game in ("i", "ii.1", "ii.2", "ii.3"):
            payload = _json_call(capsys, ["equilibrium", "--game", game, "--n", str(n)])
            assert all(0.0 <= p <= 1.0 for p in payload["win_probs"])
        for j, profile in enumerate(_edge_profiles(n)):
            text = ",".join(map(repr, profile))
            for game in ("i", "ii.1", "ii.2", "ii.3"):
                payload = _json_call(
                    capsys,
                    ["simulate", "--game", game, "--n", str(n), "--thresholds", text,
                     "--trials", "200", "--seed", str(j)],
                )
                assert all(0.0 <= row["analytic"] <= 1.0 for row in payload["results"])
            rivals = ",".join(map(repr, profile[1:]))
            for game in ("ii.1", "ii.2", "ii.3"):
                payload = _json_call(
                    capsys,
                    ["best-response", "--game", game, "--n", str(n),
                     "--player", str(j % n + 1), "--rivals", rivals],
                )
                assert 0.0 <= payload["best_response"] <= 1.0
        for bad in ("-5e-324", "1.0000000000000002", "nan"):
            text = ",".join([bad, *map(repr, _edge_profiles(n)[0][1:])])
            for argv in (
                ["simulate", "--game", "ii.2", "--n", str(n), f"--thresholds={text}"],
                ["best-response", "--game", "ii.1", "--n", str(n + 1), f"--rivals={text}"],
            ):
                code, out, err = run_cli(capsys, argv)
                assert (code, out) == (2, ""), argv
                assert "[0, 1]" in err


def test_simulate_zero_sum_n30_matches_analytic(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--game", "ii.2", "--n", "30", "--trials", "200000", "--seed", "1",
         "--format", "json"],
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert len(results) == 31
    assert all(abs(r["z"]) < 4 for r in results)


def test_simulate_malformed_thresholds(capsys):
    code, _, err = run_cli(
        capsys,
        ["simulate", "--game", "ii.1", "--n", "2", "--thresholds", "0.3;0.7",
         "--trials", "10"],
    )
    assert code == 2
    assert "malformed" in err or "expected" in err


def test_simulate_seed_outside_64_bits_is_refused(monkeypatch, capsys):
    # Philox keys are 64-bit words: 2**64 is refused before any chunk thread starts
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
    for seed in ("-1", str(2**64)):
        code, out, err = run_cli(capsys, ["simulate", "--game", "ii.1", "--n", "3", "--seed", seed])
        assert (code, out, started) == (2, "", [])
        assert err.startswith("error:") and "seed" in err
    monkeypatch.undo()
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--game", "ii.1", "--n", "3", "--trials", "1000", "--seed", str(2**64 - 1),
         "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["seed"] == 2**64 - 1


# --- best-response ----------------------------------------------------------------


def test_best_response_cli(capsys):
    code, out, _ = run_cli(
        capsys,
        ["best-response", "--game", "ii.1", "--n", "3", "--rivals", "0.6989,0.6989",
         "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert round(payload["best_response"], 4) == 0.6989
    assert payload["equilibrium_gap"] is not None
    assert payload["equilibrium_gap"] < 1e-4


def test_best_response_zero_sum(capsys):
    # the published rival digit 0.6591 is one ulp high; responding to it lands
    # within 1e-3 of the fixed point, and responding to the solved value
    # reproduces it to 1e-6
    g2 = gamma(2)
    code, out, _ = run_cli(
        capsys,
        ["best-response", "--game", "ii.2", "--n", "2", "--rivals", "0.6591",
         "--format", "json"],
    )
    assert code == 0
    assert abs(json.loads(out)["best_response"] - g2) < 1e-3
    code, out, _ = run_cli(
        capsys,
        ["best-response", "--game", "ii.2", "--n", "2", "--rivals", f"{g2:.12f}",
         "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["best_response"] - g2) < 1e-6
    assert payload["equilibrium_gap"] < 1e-6


def test_best_response_greedy_rival(capsys):
    code, out, _ = run_cli(
        capsys,
        ["best-response", "--game", "ii.1", "--n", "2", "--rivals", "0.0",
         "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["best_response"] - (math.sqrt(2) - 1)) < 1e-6


def test_best_response_advantaged_beyond_table(capsys):
    eps, delta = epsilon_delta(11)
    rivals = ",".join(f"{eps:.12f}" for _ in range(9)) + f",{delta:.12f}"
    code, out, _ = run_cli(
        capsys,
        ["best-response", "--game", "ii.3", "--n", "11", "--rivals", rivals,
         "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["equilibrium_gap"] < 1e-6


def test_best_response_external_n30(capsys):
    a30 = alpha(30)
    code, out, _ = run_cli(
        capsys,
        ["best-response", "--game", "ii.1", "--n", "30", "--rivals",
         ",".join([f"{a30:.12f}"] * 29), "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["equilibrium_gap"] < 1e-9


def test_best_response_rejects_game_i(capsys):
    code, _, err = run_cli(
        capsys, ["best-response", "--game", "i", "--n", "2", "--rivals", "0.5"]
    )
    assert code == 2


@pytest.mark.parametrize("n", [0, 1])
def test_best_response_refuses_fewer_than_two_players(capsys, n):
    # the player count is checked before the rivals are counted against it
    code, out, err = run_cli(
        capsys, ["best-response", "--game", "ii.1", "--n", str(n), "--rivals", "0.5"]
    )
    assert code == 2 and out == ""
    assert err == f"error: player count must be an integer >= 2, got {n}\n"


# the refusal of a rival list short of 10**9 players, timed in the child
_BILLION_RIVALS_SCRIPT = """
import sys, time
from showdown.cli import main
start = time.perf_counter()
code = main(["best-response", "--game", "ii.1", "--n", "1000000000", "--rivals", "0.5"])
print(time.perf_counter() - start)
sys.exit(code)
"""


def test_best_response_at_a_billion_players_refuses_the_rival_count(run_limited):
    # the equilibrium it builds first holds one group, not a row per seat
    proc = run_limited("-c", _BILLION_RIVALS_SCRIPT)
    assert proc.returncode == 2 and float(proc.stdout) < 1.0, (proc.stdout, proc.stderr)
    assert proc.stderr == "error: expected 999999999 thresholds, got 1\n"


@pytest.mark.parametrize("command", ["equilibrium", "simulate"])
def test_row_per_seat_commands_refuse_above_max_seats(command, run_limited):
    for game in ("ii.1", "ii.3"):
        proc = run_limited("-m", "showdown.cli", command, "--game", game, "--n", str(MAX_SEATS + 1))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: n must be at most {MAX_SEATS} for a row per seat, got {MAX_SEATS + 1}\n"


# --- coalition --------------------------------------------------------------------


def test_coalition_12_cli(capsys):
    code, out, _ = run_cli(capsys, ["coalition", "--pair", "12", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["first_threshold"] - 0.63386) < 1e-4
    assert abs(payload["victim_win_prob"] - 0.3867) < 5e-4
    assert payload["victim"] == 3
    assert payload["reduction"] > 0


def test_coalition_13_cli(capsys):
    code, out, _ = run_cli(capsys, ["coalition", "--pair", "13", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["first_threshold"] - 0.75017) < 1e-4
    assert abs(payload["victim_win_prob"] - 0.32262) < 5e-5
    assert payload["victim"] == 2


@pytest.mark.parametrize(
    "command",
    [
        ["coalition", "--pair", "12"],
        ["simulate", "--game", "ii.1", "--n", "2"],
        ["table", "--id", "2"],
        ["equilibrium", "--game", "ii.1", "--n", "3"],
        ["best-response", "--game", "ii.1", "--n", "2", "--rivals", "0.5"],
        ["figure", "--id", "1"],
        ["advise"],
    ],
)
def test_commands_without_solver_tolerance_reject_tol(command, capsys):
    # every solver runs at the one tolerance its equations need, so no
    # command takes one
    with pytest.raises(SystemExit) as exc:
        main([*command, "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_table2_then_figure1_solve_alpha2_once(capsys):
    # figure 1 reuses table 2's alpha_2: one cache entry per n, whatever the caller
    alpha.cache_clear()
    assert run_cli(capsys, ["table", "--id", "2"])[0] == 0
    assert run_cli(capsys, ["figure", "--id", "1", "--grid", "3"])[0] == 0
    assert alpha.cache_info().misses == 9


def test_coalition_unsupported_pair(capsys):
    code, _, err = run_cli(capsys, ["coalition", "--pair", "23"])
    assert code == 2
    assert "not covered" in err


# --- figures ----------------------------------------------------------------------


def test_figure1_grid(tmp_path, capsys):
    out_path = tmp_path / "fig1.csv"
    code, _, _ = run_cli(capsys, ["figure", "--id", "1", "--grid", "41", "--out", str(out_path)])
    assert code == 0
    header, rows = parse_csv(out_path.read_text())
    assert header == ["y", "p1_win", "equilibrium_win"]
    assert len(rows) == 41
    # the constant column is the symmetric equilibrium win probability
    for row in rows:
        assert f"{float(row[2]):.4f}" == "0.4665"
    a2 = alpha(2)
    assert abs(float(rows[0][1]) - two_player_win(a2, 0.0)) < 1e-6


def test_figure2_grid(tmp_path, capsys):
    out_path = tmp_path / "fig2.csv"
    code, _, _ = run_cli(capsys, ["figure", "--id", "2", "--grid", "11", "--out", str(out_path)])
    assert code == 0
    header, rows = parse_csv(out_path.read_text())
    assert header == ["x", "y", "payoff1"]
    assert len(rows) == 121
    assert min(float(r[2]) for r in rows) >= -1e-9


def _figure2_payoff1(g3, x, y):
    """Seat 1's zero-sum payoff at one profile, from a scalar call."""
    wins, tie = three_player_wins(g3, x, y)
    return payoff_map(Variant.ZERO_SUM, (wins[None], tie[None]))[0, 0]


def _expanded(column):
    """A figure column as one array: an `_Indexed` column's values at its
    index, any other column as it is."""
    from showdown.cli import _Indexed

    return column.values[column.index] if isinstance(column, _Indexed) else column


def test_figure2_batch_equals_pointwise_payoffs(tmp_path, capsys):
    from showdown.cli import _figure_columns

    g3 = gamma(3)
    axis = [i / 10 for i in range(11)]
    profiles = [(x, y) for x in axis for y in axis]
    expected = [
        [x for x, _ in profiles],
        [y for _, y in profiles],
        [_figure2_payoff1(g3, x, y) for x, y in profiles],
    ]
    headers, columns = _figure_columns(2, 11)
    assert headers == ["x", "y", "payoff1"]
    assert [_expanded(column).tolist() for column in columns] == expected
    out_path = tmp_path / "fig2.csv"
    code, _, _ = run_cli(capsys, ["figure", "--id", "2", "--grid", "11", "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text() == render_csv(["x", "y", "payoff1"], expected)


def _figure2_reference_csv(grid):
    """figure --id 2 the long way: every profile tuple through
    win_probabilities, then every cell through its own f-string."""
    g3 = gamma(3)
    axis = [i / (grid - 1) for i in range(grid)]
    cells = [(x, y) for x in axis for y in axis]
    outcomes = [win_probabilities((g3, x, y)) for x, y in cells]
    batch = np.array([o.win_probs for o in outcomes]), np.array([o.tie_prob for o in outcomes])
    payoff1 = payoff_map(Variant.ZERO_SUM, batch)[:, 0].tolist()
    lines = ["x,y,payoff1"]
    lines.extend(
        ",".join(f"{v:.6f}" for v in (x, y, p)) for (x, y), p in zip(cells, payoff1)
    )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("grid", [2, 7, 101])
def test_figure2_bytes_equal_reference(grid, capsys):
    code, out, _ = run_cli(capsys, ["figure", "--id", "2", "--grid", str(grid)])
    assert code == 0
    assert out == _figure2_reference_csv(grid)


def test_figure2_never_calls_the_kernel(monkeypatch, capsys):
    from showdown import simultaneous

    code, want, _ = run_cli(capsys, ["figure", "--id", "2", "--grid", "7"])
    assert code == 0
    monkeypatch.setattr(simultaneous, "win_probabilities", _refuse)
    assert run_cli(capsys, ["figure", "--id", "2", "--grid", "7"]) == (0, want, "")


def test_figure2_payoffs_match_exact_reference():
    # an oracle independent of the win-probability kernel: seat 1's zero-sum
    # payoff, w - (1 - w - tie) / 2, at every grid 7 cell, its win w from a
    # 50-digit integral of the two rivals' CDFs over [gamma_3, 1]
    from showdown.cli import _figure_columns

    g3 = gamma(3)
    _, columns = _figure_columns(2, 7)
    x, y, payoff1 = map(_expanded, columns)
    assert len(payoff1) == 49
    for u2, u3, got in zip(x.tolist(), y.tolist(), payoff1.tolist()):
        win = ref.mp.exp(g3) * product_integral([reference_cdf(u2), reference_cdf(u3)], g3, 1.0)
        tie = ref.evaluate(ref.BUST, g3) * ref.evaluate(ref.BUST, u2) * ref.evaluate(ref.BUST, u3)
        assert abs(got - float(win - (1 - win - tie) / 2)) <= 1e-13, (u2, u3)


def test_figure3_grid(tmp_path, capsys):
    out_path = tmp_path / "fig3.csv"
    code, _, _ = run_cli(capsys, ["figure", "--id", "3", "--grid", "21", "--out", str(out_path)])
    assert code == 0
    header, rows = parse_csv(out_path.read_text())
    assert header == ["n", "x", "y_decreasing", "y_increasing"]
    assert len(rows) == 5 * 21
    first = rows[0]
    assert first[0] == "2" and float(first[1]) == 0.0
    # the increasing curve starts at sqrt(2) - 1 when no rival pressure exists
    assert abs(float(first[3]) - (math.sqrt(2) - 1)) < 1e-4


def _figure_reference_csv(fig_id, grid):
    """figure --id 1 or 3 the long way: one row per point, every cell through
    its own f-string, None as an empty cell; figure 3's points each solved
    alone by the scalar reference."""

    def cell(v):
        if v is None:
            return ""
        return f"{v:.6f}" if isinstance(v, float) else str(v)

    axis = [i / (grid - 1) for i in range(grid)]
    if fig_id == 1:
        a2 = alpha(2)
        ref = two_player_win(a2, a2)
        header = "y,p1_win,equilibrium_win"
        rows = [(y, two_player_win(a2, y), ref) for y in axis]
    else:
        header = "n,x,y_decreasing,y_increasing"
        rows = [(n, x, *curve_points(n, x)) for n in range(2, 7) for x in axis]
    lines = [header]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fig_id", [1, 3])
@pytest.mark.parametrize("grid", [2, 7, 101])
def test_figures_1_and_3_bytes_equal_reference(fig_id, grid, capsys):
    code, out, _ = run_cli(capsys, ["figure", "--id", str(fig_id), "--grid", str(grid)])
    assert code == 0
    assert out == _figure_reference_csv(fig_id, grid)
    if fig_id == 3 and grid > 2:
        # the decreasing curve has left the box: empty cells, int n alongside
        assert "\n3,0.000000,,0.532089\n" in out


@pytest.mark.parametrize("fig_id, rows", [(2, 49), (3, 35)])
def test_figure_writes_each_block_as_rendered(fig_id, rows, tmp_path, monkeypatch, capsys):
    # four-row blocks: the header and each block reach stdout or the file in
    # their own write, and the bytes are render_csv's, as with one block
    from showdown import cli

    argv = ["figure", "--id", str(fig_id), "--grid", "7"]
    whole = run_cli(capsys, argv)[1]
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 4)
    want = render_csv(*cli._figure_columns(fig_id, 7))
    assert want == whole
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(argv) == 0
    assert out.getvalue() == want
    assert len(writes) == 1 + math.ceil(rows / 4)
    path = tmp_path / "figure.csv"
    assert main([*argv, "--out", str(path)]) == 0
    assert path.read_bytes() == want.encode()


def test_figure_unwritable_path(capsys):
    code, _, err = run_cli(
        capsys, ["figure", "--id", "1", "--grid", "5", "--out", "/no/such/dir/f.csv"]
    )
    assert code == 3
    assert "cannot write" in err


def test_figure_grid_too_small(capsys):
    code, _, err = run_cli(capsys, ["figure", "--id", "1", "--grid", "1"])
    assert code == 2


@pytest.mark.parametrize("fig_id", [1, 2, 3])
def test_figure_grid_above_cap_refused(fig_id, capsys, monkeypatch, tmp_path):
    # refused before anything is solved: figure 2 would hold grid**2 rows
    def never(*args):
        raise AssertionError("figure computed above the grid cap")

    monkeypatch.setattr("showdown.cli._figure_columns", never)
    grid = ["--id", str(fig_id), "--grid", str(MAX_GRID + 1)]
    for out_path in ([], ["--out", str(tmp_path / "f.csv")]):
        code, out, err = run_cli(capsys, ["figure", *grid, *out_path])
        assert code == 2
        assert out == ""
        assert err == f"error: grid must be at most {MAX_GRID}, got {MAX_GRID + 1}\n"
    assert not (tmp_path / "f.csv").exists()


# --- output formats -----------------------------------------------------------------


def test_csv_round_trip(capsys):
    code, out, _ = run_cli(capsys, ["table", "--id", "4", "--format", "csv"])
    assert code == 0
    header, rows = parse_csv(out)
    rebuilt = "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"
    assert rebuilt == out
    # rendering already-formatted cells is idempotent
    assert render_csv(header, list(zip(*rows))) == out


EDGE_HEADERS = ["none", "int", "str", "np", "neg0", "nan", "inf", "ninf", "bool"]
EDGE_ROW = [None, 7, "ii.3", np.float64(0.5), -0.0, math.nan, math.inf, -math.inf, True]


def test_csv_cell_edge_cases():
    assert render_csv(EDGE_HEADERS, [[v] for v in EDGE_ROW]) == (
        "none,int,str,np,neg0,nan,inf,ninf,bool\n"
        ",7,ii.3,0.500000,-0.000000,nan,inf,-inf,True\n"
    )


def test_table_cell_edge_cases():
    assert render_table(EDGE_HEADERS, [[v] for v in EDGE_ROW]) == (
        "none  int   str      np     neg0  nan  inf  ninf  bool\n"
        "        7  ii.3  0.5000  -0.0000  nan  inf  -inf  True\n"
    )


# distinct bit patterns, some printing alike: a float64 array column is
# formatted once per bit pattern, never per float value
ARRAY_EDGE = np.array(
    [-0.0, 0.0, math.nan, math.inf, -math.inf, 0.1, np.nextafter(0.1, 1.0), -0.0, 0.1, 2.5e-7, -math.nan]
)


def test_csv_float64_array_column_edge_cases():
    other = [None, 1.5, -0.0, None, 3.0, 0.25, None, 0.0, -1e-9, 7.0, math.nan]
    ints = list(range(-5, 6))
    text = ["a", "", "b", "a", "ii.3", "c", "d", "e", "f", "g", "h"]
    out = render_csv(["arr", "py", "int", "str"], [ARRAY_EDGE, other, ints, text])
    per_cell = ["arr,py,int,str"]
    for a, o, i, t in zip(ARRAY_EDGE.tolist(), other, ints, text):
        per_cell.append(f"{a:.6f},{'' if o is None else f'{o:.6f}'},{i},{t}")
    assert out == "\n".join(per_cell) + "\n"
    assert out.split("\n")[1:] == [
        "-0.000000,,-5,a",
        "0.000000,1.500000,-4,",
        "nan,-0.000000,-3,b",
        "inf,,-2,a",
        "-inf,3.000000,-1,ii.3",
        "0.100000,0.250000,0,c",
        "0.100000,,1,d",
        "-0.000000,0.000000,2,e",
        "0.100000,-0.000000,3,f",
        "0.000000,7.000000,4,g",
        "nan,nan,5,h",
        "",
    ]


def test_table_float64_array_column_matches_python_floats():
    as_floats = ARRAY_EDGE.tolist()
    assert render_table(["v"], [ARRAY_EDGE]) == render_table(["v"], [as_floats])
    assert render_table(["v"], [ARRAY_EDGE]).split("\n")[1:3] == ["-0.0000", " 0.0000"]


def test_render_zero_rows_is_header_only():
    columns = [np.array([]), [], []]
    assert render_csv(["x", "y", "z"], columns) == "x,y,z\n"
    assert render_table(["x", "yy", "z"], columns) == "x  yy  z\n"


def _half_integer(decimals):
    """(k + 1/2) * 10**-decimals, or one of its float neighbours: where
    rounding the scaled value once could differ from rounding the exact one."""
    k = st.integers(0, 10**12) | st.integers(0, 10**3)
    step = st.sampled_from([-1, 0, 1])
    sign = st.sampled_from([1.0, -1.0])

    def build(k, step, sign):
        v = (2 * k + 1) / (2 * 10**decimals)
        for _ in range(abs(step)):
            v = float(np.nextafter(v, math.copysign(math.inf, step)))
        return sign * v

    return st.builds(build, k, step, sign)


def _float64_cells(decimals):
    special = st.sampled_from(
        [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
         2.2250738585072014e-308, -2.225073858507201e-308, 2.0**52 / 10**decimals]
    )
    subnormal = st.floats(-2.2e-308, 2.2e-308, allow_subnormal=True)
    large = st.floats(1e9, 1e17) | st.floats(-1e17, -1e9)
    return st.lists(
        special | subnormal | large | _half_integer(decimals) | st.floats(width=64),
        max_size=40,
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(six=_float64_cells(6), four=_float64_cells(4))
def test_float64_cells_equal_percent_formatting(six, four):
    # each vectorised cell reads as "%.*f" prints the value, warnings raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        csv_text = render_csv(["v"], [np.array(six, dtype=np.float64)])
        table = render_table(["v"], [np.array(four, dtype=np.float64)])
    assert csv_text == "".join(["v\n", *("%.6f\n" % v for v in six)])
    cells = ["v", *("%.4f" % v for v in four)]
    width = max(map(len, cells))
    assert table == "".join(c.rjust(width) + "\n" for c in cells)


def test_figure2_cells_need_no_percent_formatting():
    # at the default grid every figure 2 cell is written from its digits;
    # none lies within one spacing of a half-unit of the sixth decimal
    from showdown.cli import _figure_columns, _scaled_units

    _, columns = _figure_columns(2, 101)
    assert [int(np.count_nonzero(~_scaled_units(_expanded(c), 6)[1])) for c in columns] == [0, 0, 0]
    # and the cells that do, when alone
    values = np.array([0.5e-6, 2.5e-4, 1e17, math.nan, -math.inf, 0.25])
    assert np.count_nonzero(~_scaled_units(values, 6)[1]) == 4


def test_csv_uses_lf_and_six_decimals(capsys):
    code, out, _ = run_cli(capsys, ["table", "--id", "2", "--format", "csv"])
    assert "\r" not in out
    value = out.strip().split("\n")[1].split(",")[1]
    assert len(value.split(".")[1]) == 6


def test_table_format_four_decimals(capsys):
    code, out, _ = run_cli(capsys, ["table", "--id", "2"])
    assert code == 0
    line = out.strip().split("\n")[1]
    assert "0.5887" in line and "0.4665" in line


# --- advise REPL ---------------------------------------------------------------------


def advise_session(monkeypatch, capsys, lines):
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
    code = main(["advise"])
    captured = capsys.readouterr()
    return code, captured.out


def test_advise_first_of_three_stops_high(monkeypatch, capsys):
    code, out = advise_session(monkeypatch, capsys, ["3", "0", "0.70", "quit"])
    assert code == 0
    decisions = [l.lstrip("> ") for l in out.splitlines() if l.lstrip("> ").startswith(("STOP", "SPIN"))]
    assert decisions and decisions[0].startswith("STOP")
    assert "0.6879" in out  # active threshold


def test_advise_spins_below_threshold(monkeypatch, capsys):
    code, out = advise_session(monkeypatch, capsys, ["2", "0", "0.56", "quit"])
    decisions = [l.lstrip("> ") for l in out.splitlines() if l.lstrip("> ").startswith(("STOP", "SPIN"))]
    assert decisions and decisions[0].startswith("SPIN")


def test_advise_last_player_must_beat_best(monkeypatch, capsys):
    code, out = advise_session(monkeypatch, capsys, ["1", "0.5", "0.45", "0.72", "quit"])
    decisions = [l.lstrip("> ") for l in out.splitlines() if l.lstrip("> ").startswith(("STOP", "SPIN"))]
    assert decisions[0].startswith("SPIN")
    assert decisions[1].startswith("STOP")


def test_advise_never_stops_below_best(monkeypatch, capsys):
    scores = ["0.1", "0.4", "0.79"]
    code, out = advise_session(monkeypatch, capsys, ["4", "0.8", *scores, "quit"])
    decisions = [l.lstrip("> ") for l in out.splitlines() if l.lstrip("> ").startswith(("STOP", "SPIN"))]
    assert len(decisions) == 3
    assert all(d.startswith("SPIN") for d in decisions)


def test_advise_accepts_hundred_players(monkeypatch, capsys):
    code, out = advise_session(monkeypatch, capsys, ["100", "0", "0.5", "0.999", "quit"])
    assert code == 0
    assert "(1-100)" in out
    assert f"threshold {theta(100):.4f}" in out
    decisions = [l.lstrip("> ") for l in out.splitlines() if l.lstrip("> ").startswith(("STOP", "SPIN"))]
    assert [d[:4] for d in decisions] == ["SPIN", "STOP"]


def test_advise_reprompts_on_garbage(monkeypatch, capsys):
    code, out = advise_session(
        monkeypatch, capsys, ["not-a-number", "2", "0", "0.9", "quit"]
    )
    assert code == 0
    assert "could not read" in out
    decisions = [l.lstrip("> ") for l in out.splitlines() if l.lstrip("> ").startswith(("STOP", "SPIN"))]
    assert decisions and decisions[0].startswith("STOP")


def test_advise_stop_at_exact_threshold(monkeypatch, capsys):
    th = theta(2)
    code, out = advise_session(monkeypatch, capsys, ["2", "0", f"{th:.17g}", "quit"])
    decisions = [l.lstrip("> ") for l in out.splitlines() if l.lstrip("> ").startswith(("STOP", "SPIN"))]
    assert decisions and decisions[0].startswith("STOP")


# --- process-level smoke --------------------------------------------------------------


def python_env(env=None):
    """This environment, or `env`, with the package these tests import first
    on the path."""
    env = os.environ if env is None else env
    src = str(Path(showdown.__file__).resolve().parents[1])
    return {**env, "PYTHONPATH": os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))}


def run_python(*args, env=None):
    """`python args` on the package these tests import, in this environment
    or in `env`."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=python_env(env))


def run_module(*argv):
    """`python -m showdown.cli argv` on the package these tests import."""
    return run_python("-m", "showdown.cli", *argv)


def test_module_entrypoint_runs():
    proc = run_module("table", "--id", "2", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,alpha,win_prob")


_LAZY_NUMPY_SCRIPT = """
import contextlib, io, sys
import showdown.cli

def loaded():
    prefixes = ("numpy.polynomial", "numpy.char", "numpy.strings", "scipy", "dataclasses")
    return sorted(m for m in sys.modules if m.startswith(prefixes))

print(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    showdown.cli.main(["best-response", "--game", "ii.2", "--n", "40", "--rivals", ",".join(["0.7"] * 39)])
    showdown.cli.main(["figure", "--id", "2", "--grid", "11"])
    showdown.cli.main(["figure", "--id", "3", "--grid", "11"])
print(loaded())
"""


def test_cli_leaves_numpy_polynomial_unimported():
    # importing numpy.polynomial, numpy.char or numpy.strings costs
    # milliseconds of every cold start and adds to the peak RSS: the
    # Gauss-Legendre rules are built without the first, and the CSV cells
    # are written as digits into byte arrays without the others.  scipy is
    # no declared dependency, so nothing may import it either.  Nor may
    # dataclasses: each frozen dataclass execs its methods at import, about
    # 1 ms a class, so the result records are built by showdown._record
    proc = run_python("-c", _LAZY_NUMPY_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"


def test_output_into_closed_pipe_exits_quietly():
    # the reader stops after 200 bytes of a 2.4 MB CSV; stdout is buffered
    # here, as it is by default (unbuffered, the interrupted write is
    # short and raises nothing)
    env = python_env({k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"})
    proc = subprocess.Popen(
        [sys.executable, "-m", "showdown.cli", "figure", "--id", "2", "--grid", "301"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = proc.stdout.read(200)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert head.startswith(b"x,y,payoff1\n0.000000,0.000000,")
    assert err == b""
    # a reader gone before anything is written: the small JSON stays in
    # stdout's buffer until the flush, which fails, and nothing may try again
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "showdown.cli", "table", "--id", "2", "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_unknown_command_usage_error():
    proc = run_module("nonsense")
    assert proc.returncode == 2


# every command's output, in JSON where it has it, printed one after another
# by one process: the tables, each game's equilibrium, both coalitions, a
# ZERO_SUM best response at n = 60, the figures at a small grid and seeded
# simulations of game i and a game ii variant
_EVERY_COMMAND_SCRIPT = """
from showdown.cli import main
from showdown.simultaneous import equilibrium
rivals = ",".join(map(repr, equilibrium("ii.2", 60).thresholds[1:]))
for argv in ("table --id 1", "table --id 2", "table --id 4", "table --id 5",
             "equilibrium --game i --n 100", "equilibrium --game ii.1 --n 60",
             "equilibrium --game ii.2 --n 60", "equilibrium --game ii.3 --n 60",
             "coalition --pair 12", "coalition --pair 13",
             f"best-response --game ii.2 --n 60 --player 1 --rivals {rivals}",
             "simulate --game i --n 10", "simulate --game ii.3 --n 8 --trials 100000"):
    assert main([*argv.split(), "--format", "json"]) == 0, argv
for figure in ("1", "2", "3"):
    assert main(["figure", "--id", figure, "--grid", "21"]) == 0, figure
"""


def test_game_i_json_same_under_any_blas_thread_count():
    # one and two OpenBLAS threads, and the library's default (one per CPU):
    # before the win table's products were shaped for it, table 1 differed
    # between one and two threads in the last bits of its JSON
    base = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    procs = [
        run_python("-c", _EVERY_COMMAND_SCRIPT, env={**base, **threads})
        for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}, {})
    ]
    assert [p.returncode for p in procs] == [0, 0, 0], procs[0].stderr
    assert procs[0].stdout.count('"game": "i"') == 2  # equilibrium and simulate
    assert procs[0].stdout.count('"game": "ii.') == 5  # three equilibria, best response, simulate
    assert procs[0].stdout == procs[1].stdout == procs[2].stdout


# per command: help, a missing required option (advise has none), an
# out-of-range choice or malformed integer (advise has neither) and a stray
# argument; and the top level: no command, help and an unknown command
_PARSE_EXITS = [
    *(["table", *a] for a in (["-h"], [], ["--id", "6"], ["--id", "2", "stray"])),
    *(["equilibrium", *a] for a in (
        ["-h"], ["--game", "i"], ["--game", "i", "--n", "three"], ["--game", "i", "--n", "3", "stray"],
    )),
    *(["simulate", *a] for a in (
        ["-h"], ["--n", "3"], ["--game", "iv", "--n", "3"], ["--game", "i", "--n", "3", "stray"],
    )),
    *(["best-response", *a] for a in (
        ["-h"],
        ["--game", "ii.1", "--n", "3"],
        ["--game", "ii.1", "--n", "3", "--rivals", "0.5,0.5", "--player", "one"],
        ["--game", "ii.1", "--n", "3", "--rivals", "0.5,0.5", "stray"],
    )),
    *(["coalition", *a] for a in (["-h"], [], ["--pair", "twelve"], ["--pair", "12", "stray"])),
    *(["figure", *a] for a in (["-h"], ["--grid", "11"], ["--id", "4"], ["--id", "1", "stray"])),
    *(["advise", *a] for a in (["-h"], ["stray"])),
    [],
    ["-h"],
    ["tables"],
]


@pytest.mark.parametrize("argv", _PARSE_EXITS, ids=" ".join)
def test_main_parses_as_the_full_parser(argv, monkeypatch, capsys):
    # main parses with the invoked command's parser alone, and must print
    # what the full tree prints and exit as it does
    from showdown import cli

    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the same width

    def exit_of(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        return (exc.value.code, *capsys.readouterr())

    got = exit_of(main)
    assert got == exit_of(lambda argv: cli.build_parser().parse_args(argv))
    assert got[0] == (0 if "-h" in argv else 2)


def test_parser_built_once_and_calls_match_fresh_processes(monkeypatch, capsys):
    # one parser per command used, built on its first call and shared by the
    # calls after it, and no full tree while every call parses
    from showdown import cli

    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the same width
    calls = [
        ["table", "--id", "2", "--format", "json"],
        ["table", "--id", "2"],
        ["table", "--format", "csv"],  # --id of the calls before must not carry over
        ["figure", "--id", "1", "--grid", "3"],
    ]
    fresh = [run_module(*argv) for argv in calls]
    built = []
    add_command = cli._add_command
    monkeypatch.setattr(cli, "_add_command", lambda p, name: built.append(p.prog) or add_command(p, name))
    cli._command_parser.cache_clear()
    try:
        for argv, proc in zip(calls, fresh):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)
    finally:
        cli._command_parser.cache_clear()
    assert [proc.returncode for proc in fresh] == [0, 0, 2, 0]
    assert built == ["showdown table", "showdown figure"]


def load_script(name):
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "scripts" / name
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reply_accuracy_script_matches_best_response():
    # the 40-digit root of a reply on the rivals' cut, against the float reply
    module = load_script("reply_accuracy.py")
    rivals = list(equilibrium("ii.3", 20).thresholds)[:19]
    reply = best_response("ii.3", 19, rivals)
    exact = module.exact_reply("ii.3", 20, 20, rivals, reply)
    assert abs(float((reply - exact) / math.ulp(reply))) <= 2.0


def test_readme_commands_parse(capsys):
    # every `showdown` line of the README's bash blocks, without its comment
    # and cut at the first shell operator, parses under the whole tree
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = set()
    for block in re.findall(r"^```bash\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.splitlines():
            if not line.startswith("showdown "):
                continue
            argv = shlex.split(line, comments=True)[1:]
            cut = next((i for i, word in enumerate(argv) if word in (">", "|", "&&", ";")), None)
            try:
                build_parser().parse_args(argv[:cut])
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}\n{capsys.readouterr().err}")
            commands.add(argv[0])
    assert commands == set(showdown.cli._COMMANDS)
