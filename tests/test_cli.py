import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import showdown
from showdown.cli import main, render_csv
from showdown.score import bust_prob
from showdown.sequential import theta
from showdown.simultaneous import (
    Variant,
    alpha,
    epsilon_delta,
    gamma,
    payoff_map,
    two_player_win,
    win_probabilities,
)

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
    assert "n >= 2" in err


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


def test_simulate_refuses_impossible_analytic_value(monkeypatch, capsys):
    from showdown import simultaneous

    def broken(thresholds, advantaged=None):
        return simultaneous.ProfileOutcome(tuple(thresholds), (0.4, 1.7), -0.1)

    monkeypatch.setattr(simultaneous, "win_probabilities", broken)
    code, out, err = run_cli(
        capsys,
        ["simulate", "--game", "ii.2", "--n", "2", "--trials", "100", "--format", "json"],
    )
    assert code == 3
    assert out == ""
    assert "player2" in err and "1.7" in err


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


def test_figure2_batch_equals_pointwise_payoffs(tmp_path, capsys):
    from showdown.cli import _figure_rows

    g3 = gamma(3)
    axis = [i / 10 for i in range(11)]
    expected = [
        [x, y, payoff_map(Variant.ZERO_SUM, win_probabilities((g3, x, y)))[0]]
        for x in axis
        for y in axis
    ]
    assert _figure_rows(2, 11) == (["x", "y", "payoff1"], expected)
    out_path = tmp_path / "fig2.csv"
    code, _, _ = run_cli(capsys, ["figure", "--id", "2", "--grid", "11", "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text() == render_csv(["x", "y", "payoff1"], expected)


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


def test_figure_unwritable_path(capsys):
    code, _, err = run_cli(
        capsys, ["figure", "--id", "1", "--grid", "5", "--out", "/no/such/dir/f.csv"]
    )
    assert code == 3
    assert "cannot write" in err


def test_figure_grid_too_small(capsys):
    code, _, err = run_cli(capsys, ["figure", "--id", "1", "--grid", "1"])
    assert code == 2


# --- output formats -----------------------------------------------------------------


def test_csv_round_trip(capsys):
    code, out, _ = run_cli(capsys, ["table", "--id", "4", "--format", "csv"])
    assert code == 0
    header, rows = parse_csv(out)
    rebuilt = "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"
    assert rebuilt == out
    # rendering already-formatted cells is idempotent
    assert render_csv(header, rows) == out


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


def run_module(*argv):
    """`python -m showdown.cli argv` on the package these tests import."""
    src = str(Path(showdown.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "showdown.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entrypoint_runs():
    proc = run_module("table", "--id", "2", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,alpha,win_prob")


def test_unknown_command_usage_error():
    proc = run_module("nonsense")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "script", ["reproduce_tables.py", "simulation_check.py", "make_figures.py"]
)
def test_scripts_return_first_failing_code(script, monkeypatch, tmp_path, capsys):
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / script
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    calls = []
    monkeypatch.setattr(module, "cli_main", lambda argv: calls.append(argv) or 3)
    argv = ["--dir", str(tmp_path)] if script == "make_figures.py" else []
    assert module.run(argv) == 3
    assert len(calls) == 1
