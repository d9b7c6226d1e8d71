"""The public surface of `showdown`: each root name serves the CLI, the
README, or is a type one of those returns or an exception one raises."""

import importlib
import types

import showdown

PUBLIC = {
    # numerics
    "Bracket": "the interval solve_root takes",
    "BracketError": "raised by solve_root under every threshold the CLI prints (exit 3)",
    "NumericsError": "CLI: caught by main, exit 3",
    "solve_root": "README: Brent's method behind every threshold the CLI prints",
    # score
    "CdfProduct": "README Library: PayoffSpec(h=CdfProduct((0.6, 0.6)), h0=0.0)",
    "RandomStream": "CLI simulate: run draws chunk c from RandomStream(seed, c)",
    "bust_prob": "CLI: simulate's one-player analytic column, advise's stop win probability",
    "score_cdf": "README: the score law, whose CDFs CdfProduct multiplies",
    # stopping
    "PayoffSpec": "README Library: the payoff of expected_payoff",
    "StoppingSolution": "return type of expected_payoff",
    "expected_payoff": "README Library",
    "optimal_threshold": "CLI best-response: the threshold of best_response's PayoffSpec",
    # sequential
    "CoalitionReport": "return type of coalition_12 and coalition_13",
    "SeqEquilibrium": "return type of win_matrix",
    "SeqState": "CLI advise: the turn state",
    "advise": "CLI advise: STOP or SPIN",
    "coalition_12": "CLI coalition --pair 12",
    "coalition_13": "CLI coalition --pair 13",
    "seq_policy": "CLI advise: the active threshold",
    "theta": "README: the optimal policy max(theta_r, best score)",
    "win_matrix": "CLI table --id 1, equilibrium and simulate --game i; README Library",
    "win_prob": "CLI advise: the win probability before spinning",
    # simultaneous
    "ProfileOutcome": "return type of win_probabilities",
    "SymmetricEquilibrium": "return type of equilibrium",
    "Variant": "CLI --game ii.1/ii.2/ii.3; README Library",
    "advantaged_curve_points": "CLI figure --id 3: every n and x of the figure in one array call",
    "alpha": "CLI figure --id 1",
    "best_response": "CLI best-response; README Library",
    "epsilon_delta": "CLI table --id 5 and equilibrium --game ii.3: the thresholds equilibrium returns",
    "equilibrium": "CLI table, equilibrium, simulate and best-response; README Library",
    "gamma": "CLI figure --id 2",
    "payoff_map": "CLI simulate --game ii.3 with explicit thresholds; README Library",
    "stop_payoff_function": "builds the PayoffSpec best_response solves; the CLI calls only best_response",
    "two_player_win": "CLI figure --id 1",
    "win_probabilities": "CLI simulate with explicit thresholds; README Library",
    "win_probabilities_many": "CLI figure --id 2; README Library",
    # simulator
    "SEQ_OPTIMAL": "CLI simulate --game i: the strategy its JSON thresholds list",
    "SimConfig": "CLI simulate: --trials, --seed and --chunks",
    "SimReport": "return type of run",
    "StrategyProfile": "CLI simulate: the profile run plays",
    "run": "CLI simulate",
}

# Public functions whose spans the benchmark's per-layer metrics read.  Its
# tracer wraps exactly the names in each module's __all__, so a name pruned
# from there would leave its metric reading 0 without any error.  Some read
# 0 by design: numerics.integrate_adaptive.* and score.sample_scores.* (both
# removed from the library, since the stopping kernel integrates every
# payoff and the simulator fills its rows with score._Sampler),
# numerics.solve_root_2d.* (no solver nests two roots any more), and
# numerics.ExpPoly/PiecewisePoly.self_s (two empty classes, kept only
# because the tracer looks them up; see test_traced_classes_exist).
TRACED = (
    "numerics.solve_root",
    "score.bust_prob",
    "stopping.optimal_threshold",
    "sequential.theta",
    "sequential.win_matrix",
    "sequential.coalition_12",
    "sequential.coalition_13",
    "simultaneous.epsilon_delta",
    "simultaneous.win_probabilities",
    "simultaneous.best_response",
    "simulator.run",
)


def test_root_names_match_allow_list():
    names = {
        name
        for name, value in vars(showdown).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(names - PUBLIC.keys()) == [], "public name without a reason"
    assert sorted(PUBLIC.keys() - names) == [], "allow-listed name not exported"
    assert all(reason.strip() for reason in PUBLIC.values())


def test_traced_names_stay_in_module_all():
    missing = []
    for qualified in TRACED:
        module, name = qualified.split(".")
        mod = importlib.import_module(f"showdown.{module}")
        if name not in mod.__all__ or not callable(getattr(mod, name)):
            missing.append(qualified)
    assert missing == []


def test_traced_classes_exist():
    # the benchmark's tracer wraps the methods of these two classes by name
    # and fails on a missing one; no code uses them, so nothing else would
    # notice their deletion
    from showdown import numerics

    assert isinstance(numerics.ExpPoly, type)
    assert isinstance(numerics.PiecewisePoly, type)
