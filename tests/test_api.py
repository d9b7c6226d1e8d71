"""The public surface of `showdown`: each root name serves the CLI, the
README, or is a type one of those returns or an exception one raises."""

import ast
import importlib
import inspect
import math
import re
import types
from decimal import Decimal
from pathlib import Path

import pytest

import showdown

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = ("numerics", "score", "stopping", "sequential", "simultaneous", "simulator")

PUBLIC = {
    # numerics
    "BracketError": "raised by solve_root under every ii.* and coalition 13 threshold (CLI exit 3)",
    "NumericsError": "CLI: caught by main, exit 3",
    "solve_root": "Brent's method behind alpha, gamma, epsilon_delta, optimal_threshold "
    "and coalition_13; the benchmark's tracer counts its evaluations",
    # score
    "CdfProduct": "README Library: PayoffSpec(h=CdfProduct((0.6, 0.6)), h0=0.0)",
    "RandomStream": "CLI simulate: run draws chunk c from RandomStream(seed, c)",
    "bust_prob": "CLI: simulate's one-player analytic column, advise's stop win probability",
    "score_cdf": "README Library: one score's CDF F, whose log CdfProduct sums once per distinct threshold",
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
    "theta": "CLI advise and simulate --game i: seq_policy's threshold and SEQ_OPTIMAL's seats",
    "win_matrix": "CLI table --id 1, equilibrium and simulate --game i; README Library",
    "win_prob": "CLI advise: the win probability before spinning",
    # simultaneous
    "ProfileOutcome": "return type of win_probabilities",
    "SymmetricEquilibrium": "README Library: return type of equilibrium, one group per shared threshold",
    "Variant": "CLI --game ii.1/ii.2/ii.3; README Library",
    "advantaged_curve_points": "CLI figure --id 3: every n and x of the figure in one array call",
    "alpha": "CLI figure --id 1",
    "best_response": "CLI best-response; README Library",
    "epsilon_delta": "CLI table --id 5 and equilibrium --game ii.3: the thresholds equilibrium returns",
    "equilibrium": "CLI table, equilibrium, simulate and best-response; README Library",
    "gamma": "CLI figure --id 2",
    "payoff_map": "CLI simulate --game ii.3 with explicit thresholds; README Library",
    "stop_payoff_function": "builds the PayoffSpec best_response solves; the CLI calls only best_response",
    "three_player_wins": "CLI figure --id 2: every profile's closed-form wins, in blocks of rows",
    "two_player_win": "CLI figure --id 1",
    "win_probabilities": "CLI simulate with explicit thresholds; README Library",
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
    unnamed = [
        name
        for name, reason in PUBLIC.items()
        if reason.startswith("README") and not re.search(rf"\b{name}\b", README)
    ]
    assert unnamed == [], "reason cites the README, which never names it"


def test_readme_library_block_runs():
    # the python block under "## Library" runs, and gives the values its
    # comments state, each cut (not rounded) to the digits shown before "..."
    block = re.search(r"^## Library\n.*?^```python\n(.*?)^```", README, flags=re.M | re.S)[1]
    namespace = {}
    exec(block, namespace)

    def stated(code):
        """The value of `code`, and the digits d.ddd... the comment on its
        README line states."""
        (line,) = (line for line in block.splitlines() if line.startswith(code + " "))
        return eval(code, namespace), re.findall(r"(\d\.\d+)\.\.\.", line.split("#", 1)[1])

    def cut(value, digits):
        """Whether value's exact decimal expansion begins with digits."""
        return str(Decimal(value))[: len(digits)] == digits

    wins, digits = stated("win_matrix(3).win_probs")
    assert digits == ["0.2859", "0.3248", "0.3892"]
    assert all(map(cut, wins, digits))
    value, digits = stated("score_cdf(0.6, 0.8)")
    assert digits == ["0.6355"] and cut(value, digits[0])
    solution, digits = stated("expected_payoff(PayoffSpec(h=CdfProduct((0.0,)), h0=0.0))")
    assert "kappa = sqrt(2)-1" in block
    assert solution.kappa == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)
    solution, digits = stated("expected_payoff(PayoffSpec(h=CdfProduct((0.6, 0.6)), h0=0.0))")
    assert digits == ["0.6775"] and cut(solution.kappa, digits[0])


# an accuracy in e-notation (1e-13, 2.3e-16); a measure is that or a time (3 ms, 0.1 s)
_E_NOTATION = r"\b\d+(?:\.\d+)?e[-+]?\d+\b"
_MEASURE = re.compile(rf"{_E_NOTATION}|\d\s?(?:ms|µs|s)\b")


def _test_sources(path):
    """Each top-level test function in `path` by name, with the source of its
    decorators and body."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    sources = {}
    for node in ast.parse(text).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
            first = min(d.lineno for d in [*node.decorator_list, node])
            sources[node.name] = "\n".join(lines[first - 1 : node.end_lineno])
    return sources


def test_known_limits_rows_are_asserted():
    # each row of the README's accuracy table names a test that exists and
    # whose source writes the row's bounds, and no other README line states
    # an accuracy or a time without naming a test or a BENCH_*.json
    section = re.search(r"^## Known limits\n(.*?)^## ", README, flags=re.M | re.S)[1]
    assert len(section.splitlines()) + 1 <= 50  # with its heading
    table = [line for line in section.splitlines() if line.startswith("|")]
    assert table[0] == "| Quantity (n range) | Bound | Against | Test |"
    sources = {}
    for row in table[2:]:
        _, bound, _, test = (cell.strip() for cell in row.strip("|").split("|"))
        path, name = re.fullmatch(r"`(tests/\w+\.py)::(\w+)`", test).groups()
        assert (ROOT / path).is_file(), row
        if path not in sources:
            sources[path] = _test_sources(ROOT / path)
        assert name in sources[path], row
        bounds = re.findall(r"`([^`]+)`", bound)
        assert bounds and all(b in sources[path][name] for b in bounds), row
        assert all(e in sources[path][name] for e in re.findall(_E_NOTATION, row)), row
    tests = set().union(*(_test_sources(path) for path in (ROOT / "tests").glob("test_*.py")))
    untabled = [
        line
        for line in README.splitlines()
        if line not in table
        and _MEASURE.search(line)
        and not any(name in tests for name in re.findall(r"\btest_\w+", line))
        and not any((ROOT / bench).is_file() for bench in re.findall(r"\bBENCH_\d+\.json", line))
    ]
    assert untabled == []


def test_no_public_callable_takes_a_tolerance():
    # every solver runs at the one tolerance its equations need (the library
    # counterpart of test_cli's test_commands_without_solver_tolerance_reject_tol)
    public = {f"showdown.{name}": getattr(showdown, name) for name in PUBLIC}
    for module in MODULES:
        mod = importlib.import_module(f"showdown.{module}")
        public.update({f"showdown.{module}.{name}": getattr(mod, name) for name in mod.__all__})
    knobs = {"tol", "rtol", "atol", "tolerance"}
    offenders = [
        f"{qualified}({param})"
        for qualified, obj in public.items()
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception))
        for param in inspect.signature(obj).parameters
        if param in knobs
    ]
    assert offenders == []


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
