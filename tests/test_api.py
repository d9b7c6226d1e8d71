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

import numpy as np
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



def _curves(n, x):
    return tuple(a.tolist() for a in showdown.advantaged_curve_points(n, x))


class _Ramp:
    """The payoff h(x) = x: one piece, of the given degree."""

    def __init__(self, degree):
        self.degree = degree

    def values(self, xs):
        return xs

    def pieces(self):
        return (0.0, 1.0), (self.degree,)


sd = showdown
_XS = np.array([0.0, 0.3, 0.6, 0.9, 1.0])

# Each public callable with every argument fixed but one count, seat, m,
# seed, trial or chunk count (INTEGERS, with a valid value) or one threshold
# or score (REALS, valid at 0.75 and 1): the call, and the name its refusal
# starts with.  Results are plain values, so == compares them.
INTEGERS = {
    "theta": (sd.theta, "player count", 3),
    "win_matrix": (sd.win_matrix, "player count", 3),
    "SeqState-remaining": (lambda v: sd.SeqState(v, 0.0), "player count", 3),
    "win_prob-r": (lambda v: sd.win_prob(v, 1, 0.75), "player count", 3),
    "win_prob-m": (lambda v: sd.win_prob(3, v, 0.75), "m", 2),
    "alpha": (sd.alpha, "player count", 3),
    "gamma": (sd.gamma, "player count", 3),
    "epsilon_delta": (sd.epsilon_delta, "player count", 3),
    "equilibrium": (lambda v: sd.equilibrium("ii.3", v), "player count", 3),
    "advantaged_curve_points-n": (lambda v: _curves(v, 0.75), "player counts", 3),
    "win_probabilities-advantaged": (
        lambda v: sd.win_probabilities((0.5, 0.75), v), "advantaged index", 1
    ),
    "ProfileOutcome": (lambda v: sd.ProfileOutcome((0.5,) * 2, (0.4,) * 2, 0.2, v), "advantaged index", 1),
    "stop_payoff_function-player": (
        lambda v: sd.stop_payoff_function("ii.3", v, (0.5, 0.75)).h0, "player index", 2
    ),
    "best_response-player": (lambda v: sd.best_response("ii.1", v, (0.5, 0.75)), "player index", 1),
    "optimal_threshold": (lambda v: sd.optimal_threshold(sd.PayoffSpec(_Ramp(v), 0.0)), "degree", 1),
    "SimConfig-trials": (lambda v: sd.SimConfig(v), "trials", 10),
    "SimConfig-seed": (lambda v: sd.SimConfig(10, v), "seed", 7),
    "SimConfig-chunk_count": (lambda v: sd.SimConfig(10, 7, v), "chunk_count", 2),
    "RandomStream-seed": (lambda v: sd.RandomStream(v).uniforms(2).tolist(), "seed", 7),
    "RandomStream-stream_id": (lambda v: sd.RandomStream(7, v).uniforms(2).tolist(), "stream_id", 1),
    "sequential_optimal": (sd.StrategyProfile.sequential_optimal, "player count", 3),
}
REALS = {
    "bust_prob": (sd.bust_prob, "threshold"),
    "score_cdf-tau": (lambda v: sd.score_cdf(v, 0.8), "threshold"),
    "score_cdf-x": (lambda v: sd.score_cdf(0.5, v), "score"),
    "CdfProduct": (lambda v: sd.CdfProduct((v, 0.5)).values(_XS).tolist(), "thresholds"),
    "SeqState-best_score": (lambda v: sd.SeqState(3, v), "best score"),
    "advise": (lambda v: sd.advise(sd.SeqState(3, 0.0), v), "score"),
    "win_prob-x": (lambda v: sd.win_prob(3, 1, v), "x"),
    "two_player_win-x": (lambda v: sd.two_player_win(v, 0.5), "x"),
    "two_player_win-y": (lambda v: sd.two_player_win(0.5, v), "y"),
    "three_player_wins": (lambda v: [a.tolist() for a in sd.three_player_wins(0.5, 0.6, v)], "u3"),
    "advantaged_curve_points-x": (lambda v: _curves(3, v), "x"),
    "win_probabilities-thresholds": (lambda v: sd.win_probabilities((v, 0.5)), "thresholds"),
    "stop_payoff_function-rivals": (lambda v: sd.stop_payoff_function("ii.3", 2, (v, 0.5)).h0, "thresholds"),
    "best_response-rivals": (lambda v: sd.best_response("ii.1", 0, (v, 0.5)), "thresholds"),
    "StrategyProfile": (lambda v: sd.StrategyProfile((v, 0.5)), "strategy"),
    "StrategyProfile.fixed": (lambda v: sd.StrategyProfile.fixed((v, 0.5)), "strategy"),
}


def _input_cases():
    """(call, name, value, reference): the call must give at value what it
    gives at reference, or with reference None refuse value."""
    for key, (call, name, good) in INTEGERS.items():
        yield pytest.param(call, name, good, good, id=f"{key}-int")
        yield pytest.param(call, name, np.int64(good), good, id=f"{key}-int64")
        for bad in (True, np.True_, "0.5", 2.5):
            yield pytest.param(call, name, bad, None, id=f"{key}-{bad!r}")
    accepted = {"float": 0.75, "float32": np.float32(0.75), "float64": np.float64(0.75), "int": 1}
    for key, (call, name) in REALS.items():
        for kind, value in accepted.items():
            yield pytest.param(call, name, value, float(value), id=f"{key}-{kind}")
        yield pytest.param(call, name, np.int64(1), 1.0, id=f"{key}-int64")
        for bad in (True, np.True_, "0.5", math.nan):
            yield pytest.param(call, name, bad, None, id=f"{key}-{bad!r}")


@pytest.mark.parametrize("call, name, value, reference", list(_input_cases()))
def test_one_input_policy(call, name, value, reference):
    # any integer, numpy's too, is a count or seat, and any real number a
    # threshold or score; a bool, a str, a non-integral count or NaN is
    # refused with a ValueError whose message starts with the parameter
    if reference is None:
        with pytest.raises(ValueError) as refusal:
            call(value)
        assert str(refusal.value).startswith(f"{name} "), refusal.value
    else:
        assert call(value) == call(reference)


def _dotted(node):
    """`a.b` for an attribute of a name, `a` for a name, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else None


def test_only_score_decides_what_an_integer_is():
    # the one input policy lives in score (`_integer`, `_real`, `_threshold`,
    # `_thresholds`): no other module may take a value through
    # operator.index, read __index__ or test for a bool on its own
    offenders = []
    for path in sorted((ROOT / "src" / "showdown").glob("*.py")):
        if path.name == "score.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if "__index__" in (getattr(node, "attr", None), getattr(node, "value", None)):
                offenders.append(f"{where} reads __index__")
            elif _dotted(node) == "operator.index" or (
                isinstance(node, ast.ImportFrom)
                and node.module == "operator"
                and any(alias.name == "index" for alias in node.names)
            ):
                offenders.append(f"{where} takes operator.index")
            elif isinstance(node, ast.Call) and _dotted(node.func) == "isinstance" and node.args[1:]:
                kinds = node.args[1]
                kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                if {"bool", "np.bool_", "numpy.bool_"} & {_dotted(k) for k in kinds}:
                    offenders.append(f"{where} tests isinstance(..., bool)")
    assert offenders == []
