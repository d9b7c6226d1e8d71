"""The contract of the ten public result records: frozen values built by
position or keyword, compared and hashed by their field tuple, with the
dataclass repr and a signature that lists their fields."""

import inspect
import pickle

import pytest

from showdown import (
    CoalitionReport,
    PayoffSpec,
    ProfileOutcome,
    SeqEquilibrium,
    SeqState,
    SimConfig,
    SimReport,
    StoppingSolution,
    StrategyProfile,
    SymmetricEquilibrium,
    Variant,
)

REQUIRED = inspect.Parameter.empty


class Payoff:
    """A closed-form payoff with a fixed repr, equal to every other Payoff,
    so a PayoffSpec holding one has a stable repr and survives pickling."""

    def values(self, xs):
        return xs

    def pieces(self):
        return (0.0, 1.0), (1,)

    def __repr__(self):
        return "Payoff()"

    def __eq__(self, other):
        return isinstance(other, Payoff)

    def __hash__(self):
        return 0


# (class, field values in order, defaults, repr as the dataclass printed it)
RECORDS = [
    (PayoffSpec, {"h": Payoff(), "h0": 0.0}, {}, "PayoffSpec(h=Payoff(), h0=0.0)"),
    (
        StoppingSolution,
        {"kappa": 0.5, "expected_payoff": 0.25, "h_tilde_at_kappa": 0.75},
        {},
        "StoppingSolution(kappa=0.5, expected_payoff=0.25, h_tilde_at_kappa=0.75)",
    ),
    (SeqState, {"remaining": 3, "best_score": 0.5}, {}, "SeqState(remaining=3, best_score=0.5)"),
    (
        SeqEquilibrium,
        {"n": 2, "thetas": (0.0, 0.5), "win_probs": (0.4, 0.6), "residuals": (0.0, 1e-17)},
        {},
        "SeqEquilibrium(n=2, thetas=(0.0, 0.5), win_probs=(0.4, 0.6), residuals=(0.0, 1e-17))",
    ),
    (
        CoalitionReport,
        {"coalition": "1+3", "first_threshold": 0.6, "victim": 2, "victim_win_prob": 0.2,
         "nash_baseline": 0.3},
        {},
        "CoalitionReport(coalition='1+3', first_threshold=0.6, victim=2, victim_win_prob=0.2, "
        "nash_baseline=0.3)",
    ),
    (
        SymmetricEquilibrium,
        {"variant": Variant.EXTERNAL, "n": 2, "groups": ((0.5, 2, 0.4, 0.4),), "tie_prob": 0.2,
         "residuals": (0.0,)},
        {},
        "SymmetricEquilibrium(variant=<Variant.EXTERNAL: 'ii.1'>, n=2, "
        "groups=((0.5, 2, 0.4, 0.4),), tie_prob=0.2, residuals=(0.0,))",
    ),
    (
        ProfileOutcome,
        {"thresholds": (0.5, 0.6), "win_probs": (0.4, 0.5), "tie_prob": 0.1, "advantaged": 1},
        {"advantaged": None},
        "ProfileOutcome(thresholds=(0.5, 0.6), win_probs=(0.4, 0.5), tie_prob=0.1, advantaged=1)",
    ),
    (
        StrategyProfile,
        {"strategies": (0.5, "seq-optimal")},
        {},
        "StrategyProfile(strategies=(0.5, 'seq-optimal'))",
    ),
    (
        SimConfig,
        {"trials": 10, "seed": 3, "chunk_count": 2},
        {"seed": 0, "chunk_count": 1},
        "SimConfig(trials=10, seed=3, chunk_count=2)",
    ),
    (
        SimReport,
        {"mode": "simultaneous", "variant": Variant.ZERO_SUM, "thresholds_used": (0.5, 0.6),
         "trials": 10, "seed": 0, "chunk_count": 1, "win_counts": (4, 5), "tie_count": 1,
         "score_tie_count": 0},
        {},
        "SimReport(mode='simultaneous', variant=<Variant.ZERO_SUM: 'ii.2'>, "
        "thresholds_used=(0.5, 0.6), trials=10, seed=0, chunk_count=1, win_counts=(4, 5), "
        "tie_count=1, score_tie_count=0)",
    ),
]

cases = pytest.mark.parametrize(
    "cls, fields, defaults, text", RECORDS, ids=[case[0].__name__ for case in RECORDS]
)


@cases
def test_built_by_position_or_keyword(cls, fields, defaults, text):
    values = tuple(fields.values())
    r = cls(*values)
    assert r == cls(**fields)
    assert tuple(getattr(r, name) for name in fields) == values
    assert repr(r) == text
    required = {name: v for name, v in fields.items() if name not in defaults}
    bare = cls(**required)
    assert all(getattr(bare, name) == default for name, default in defaults.items())


@cases
def test_signature_lists_fields_and_defaults(cls, fields, defaults, text):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == [
        (name, defaults.get(name, REQUIRED)) for name in fields
    ]
    assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


@cases
def test_bad_arguments_raise_type_error(cls, fields, defaults, text):
    values = tuple(fields.values())
    first = next(iter(fields))
    with pytest.raises(TypeError):  # missing
        cls(**{name: v for name, v in fields.items() if name != first})
    with pytest.raises(TypeError):  # unknown
        cls(*values, unknown=0)
    with pytest.raises(TypeError):  # duplicate
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError):  # too many
        cls(*values, None)


@pytest.mark.parametrize(
    "cls, fields",
    [case[:2] for case in RECORDS if hasattr(case[0], "__post_init__")],
    ids=[case[0].__name__ for case in RECORDS if hasattr(case[0], "__post_init__")],
)
def test_post_init_sees_every_field(cls, fields, monkeypatch):
    seen, check = [], cls.__post_init__

    def spy(self):
        seen.append(list(vars(self).items()))
        check(self)

    monkeypatch.setattr(cls, "__post_init__", spy)
    cls(*fields.values())
    assert seen == [list(fields.items())]


@cases
def test_frozen(cls, fields, defaults, text):
    r = cls(*fields.values())
    for name in (next(iter(fields)), "extra"):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(r, name, 0)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(r, name)
    assert vars(r) == fields


@cases
def test_equality_hash_and_pickling(cls, fields, defaults, text):
    values = tuple(fields.values())
    r = cls(*values)
    assert hash(r) == hash(cls(*values)) == hash(values)
    assert r != values  # not a tuple, and not iterable like one
    with pytest.raises(TypeError):
        iter(r)
    assert r.__eq__(object()) is NotImplemented
    changed = pickle.loads(pickle.dumps(r))
    assert changed == r and type(changed) is cls and repr(changed) == text
    object.__setattr__(changed, next(reversed(fields)), "changed")
    assert changed != r
