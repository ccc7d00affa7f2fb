"""Every result record is an immutable named tuple: its fields cannot be
assigned, `_replace` gives an equal record with one field changed, and a
record that checks its fields on construction checks them on `_replace`
too.  `algorithms.AdvicePair` alone stays a frozen dataclass."""

import copy
import importlib
import pickle
from fractions import Fraction

import pytest

from asg.adversary import GameRound, GameTranscript, MaxGameOutcome, StrategyCover
from asg.bounds import BoundReport, CurvePoint, QuotientApproxReport
from asg.core import RunResult
from asg.designs import CoveringDesign, CoverNumberBounds, DesignProvenance
from asg.problems import DisjointPathInstance, KnapsackInstance, SetCoverInstance, VertexArrivalGraph
from asg.suite import BatteryResult, ExperimentConfig, SuiteReport

# class -> (constructor arguments, a field to replace, its new value)
RECORDS = {
    RunResult: (("0110", 2, 5), "score", 3),
    CoveringDesign: ((3, 3, 0, ((1, 2, 3),)), "blocks", ((1, 2, 3), (1, 2, 3))),
    DesignProvenance: ((8, 5, 4, "search", 361052, 20, 20), "nodes", 0),
    CoverNumberBounds: ((5, 3, 2, 4, 5), "upper", 6),
    GameRound: ((1, 3, 1, 0, True, False), "punished", True),
    GameTranscript: (("1", "1", 1, (GameRound(1, 1, 1, 1, True, False),)), "score", 2),
    MaxGameOutcome: (("101", ("000",)), "outputs", ("111", "101")),
    StrategyCover: ((3, 2, ("011", "101", "110")), "count", 1),
    BoundReport: ((100, Fraction(3, 2), 47.0, 35.0, 67.0, {}), "n", 101),
    QuotientApproxReport: ((10, Fraction(3), 2, (6, 2), 1.0, 2.0, True, True), "upper_ok", False),
    CurvePoint: ((Fraction(3), 0.2, 0.3, 0.1, None), "sg_bits_per_request", 0.5),
    VertexArrivalGraph: ((3, frozenset({(1, 2)})), "edges", frozenset({(1, 3), (2, 3)})),
    SetCoverInstance: (((1, 2), ((1,), (2,))), "requests", ((1, 2),)),
    DisjointPathInstance: ((4, ((0, 2),)), "requests", ((0, 2), (2, 4))),
    KnapsackInstance: (((Fraction(1, 2),),), "weights", (Fraction(1, 3), Fraction(1, 2))),
    ExperimentConfig: ((), "seed", 3),
    BatteryResult: (("envelope", True, 8, "8 ratios sandwiched"), "witness", "c=2"),
    SuiteReport: ((ExperimentConfig(), ()), "results", (BatteryResult("curve", True, 1, "ok"),)),
}
MODULES = ("core", "designs", "adversary", "bounds", "problems", "suite", "algorithms",
           "reductions", "cover", "cli")


def test_every_public_record_is_a_named_tuple_but_advice_pair():
    named, dataclasses = set(), set()
    for name in MODULES:
        module = importlib.import_module(f"asg.{name}")
        for attr in getattr(module, "__all__", ()):
            value = getattr(module, attr)
            if isinstance(value, type) and issubclass(value, tuple) and hasattr(value, "_fields"):
                named.add(value)
            if hasattr(value, "__dataclass_fields__"):
                dataclasses.add(value.__name__)
    assert named == set(RECORDS)
    assert len(RECORDS) == 18
    assert dataclasses == {"AdvicePair"}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned(cls):
    record = cls(*RECORDS[cls][0])
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):  # no instance dict either
        record.extra = None


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_replace_changes_one_field(cls):
    args, field, value = RECORDS[cls]
    record = cls(*args)
    changed = record._replace(**{field: value})
    assert type(changed) is cls
    assert getattr(changed, field) == value
    if cls is KnapsackInstance:  # loads and scale follow the weights
        assert changed == KnapsackInstance(value) and (changed.loads, changed.scale) == ((2, 3), 6)
    else:
        assert changed == cls(**{**record._asdict(), field: value})
    assert record == cls(*args)  # the original is untouched


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_copy_and_pickle_give_an_equal_record(cls):
    record = cls(*RECORDS[cls][0])
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: VertexArrivalGraph(3, frozenset({(2, 1)})), "edge (2,1) out of order or range"),
        (lambda: VertexArrivalGraph(3, frozenset())._replace(edges=frozenset({(1, 4)})),
         "edge (1,4) out of order or range"),
        (lambda: SetCoverInstance((1, 2), ((1,),)), "requests must union to the universe"),
        (lambda: SetCoverInstance((1,), ((1,),))._replace(universe=(1, 2)),
         "requests must union to the universe"),
        (lambda: DisjointPathInstance(4, ((0, 5),)), "request (0,5) leaves the path"),
        (lambda: DisjointPathInstance(4, ())._replace(length=1, requests=((1, 1),)),
         "request (1,1) leaves the path"),
        (lambda: KnapsackInstance((Fraction(3, 2),)), "knapsack weight 3/2 is outside [0, 1]"),
        (lambda: KnapsackInstance(())._replace(weights=(2,)), "knapsack weight 2 is outside [0, 1]"),
        (lambda: ExperimentConfig(seed=-1), "seed must be nonnegative"),
        (lambda: ExperimentConfig(n_max=0), "n_max must be positive"),
        (lambda: ExperimentConfig(grid_max=0), "grid_max must be positive"),
        (lambda: ExperimentConfig(ratios=("0",)), "ratios must be positive"),
        (lambda: ExperimentConfig(output_format="xml"), "unknown format 'xml'"),
        (lambda: ExperimentConfig()._replace(seed=-1), "seed must be nonnegative"),
    ],
)
def test_construction_checks_hold_on_replace_too(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message


def test_config_reads_its_ratios_on_replace_too():
    assert ExperimentConfig(ratios=["3/2", 2]).ratios == (Fraction(3, 2), Fraction(2))
    assert ExperimentConfig()._replace(ratios=("3/2",)).ratios == (Fraction(3, 2),)
