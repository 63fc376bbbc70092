"""The record classes behave as the dataclasses they replaced: construction by
position and by keyword, ``==`` and the repr within one class, ``hash`` for the
records that were frozen, and ``TypeError`` on hashing the mutable ones. Each
class is checked against a dataclass made from its field names."""

from __future__ import annotations

from dataclasses import asdict, make_dataclass
from types import MappingProxyType

import pytest

from aicnet.corpus import Artifact, Corpus, Quote, Reading, ReadingStats, StatsTable
from aicnet.graphs import BipartiteGraph, WeightedGraph
from aicnet.metrics import NetworkMetricsRow, NodeMetricsRow
from aicnet.semantic import EmbeddingStore, JointPair
from aicnet.synth import EdgeDiff, GroundTruth, SynthParams, VerificationReport
from aicnet.textpipe import SelectedWord, WordSelectionParams

_QUOTE = Quote("q1", "r1", "A  passage")
_NOTE = Artifact("a1", "ana", "r1", "annotation", "body", "q1")
_DIFF = EdgeDiff(("a", "b"), 1.0, None)

# (class, frozen as a dataclass, two argument tuples that differ in every field)
CASES = [
    (Quote, True, ("q1", "r1", "A  passage"), ("q2", "r2", "other")),
    (Artifact, True, ("a1", "ana", "r1", "annotation", "body", "q1", None, "t0"),
     ("p1", "ben", "r2", "reply", "", None, "a1", None)),
    (Reading, False, ("r1", MappingProxyType({"q1": _QUOTE}), (_NOTE,)),
     ("r2", MappingProxyType({}), ())),
    (Corpus, False, ({"r1": Reading("r1", {"q1": _QUOTE}, [_NOTE])}, {"ana"}), ({}, set())),
    (ReadingStats, True, ("r1", 2, 1, 3.5), ("r2", 3, 0, None)),
    (StatsTable, True, ((ReadingStats("r1", 2, 1, 3.5),), 2.0, 0.0, 1.0, 0.0),
     ((), None, None, None, None)),
    (WeightedGraph, False, ({"a", "b"}, {("a", "b"): 1.0}), ({"c"}, {})),
    (BipartiteGraph, False, ({"a"}, {("a", "idea")}), ({"b"}, set())),
    (NodeMetricsRow, True, ("a", 0.5, None, 0.25), ("b", None, 0.1, None)),
    (NetworkMetricsRow, True, ("r1", 0.5, 0.2, None), ("r2", None, None, 0.3)),
    (EmbeddingStore, False, (2, {"q1": (1.0, 0.0)}), (3, {})),
    (JointPair, True, ("q1", "q2", 0.9), ("q3", "q4", 0.8)),
    (WordSelectionParams, True, (4, 1, 10, frozenset({"plie"}), frozenset({"idea"})),
     (5, 5, 70, frozenset(), None)),
    (SelectedWord, True, ("idea", "ana", 1.5), ("plan", "ben", 2.0)),
    (SynthParams, False, (2, (("a", "b"),), (("a", "b"),), {("a", "b"): 1}, 7),
     (3, (("c",), ("d",)), (), {}, 0)),
    (GroundTruth, False,
     (WeightedGraph({"a", "b"}, {("a", "b"): 1.0}), WeightedGraph({"a", "b"}),
      WeightedGraph({"a", "b"}, {("a", "b"): 2.0})),
     (WeightedGraph({"c"}), WeightedGraph({"c", "d"}, {("c", "d"): 1.0}), WeightedGraph())),
    (EdgeDiff, True, (("a", "b"), 1.0, None), (("a", "c"), None, 2.0)),
    (VerificationReport, False, ([_DIFF], [], []), ([], [_DIFF], [_DIFF])),
]


@pytest.mark.parametrize("cls, frozen, a, b", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_behaves_as_its_dataclass(cls, frozen, a, b):
    twin = make_dataclass(cls.__name__, cls._fields, frozen=frozen)
    for args in (a, b):
        record = cls(*args)
        assert cls(**dict(zip(cls._fields, args))) == record
        assert tuple(getattr(record, name) for name in cls._fields) == args
        assert repr(record) == repr(twin(*args))
        if frozen:
            assert hash(record) == hash(twin(*args))
        else:
            with pytest.raises(TypeError):
                hash(record)
        assert record != twin(*args)  # a record equals only its own class
    # one field changed at a time: the records are unequal as their twins are
    for i in range(len(a)):
        mixed = a[:i] + b[i:i + 1] + a[i + 1:]
        assert (cls(*mixed) == cls(*a)) is (twin(*mixed) == twin(*a)) is False
    if not issubclass(cls, tuple):
        assert type("Sub", (cls,), {})(*a) != cls(*a)


def test_defaults_are_the_dataclass_defaults():
    assert Artifact("a1", "ana", "r1", "reply", "") == (
        Artifact("a1", "ana", "r1", "reply", "", None, None, None))
    assert Reading("r1") == Reading("r1", {}, [])
    assert Corpus() == Corpus({}, set())
    assert WeightedGraph() == WeightedGraph(set(), {})
    assert BipartiteGraph() == BipartiteGraph(set(), set())
    assert WordSelectionParams() == WordSelectionParams(5, 5, 70, frozenset(), None)
    assert SynthParams(1, (("a", "b"),)) == SynthParams(1, (("a", "b"),), (), {}, 0)
    with pytest.raises(TypeError):  # the shared default mapping is read-only
        SynthParams(1, (("a", "b"),)).vocab_overlap[("a", "b")] = 1
    # each mutable default is a new container
    assert Corpus().authors is not Corpus().authors
    assert WeightedGraph().edges is not WeightedGraph().edges


@pytest.mark.parametrize("cls, args", [
    (ReadingStats, ("r1", 2, 1, 3.5)),
    (NodeMetricsRow, ("a", 0.5, None, 0.25)),
    (NetworkMetricsRow, ("r1", 0.5, 0.2, None)),
])
def test_report_rows_give_the_dict_asdict_gave(cls, args):
    assert cls(*args)._asdict() == asdict(make_dataclass(cls.__name__, cls._fields)(*args))

