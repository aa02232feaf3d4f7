"""The plain result classes behave as the dataclasses they replace.

Warm-path modules define their result classes on ``repro.record.Record``
so that a warm CLI run never imports ``dataclasses``.  A record's fields
are its ``__init__`` parameters, so these tests check that each
constructor sets exactly those attributes, and pin what ``@dataclass``
gave: positional and keyword construction, fresh mutable defaults,
field-wise ``==``, unhashability, ``repr`` and pickling.
"""

from __future__ import annotations

import inspect
import pickle

import pytest

from repro.analysis.checkers.base import Finding, RawFinding
from repro.analysis.clients.deadstore import DeadStoreReport
from repro.analysis.common import AnalysisResult, Counters
from repro.analysis.compare import ComparisonReport, IndirectOpDiff
from repro.analysis.slicing import SliceResult
from repro.analysis.stats import (
    ContextStats,
    IndirectOpStats,
    PairCensus,
    ProgramSizes,
    PruningCoverage,
    StructureStats,
)
from repro.record import Record

CLASSES = [AnalysisResult, ComparisonReport, ContextStats, Counters,
           DeadStoreReport, Finding, IndirectOpDiff, IndirectOpStats,
           PairCensus, ProgramSizes, PruningCoverage, RawFinding,
           SliceResult, StructureStats]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_constructor_sets_exactly_its_parameters(cls):
    assert issubclass(cls, Record)
    params = list(inspect.signature(cls).parameters)
    assert list(cls._fields) == params
    args = [f"v{i}" for i in range(len(params))]
    assert vars(cls(*args)) == dict(zip(params, args))


def test_finding_behaves_as_a_dataclass():
    args = ("uninit", "insensitive", "main", "lookup#1", "x.c:3", "p",
            "warning", "reads a pointer that may be uninitialized")
    finding = Finding(*args)
    assert finding.witness == ""
    assert finding == Finding(*args[:-1], message=args[-1], witness="")
    assert finding != Finding(*args, witness="w")
    assert finding != args
    with pytest.raises(TypeError):
        hash(finding)
    assert repr(finding) == (
        "Finding(checker='uninit', flavor='insensitive', function='main', "
        "node='lookup#1', origin='x.c:3', path='p', severity='warning', "
        "message='reads a pointer that may be uninitialized', "
        "witness='')")
    copy = pickle.loads(pickle.dumps(finding))
    assert copy == finding and copy is not finding


def test_mutable_defaults_are_fresh():
    a, b = DeadStoreReport(), DeadStoreReport()
    a.dead.append("update#1")
    assert b.dead == [] and b == DeadStoreReport()
    assert ContextStats().per_procedure is not ContextStats().per_procedure
    counters = Counters(transfers=1)
    counters.meets += 2
    assert counters == Counters(1, 2) and counters != Counters(1, 2, 0, 1)
    assert repr(counters) == \
        "Counters(transfers=1, meets=2, pairs_added=0, batches=0)"
