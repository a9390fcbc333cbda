"""The contract every public record class keeps: the ``repr`` of its
constructor call, equality and hashing by field, pickling and copying,
and no assignment.  Results are ``NamedTuple`` records; ``Graph``,
``FinStructure``, ``FormulaPack`` and the formula nodes are plain frozen
classes.  Also: importing the CLI loads no ``dataclasses`` machinery."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

from finmodel import graph
from finmodel.combinatorics import DeltaSystem, FreeSetReport, SetFamily
from finmodel.decompose import (
    BondFaithfulReport,
    BondFaithfulSearch,
    ProbeCounterexample,
    ProbeInstance,
    ProbeReport,
    SliceSet,
)
from finmodel.formula import (
    BoundedExists,
    Const,
    Disjunction,
    Equality,
    Exists,
    FormulaPack,
    Membership,
    Negation,
    Var,
)
from finmodel.graph import (
    BondInheritance,
    CutWitness,
    CycleDecompositionResult,
    Decomposition,
    DoubleCoverResult,
    Graph,
)
from finmodel.hull import Chain, Hull, StageRecord, TraceStep
from finmodel.structure import AbsoluteCheck, ElementarityCheck, FinStructure
from finmodel.universe import GraphCodes, Hierarchy

from conftest import FINMODEL_ROOT

_ATOM = Membership(Var("x"), Const(1))
_G = Graph(frozenset({0, 1, 2}), frozenset({(0, 1), (1, 2)}))
_N = FinStructure(2, frozenset({(0, 1)}), {0: "a"}, (1, 2))
_PACK = FormulaPack("p", (_ATOM, Exists("x", _ATOM)), True)
_STEP = TraceStep(Exists("x", _ATOM), (("y", 1),), 0)
_STAGE = StageRecord(None, "initial", frozenset({1}), (_STEP,))
_PROBE = ProbeInstance(0, "ok", 2, 3, (ProbeCounterexample((1, 2), "delete", ("cut", (0, 1))),))
_REPORT_FIELDS = {
    "kappa": 2,
    "size_ok": True,
    "containment_ok": True,
    "bond_preservation_ok": False,
    "oversized_members": (1,),
    "split_bonds": (frozenset({(0, 1)}),),
    "foreign_bonds": ((0, frozenset({(1, 2)})),),
    "sampled": True,
}
_REPORT = BondFaithfulReport(**_REPORT_FIELDS)

# one instance of each class, given as its fields in order
SAMPLES = {
    Var: {"name": "x"},
    Const: {"ident": 3},
    Membership: {"left": Var("x"), "right": Const(1)},
    Equality: {"left": Var("y"), "right": Var("x")},
    Negation: {"body": _ATOM},
    Disjunction: {"left": _ATOM, "right": Negation(_ATOM)},
    Exists: {"var": "x", "body": _ATOM},
    BoundedExists: {"var": "y", "body": _ATOM},
    FormulaPack: {"name": "p", "formulas": (_ATOM,), "closed_under_subformulas": True},
    FinStructure: {"size": 2, "pairs": frozenset({(0, 1)}), "labels": {0: "a"}, "codes": (1, 2)},
    AbsoluteCheck: {"ok": False, "counterexample": {"x": 1}},
    ElementarityCheck: {"ok": False, "formula": _ATOM, "counterexample": None},
    Hierarchy: {"rank": 1, "structure": FinStructure(1, frozenset())},
    GraphCodes: {"vertex_code": {0: 1}, "edge_code": {(0, 1): 3}, "rank": 2},
    TraceStep: {"formula": Exists("x", _ATOM), "valuation": (("y", 1),), "witness": 0},
    Hull: {"seed": frozenset({1}), "carrier": frozenset({0, 1}), "trace": (_STEP,)},
    StageRecord: {"added_cover_element": 4, "self_encoding": "added", "seed": frozenset(), "trace": ()},
    Chain: {"stages": (frozenset({1}),), "pack": _PACK, "records": (_STAGE,), "coherent": None},
    Graph: {"vertices": frozenset({0, 1}), "edges": frozenset({(0, 1)})},
    CutWitness: {"side": frozenset({0}), "edges": frozenset({(0, 1)})},
    BondInheritance: {"kind": "confined", "component": frozenset({0, 1})},
    Decomposition: {"parts": (_G,)},
    CycleDecompositionResult: {"decomposition": None, "odd_vertex": 1},
    DoubleCoverResult: {"status": "found", "cycles": (frozenset({(0, 1), (1, 2), (0, 2)}),)},
    SliceSet: {"host": _G, "stages": (frozenset(),), "slices": (_G,), "stage_coherent": (True,), "covers_host": True},
    ProbeCounterexample: {"subset": (1,), "piece": "slice:1", "witness": None},
    ProbeInstance: {"index": 2, "status": "ok", "rank": 3, "candidates_tested": 4, "counterexamples": ()},
    ProbeReport: {"property_name": "nw", "pack_name": "pairing", "instances": (_PROBE,)},
    BondFaithfulReport: _REPORT_FIELDS,
    BondFaithfulSearch: {"status": "found", "decomposition": Decomposition((_G,)), "report": _REPORT},
    SetFamily: {"sets": (frozenset({1, 2}), frozenset({1}))},
    DeltaSystem: {"indices": (0, 1), "members": (frozenset({1, 2}), frozenset({1})), "kernel": frozenset({1})},
    FreeSetReport: {"chosen": frozenset({0, 2}), "maximum_size": None},
}


# ``finmodel.hull`` names the function; the module is in ``sys.modules``
_MODULES = ("formula", "structure", "universe", "hull", "graph", "decompose", "combinatorics")


def test_every_public_record_has_a_sample():
    records = {
        obj
        for mod in (sys.modules[f"finmodel.{name}"] for name in _MODULES)
        for name, obj in vars(mod).items()
        if isinstance(obj, type) and hasattr(obj, "_fields") and obj.__module__ == mod.__name__
        and not name.startswith("_")
    }
    assert records == {cls for cls in SAMPLES if issubclass(cls, tuple)} and len(records) == 24


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    fields = SAMPLES[cls]
    record, twin = cls(**fields), cls(*fields.values())
    given = dict(fields, degenerate=False) if cls is DeltaSystem else fields  # a default shows
    assert repr(record) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in given.items())})"
    assert record == twin and not record != twin
    try:
        assert hash(record) == hash(twin)
    except TypeError:  # a record holding a dict is unhashable, as the dict is
        assert any(isinstance(v, dict) for v in fields.values()) and cls is not FinStructure
    for again in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(again) is cls and again == record and repr(again) == repr(record)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, fields[name])
    assert getattr(record, name) == fields[name]


def test_structures_equal_up_to_labels_and_graphs_pickle_without_their_view():
    relabelled = FinStructure(2, frozenset({(0, 1)}), {0: "b", 1: "c"}, (1, 2))
    assert relabelled == _N and hash(relabelled) == hash(_N) and relabelled.labels != _N.labels
    assert FinStructure(2, frozenset({(0, 1)})) != _N  # codes are compared
    with pytest.raises(AttributeError):
        del _N.size
    assert _N.members == (0, 1) and "members" in vars(_N)  # cached beside the fields
    G = Graph(frozenset({0, 1, 2}), frozenset({(0, 1), (1, 2)}))
    assert graph.is_connected(G) and "_view" in vars(G)
    for again in (pickle.loads(pickle.dumps(G)), copy.copy(G)):
        assert again == G and "_view" not in vars(again)
    with pytest.raises(ValueError, match="canonical order"):
        Graph(frozenset({0, 1}), frozenset({(1, 0)}))


def test_cli_import_loads_no_dataclass_machinery():
    # what the import adds, so that a site hook loading either is not
    # counted against the package
    code = (
        "import sys; before = set(sys.modules); import finmodel.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": FINMODEL_ROOT}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout == "[]\n"
