import json

import pytest

from finmodel.formula import FormulaPack, parse, subformula_closure
from finmodel.graph import cycle_graph, make_graph
from finmodel.serialize import (
    canonical_dumps,
    graph_from_edge_list,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    structure_from_json,
    structure_from_matrix,
    structure_to_json,
)
from finmodel.formula import pack_from_json
from finmodel.structure import FinStructure
from finmodel.universe import build_hierarchy


def test_structure_json_round_trip():
    N = FinStructure(3, frozenset({(0, 1), (2, 0)}), labels={0: "zero"}, codes=(0, 1, 3))
    back = structure_from_json(json.loads(json.dumps(structure_to_json(N))))
    assert back.size == N.size and back.pairs == N.pairs
    assert back.labels == {0: "zero"} and back.codes == (0, 1, 3)


def test_structure_matrix_round_trip():
    # V3 is codes 0..3, where 0 is in 1 and 3, and 1 is in 2 and 3
    N = build_hierarchy(3).structure
    back = structure_from_matrix("0101\n0011\n0000\n0000\n")
    assert back.size == N.size and back.pairs == N.pairs
    with pytest.raises(ValueError):
        structure_from_matrix("01\n0")


def test_graph_json_and_edge_list_round_trip():
    G = make_graph([0, 1, 2, 5], [(0, 1), (1, 2)])  # 5 isolated
    assert graph_from_json(graph_to_json(G)) == G
    assert graph_from_json(json.loads('{"vertices": [0, 1, 2, 5], "edges": [[1, 0], [1, 2]]}')) == G
    assert graph_from_edge_list("0 1\n2 1\n\n5\n") == G
    with pytest.raises(ValueError):
        graph_from_edge_list("1 2 3")


def test_dot_export_colors_parts():
    c4 = cycle_graph(4)
    parts = [make_graph(range(4), [(0, 1), (2, 3)]), make_graph(range(4), [(1, 2), (0, 3)])]
    dot = graph_to_dot(c4, parts)
    assert dot.startswith("graph G {")
    assert "0 -- 1 [color=red]" in dot
    assert "1 -- 2 [color=blue]" in dot
    assert dot.rstrip().endswith("}")


def test_pack_json_round_trip_accepts_text_formulas():
    pack = subformula_closure(FormulaPack("p", (parse("Ex (x in y)"),)))
    atom = {"tag": "membership", "left": {"var": "x"}, "right": {"var": "y"}}
    formulas = [{"tag": "exists", "var": "x", "body": atom}, atom]
    assert pack_from_json({"name": "p", "formulas": formulas, "closed_under_subformulas": True}) == pack
    mixed = pack_from_json({"name": "m", "formulas": ["Ex (x = x)"]})
    assert mixed.formulas == (parse("Ex (x = x)"),)


def test_canonical_dumps_is_stable():
    a = canonical_dumps({"b": 1, "a": [2, {"z": True, "y": None}]})
    b = canonical_dumps({"a": [2, {"y": None, "z": True}], "b": 1})
    assert a == b and a.endswith("\n")
