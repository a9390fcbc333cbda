"""Hand-worked cases for the benchmark's reference computations, each
also shown to reject a deliberately wrong answer.

    python3 -m pytest -q perfbench/test_reference.py
"""

import itertools

import reference as ref

C4 = [(0, 1), (1, 2), (2, 3), (0, 3)]
K4 = list(itertools.combinations(range(4), 2))
TRIANGLE = [(0, 1), (0, 2), (1, 2)]


def edges_of(*pairs):
    return frozenset(pairs)


# -- formulas ---------------------------------------------------------------


def test_render_and_free_variables():
    f = ("all", "u", ("imp", ("in", "u", "x"), ("not", ("eq", "u", "y"))))
    assert ref.render(f) == "Au ((u in x) -> ~(u = y))"
    assert ref.free_vars(f) == ["x", "y"]
    assert ref.free_vars(("ex", "x", ("in", "y", "x"))) == ["y"]


def test_textbook_evaluator():
    rel = {(0, 1)}  # 0 in 1
    has_member = ("ex", "u", ("in", "u", "x"))
    assert ref.holds(has_member, rel, range(2), {"x": 1}) is True
    assert ref.holds(has_member, rel, range(2), {"x": 0}) is False
    # relativized to {1}, the member 0 is out of reach
    assert ref.holds(has_member, rel, [1], {"x": 1}) is False
    everything_empty = ("all", "u", ("not", ("ex", "v", ("in", "v", "u"))))
    assert ref.holds(everything_empty, rel, range(2), {}) is False
    assert ref.holds(everything_empty, rel, [0], {}) is True


def test_absoluteness_first_counterexample():
    rel = {(0, 1), (0, 2)}
    empty = ("not", ("ex", "u", ("in", "u", "x")))
    # on M = {1, 2}: 1 and 2 look empty but are not
    assert ref.absoluteness(empty, rel, 3, [2, 1]) == (False, {"x": 1})
    assert ref.absoluteness(empty, rel, 3, [0, 1, 2]) == (True, None)
    # lexicographic order over (x, y), first occurrence first
    meet = ("ex", "u", ("and", ("in", "u", "x"), ("in", "u", "y")))
    assert ref.absoluteness(meet, rel, 3, [1, 2]) == (False, {"x": 1, "y": 1})
    # wrong answers are rejected: a later counterexample, or "absolute"
    assert ref.absoluteness(empty, rel, 3, [1, 2]) != (False, {"x": 2})
    assert ref.absoluteness(meet, rel, 3, [1, 2]) != (True, None)


# -- bonds ------------------------------------------------------------------


def test_bond_counts():
    assert len(ref.bonds(range(4), C4)) == 6
    assert len(ref.bonds(range(4), K4)) == 7
    two_triangles = TRIANGLE + [(3, 4), (3, 5), (4, 5)]
    assert len(ref.bonds(range(6), two_triangles)) == 6
    path = [(0, 1), (1, 2)]
    assert ref.bonds(range(3), path) == [edges_of((0, 1)), edges_of((1, 2))]


def test_bond_order_and_wrong_lists():
    got = ref.bonds(range(4), K4)
    assert [len(b) for b in got] == [3, 3, 3, 3, 4, 4, 4]
    assert got[0] == edges_of((0, 1), (0, 2), (0, 3))
    # a cut that is not minimal (two stars of K4 together) is no bond
    assert edges_of((0, 2), (0, 3), (1, 2), (1, 3)) in got
    assert edges_of((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)) not in got
    assert ref.bonds(range(4), C4, max_size=1) == []
    assert ref.same_bonds(got, range(4), K4)
    # wrong lists: a missing bond, a non-bond, the wrong order
    assert not ref.same_bonds(got[:-1], range(4), K4)
    assert not ref.same_bonds(got[:-1] + [edges_of((0, 1))], range(4), K4)
    assert not ref.same_bonds(got[::-1], range(4), K4)


# -- bond-faithful ------------------------------------------------------------


def test_bond_faithful_clauses():
    single = [edges_of(e) for e in C4]
    r = ref.bond_faithful(range(4), C4, single, 2)
    assert r["size_ok"] and not r["verdict"]
    assert not r["containment_ok"] and len(r["split"]) == 6
    # a lone edge is a bond of its part but no bond of C4
    assert not r["bond_preservation_ok"] and len(r["foreign"]) == 4
    whole = [frozenset(C4)]
    r = ref.bond_faithful(range(4), C4, whole, 2)
    assert not r["size_ok"] and r["oversized"] == [0] and r["containment_ok"]
    r = ref.bond_faithful(range(3), TRIANGLE, [frozenset(TRIANGLE)], 3)
    assert r["verdict"]
    path = [(0, 1), (1, 2)]
    assert ref.bond_faithful(range(3), path, [edges_of(e) for e in path], 1)["verdict"]


def test_bond_preservation_clause():
    # host: a triangle with a pendant edge.  Single-edge bonds of the
    # parts: {01} and {12} of part 0, {02} of part 1 and {23} of part 2;
    # only the pendant edge {23} is a bond of the host
    host = TRIANGLE + [(2, 3)]
    parts = [edges_of((0, 1), (1, 2)), edges_of((0, 2)), edges_of((2, 3))]
    r = ref.bond_faithful(range(4), host, parts, 2)
    assert not r["bond_preservation_ok"]
    assert sorted(r["foreign"], key=lambda x: sorted(x[1])) == [
        (0, edges_of((0, 1))), (1, edges_of((0, 2))), (0, edges_of((1, 2)))
    ]


def test_exhaustive_search():
    assert ref.find_bond_faithful(range(3), TRIANGLE, 2) is None
    assert ref.find_bond_faithful(range(3), TRIANGLE, 3) == [frozenset(TRIANGLE)]
    found = ref.find_bond_faithful(range(4), C4, 4)
    assert found is not None and ref.bond_faithful(range(4), C4, found, 4)["verdict"]
    assert ref.find_bond_faithful(range(4), C4, 3) is None
    # a wrong "found" answer is rejected by the checker
    assert not ref.bond_faithful(range(3), TRIANGLE, [edges_of(e) for e in TRIANGLE], 2)["verdict"]


def test_edge_partition():
    assert ref.is_edge_partition(C4, [frozenset(C4[:2]), frozenset(C4[2:])])
    assert not ref.is_edge_partition(C4, [frozenset(C4[:3]), frozenset(C4[2:])])
    assert not ref.is_edge_partition(C4, [frozenset(C4[:3])])


# -- slicing ------------------------------------------------------------------


def test_slices_from_stage_codes():
    # vertices coded 0 and 1, the edge object {0, 1} coded 3
    edges = [(0, 1)]
    assert ref.slices(edges, [{0, 1, 3}]) == [edges_of((0, 1))]
    three = ref.slices(edges, [{0}, {0, 1}, {0, 1, 3}])
    assert three == [frozenset(), frozenset(), edges_of((0, 1))]
    assert ref.partitions_edges(edges, three)
    # the edge object enters before its endpoint: the edge is lost
    lost = ref.slices(edges, [{0, 3}, {0, 1, 3}])
    assert not ref.partitions_edges(edges, lost)


def test_vertex_codes_and_closure():
    assert ref.vertex_codes(6) == [0, 1, 2, 4, 7, 8]
    assert ref.membership_closure([7]) == [0, 1, 2, 7]
    assert ref.membership_relation((0, 1, 2)) == {(0, 1), (1, 2)}


# -- witness closure ----------------------------------------------------------


def test_replay_and_closure():
    # codes 0, 1 = {0}, 2 = {1}, 3 = {0, 1}; positions equal codes
    codes = (0, 1, 2, 3)
    rel = ref.membership_relation(codes)
    table = ref.WitnessTable(rel, 4)
    container = ("ex", "z", ("in", "x", "z"))
    assert table.smallest(container, (0,)) == 1
    assert table.smallest(container, (2,)) is None
    trace = [(container, (("x", 0),), 1), (container, (("x", 1),), 2)]
    assert ref.replay(table, [container], {0}, trace, {0, 1, 2}) is None
    assert ref.closure_fault(table, [container], {0, 1, 2}) is None
    # wrong answers: a larger witness, a missing step, a parameter not yet present
    assert "smallest" in ref.replay(table, [container], {0}, [(container, (("x", 0),), 3)], {0, 3})
    assert ref.replay(table, [container], {0}, trace[:1], {0, 1, 2}) is not None
    assert "not yet present" in ref.replay(table, [container], {0}, trace[1:], {0, 2})
    assert "missing" in ref.closure_fault(table, [container], {0, 1})
