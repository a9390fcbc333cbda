"""The cut-mask bond kernel and the bond-faithful search, each against
its brute-force route in ``finmodel.oracles``."""

import itertools

import pytest

import finmodel.decompose as decompose
from finmodel import oracles
from finmodel.corpus import gnp_graph
from finmodel.decompose import check_bond_faithful, search_bond_faithful
from finmodel.graph import (
    Graph,
    biconnected_blocks,
    enumerate_bonds,
    is_connected,
    make_graph,
)
from finmodel.oracles import (
    bond_faithful_by_definition,
    bonds_by_definition,
    first_bond_faithful_partition,
)

from conftest import seeded


def test_enumerate_bonds_matches_definition_at_every_size_bound():
    # random graphs on up to 10 vertices, disconnected ones and isolated
    # vertices included, at every size bound from 1 to the edge count
    rng = seeded(1313)
    disconnected = 0
    for _ in range(60):
        n = rng.randint(1, 10)
        G = gnp_graph(n, rng.choice((0.15, 0.3, 0.5, 0.8)), rng)
        disconnected += not is_connected(G)
        want = bonds_by_definition(G)
        assert enumerate_bonds(G) == want
        for k in range(1, len(G.edges) + 1):
            assert enumerate_bonds(G, max_size=k) == [F for F in want if len(F) <= k]
    assert disconnected >= 10


def _assert_search_matches_walk(G, kappa):
    """Status against the oracle; found parts partition the edges and
    pass the definition."""
    first = first_bond_faithful_partition(G, kappa)
    out = search_bond_faithful(G, kappa)
    assert out.status == ("proven-absent" if first is None else "found")
    if first is not None:
        parts = out.decomposition.parts
        assert all(p.edges for p in parts)
        assert sorted(e for p in parts for e in p.edges) == sorted(G.edges)
        assert bond_faithful_by_definition(G, parts, kappa)
        assert out.report.verdict


def test_search_matches_partition_walk_on_5_vertices_7_edges():
    # all 120 labelled graphs on 5 vertices with 7 edges, kappa 1..3
    slots = list(itertools.combinations(range(5), 2))
    for edges in itertools.combinations(slots, 7):
        G = make_graph(range(5), edges)
        for kappa in (1, 2, 3):
            _assert_search_matches_walk(G, kappa)


def test_search_matches_partition_walk_on_connected_gnp():
    # connected gnp graphs on 6..8 vertices with at most 10 edges, kappa 1..3
    rng = seeded(2024)
    graphs = []
    while len(graphs) < 24:
        n = rng.randint(6, 8)
        G = gnp_graph(n, 0.35, rng)
        if is_connected(G) and len(G.edges) <= 10:
            graphs.append(G)
    statuses = set()
    for G in graphs:
        for kappa in (1, 2, 3):
            _assert_search_matches_walk(G, kappa)
            statuses.add(search_bond_faithful(G, kappa).status)
    assert statuses == {"found", "proven-absent"}


def test_exact_search_over_sampled_host_bonds_stays_sampled():
    # a 22-vertex path is one component past the 20-vertex enumeration
    # cap, which once sampled its host bonds; its blocks, the single
    # edges, fit kappa 2 and are split by no part, so the answer is found
    # exactly, with no bond enumerated
    edges = [(i, i + 1) for i in range(21)]
    path22 = make_graph(range(22), edges)
    out = search_bond_faithful(path22, 2)
    assert out.status == "found"
    assert out.report.verdict and not out.report.sampled
    assert [sorted(p.edges) for p in out.decomposition.parts] == [[e] for e in edges]


def test_blocks_within_kappa_are_bond_faithful():
    # the "if" half of the theorem in search_bond_faithful: once every
    # block has at most kappa edges, the blocks pass the definition, and
    # the search returns them
    rng = seeded(1973)
    bridged = 0
    for _ in range(40):
        G = gnp_graph(rng.randint(2, 9), rng.choice((0.2, 0.35, 0.5)), rng)
        blocks = biconnected_blocks(G)
        bridged += any(len(b) == 1 for b in blocks) and any(len(b) > 1 for b in blocks)
        parts = [Graph(frozenset(v for e in b for v in e), b) for b in blocks]
        largest = max(map(len, blocks), default=1)
        for kappa in (largest, largest + 1):
            assert bond_faithful_by_definition(G, parts, kappa)
            out = search_bond_faithful(G, kappa)
            assert out.status == "found"
            assert [p.edges for p in out.decomposition.parts] == blocks
    assert bridged >= 5


def test_blocks_decide_where_the_subset_listing_runs_out_of_budget():
    # 16 edges on 20 vertices: the blocks (9 edges and seven bridges) pass
    # at kappa 10
    G = make_graph(range(20), [
        (0, 9), (0, 13), (1, 11), (2, 5), (4, 12), (5, 6), (5, 16), (6, 15),
        (6, 16), (6, 17), (7, 15), (8, 19), (9, 17), (11, 18), (13, 18), (16, 18),
    ])
    out = search_bond_faithful(G, 10)
    assert out.status == "found"
    assert sorted(len(p.edges) for p in out.decomposition.parts) == [1] * 7 + [9]
    # past the enumeration cap the blocks of a path are its edges, which
    # the check passes exactly, as it splits no block
    path22 = make_graph(range(22), [(i, i + 1) for i in range(21)])
    out = search_bond_faithful(path22, 6)
    assert out.status == "found" and len(out.decomposition.parts) == 21
    assert out.report.verdict and not out.report.sampled


def test_search_budget_counts_candidate_blocks():
    # K4 with a 3-edge tail: the 6-edge block of K4 decides, absent at
    # kappa 3 and found at kappa 6, where K4 and each tail edge are parts
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    G = make_graph(range(7), k4 + [(3, 4), (4, 5), (5, 6)])
    assert search_bond_faithful(G, 3) == ("proven-absent", None, None)
    found = search_bond_faithful(G, 6)
    assert found.status == "found"
    assert [sorted(p.edges) for p in found.decomposition.parts] == [
        k4, [(3, 4)], [(4, 5)], [(5, 6)]
    ]


def test_one_oversized_block_proves_absence_at_once():
    # the 3x4 grid and K7 are single blocks, of 17 and 21 edges
    rows = [(v, v + 1) for v in range(12) if v % 4 < 3]
    grid = make_graph(range(12), rows + [(v, v + 4) for v in range(8)])
    k7 = make_graph(range(7), itertools.combinations(range(7), 2))
    for G, kappa in ((grid, 8), (grid, 16), (k7, 10), (k7, 20)):
        assert search_bond_faithful(G, kappa) == ("proven-absent", None, None)
    whole = search_bond_faithful(grid, 17)
    assert whole.status == "found" and whole.decomposition.parts == (grid,)


def test_a_fault_in_bond_enumeration_is_not_sampling(monkeypatch):
    # a fault in the enumeration of a split block's bonds propagates; the
    # search splits no block, so it enumerates no bond and never meets it
    def fault(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(decompose, "enumerate_bonds", fault)
    c4 = make_graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    halves = [make_graph(range(3), [(0, 1), (1, 2)]), make_graph([0, 2, 3], [(2, 3), (0, 3)])]
    with pytest.raises(ValueError, match="injected"):
        check_bond_faithful(c4, halves, 2)
    assert check_bond_faithful(c4, [c4], 4).verdict
    for kappa in (1, 4):
        assert search_bond_faithful(c4, kappa).status == "found"


def _graphs_on_5_vertices_upto_8_edges():
    """One graph per isomorphism class: the first labelled graph met
    whose edge list, relabelled by the least permutation, is new."""
    slots = list(itertools.combinations(range(5), 2))
    seen = {}
    for r in range(9):
        for edges in itertools.combinations(slots, r):
            key = min(
                tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in edges))
                for p in itertools.permutations(range(5))
            )
            seen.setdefault(key, edges)
    return [make_graph(range(5), edges) for edges in seen.values()]


def test_partition_is_bond_faithful_exactly_when_no_block_is_split():
    # the theorem of search_bond_faithful, both directions, against the
    # definition: every partition into parts of at most kappa edges, for
    # kappa from 2 to the edge count, of every 5-vertex graph with at most
    # 8 edges up to isomorphism; the search finds one exactly where one
    # passes.  The lemma of check_bond_faithful, at list level: its split
    # and foreign bonds, enumerated in the split blocks only, are those
    # the definition gives for the whole host and each whole part, in order.
    graphs = _graphs_on_5_vertices_upto_8_edges()
    assert len(graphs) == 32
    compared = 0
    for G in graphs:
        blocks = biconnected_blocks(G)
        host_bonds = bonds_by_definition(G)
        known = set(host_bonds)
        m = len(G.edges)
        passing = set()
        for partition in oracles._edge_partitions(sorted(G.edges), m):
            parts = [frozenset(p) for p in partition]
            whole = all(any(B <= p for p in parts) for B in blocks)
            members = [Graph(frozenset(v for e in p for v in e), p) for p in parts]
            for kappa in range(max([2, *map(len, parts)]), m + 1):
                passes = oracles.bond_faithful_by_definition(G, members, kappa)
                assert passes == whole, (sorted(G.edges), parts, kappa)
                report = check_bond_faithful(G, members, kappa)
                assert list(report.split_bonds) == [
                    F for F in host_bonds
                    if len(F) <= kappa and not any(F <= p for p in parts)
                ]
                assert list(report.foreign_bonds) == [
                    (i, F) for i, member in enumerate(members)
                    for F in bonds_by_definition(member)
                    if len(F) < kappa and F not in known
                ]
                passing.update([kappa] * passes)
                compared += 1
        for kappa in range(2, m + 1):
            found = search_bond_faithful(G, kappa).status == "found"
            assert found == (kappa in passing) == all(len(B) <= kappa for B in blocks)
    assert compared == 71_362
