"""The cut-mask bond kernel and the exact bond-faithful search, each
against its brute-force route in ``finmodel.oracles``."""

import itertools

import pytest

import finmodel.decompose as decompose
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


def _assert_search_matches_walk(G, kappa, monkeypatch):
    """Status against the oracle; with the blocks replaced by the whole
    edge set, which passes only where that one block is admissible, the
    exact route's parts too: they partition the edges and pass the
    definition."""
    first = first_bond_faithful_partition(G, kappa)
    out = search_bond_faithful(G, kappa)
    assert out.status == ("proven-absent" if first is None else "found")
    with monkeypatch.context() as m:
        m.setattr(decompose, "biconnected_blocks", lambda H: [frozenset(H.edges)])
        exact = search_bond_faithful(G, kappa)
    assert exact.status == out.status
    if first is not None:
        parts = exact.decomposition.parts
        assert all(p.edges for p in parts)
        assert sorted(e for p in parts for e in p.edges) == sorted(G.edges)
        assert bond_faithful_by_definition(G, parts, kappa)
        assert exact.report.verdict


def test_search_matches_partition_walk_on_5_vertices_7_edges(monkeypatch):
    # all 120 labelled graphs on 5 vertices with 7 edges, kappa 1..3
    slots = list(itertools.combinations(range(5), 2))
    for edges in itertools.combinations(slots, 7):
        G = make_graph(range(5), edges)
        for kappa in (1, 2, 3):
            _assert_search_matches_walk(G, kappa, monkeypatch)


def test_search_matches_partition_walk_on_connected_gnp(monkeypatch):
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
            _assert_search_matches_walk(G, kappa, monkeypatch)
            statuses.add(search_bond_faithful(G, kappa).status)
    assert statuses == {"found", "proven-absent"}


def test_exact_search_over_sampled_host_bonds_stays_sampled(monkeypatch):
    # a 22-vertex path exceeds the enumeration cap, so its host bonds are
    # sampled, and most of its bridges are missing from the sample; with
    # the blocks replaced by an oversized candidate, the exact search must
    # still cover the path by admissible blocks and call the result sampled
    edges = [(i, i + 1) for i in range(21)]
    path22 = make_graph(range(22), edges)
    oversized = [frozenset(edges[:3])] + [frozenset([e]) for e in edges[3:]]
    monkeypatch.setattr(decompose, "biconnected_blocks", lambda H: oversized)
    out = search_bond_faithful(path22, 2)
    assert out.status == "sampled"
    assert out.report.verdict and out.report.sampled
    parts = out.decomposition.parts
    assert all(1 <= len(p.edges) <= 2 for p in parts)
    assert sorted(e for p in parts for e in p.edges) == edges


def _partitions_exist(masks, full):
    """Does some subfamily of ``masks`` partition ``full``?  Each mask in
    turn is left out or, when disjoint from those taken, put in."""
    def extend(i, taken):
        if taken == full:
            return True
        if i == len(masks):
            return False
        fits = not masks[i] & taken and not masks[i] & ~full
        return (fits and extend(i + 1, taken | masks[i])) or extend(i + 1, taken)

    return extend(0, 0)


def test_cover_matches_brute_force_on_random_families():
    rng = seeded(4242)
    outcomes = {True: 0, False: 0}
    for _ in range(600):
        bits = rng.randint(1, 9)
        masks = [rng.randrange(1, 1 << bits) for _ in range(rng.randint(0, 14))]
        full = (1 << bits) - 1 if rng.random() < 0.7 else rng.randrange(1 << bits)
        cover = decompose._cover(decompose._by_bit(masks), full, lambda: None)
        exists = _partitions_exist(masks, full)
        outcomes[exists] += 1
        assert (cover is not None) == exists
        if cover is not None:
            assert all(b in masks for b in cover)
            union = 0
            for b in cover:
                assert not b & union
                union |= b
            assert union == full
    assert min(outcomes.values()) >= 100


def test_blocks_within_kappa_are_bond_faithful():
    # the lemma of search_bond_faithful: once every block has at most
    # kappa edges, the blocks pass the definition, and the search returns
    # them without its exact route
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
            out = search_bond_faithful(G, kappa, budget=0)
            assert out.status == "found"
            assert [p.edges for p in out.decomposition.parts] == blocks
    assert bridged >= 5


def test_blocks_decide_where_the_subset_listing_runs_out_of_budget():
    # C(16, <=10) edge subsets overrun the default budget, but the blocks
    # (9 edges and seven bridges) pass at kappa 10
    G = make_graph(range(20), [
        (0, 9), (0, 13), (1, 11), (2, 5), (4, 12), (5, 6), (5, 16), (6, 15),
        (6, 16), (6, 17), (7, 15), (8, 19), (9, 17), (11, 18), (13, 18), (16, 18),
    ])
    out = search_bond_faithful(G, 10)
    assert out.status == "found"
    assert sorted(len(p.edges) for p in out.decomposition.parts) == [1] * 7 + [9]
    # past the enumeration cap the blocks of a path are its edges, which
    # pass against sampled host bonds
    path22 = make_graph(range(22), [(i, i + 1) for i in range(21)])
    out = search_bond_faithful(path22, 6)
    assert out.status == "sampled" and len(out.decomposition.parts) == 21


def test_search_budget_counts_candidate_blocks():
    # K4 with a 3-edge tail: 129 candidate blocks at kappa 3, then one
    # node of the cover search, which finds no cover
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    G = make_graph(range(7), k4 + [(3, 4), (4, 5), (5, 6)])
    assert search_bond_faithful(G, 3, budget=130).status == "proven-absent"
    assert search_bond_faithful(G, 3, budget=129).status == "budget-exhausted"
    assert search_bond_faithful(G, 3, budget=10).status == "budget-exhausted"


def test_a_fault_in_bond_enumeration_is_not_sampling(monkeypatch):
    # only the enumeration cap (an InputError) turns host bonds into a
    # sample; any other ValueError is a fault and propagates
    def fault(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(decompose, "enumerate_bonds", fault)
    c4 = make_graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(ValueError, match="injected"):
        check_bond_faithful(c4, [c4], 4)
    with pytest.raises(ValueError, match="injected"):
        search_bond_faithful(c4, 2)
