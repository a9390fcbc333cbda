import hashlib
import itertools
import math
import pickle
import time

import pytest

import finmodel.graph as graph
from finmodel.corpus import gnp_graph
from finmodel.decompose import chain_slices
from finmodel.graph import (
    CutWitness,
    biconnected_blocks,
    bridges,
    check_bond_inheritance,
    complete_graph,
    components,
    cut_of,
    cut_to_bonds,
    cycle_double_cover_search,
    cycle_graph,
    delete_edges,
    edge_connectivity,
    edge,
    edge_disjoint_paths,
    enumerate_bonds,
    enumerate_cycles,
    is_bond,
    is_connected,
    is_cut,
    is_cycle,
    is_decomposition,
    make_graph,
    odd_cut_witness,
    restrict,
    veblen_decomposition,
)
from finmodel.oracles import (
    all_cuts,
    bonds_by_definition,
    bridges_by_deletion,
    cycles_by_subsets,
    double_cover_by_multisets,
    edge_connectivity_brute,
    is_bond_by_definition,
    is_double_cover,
    odd_cut_by_definition,
    separates,
)
from finmodel.universe import recode_graph

from conftest import bowtie, edge_slot_count, random_bitmask_graph, seeded

C4 = cycle_graph(4)
K4 = complete_graph(4)


def _every_graph_on(labels):
    slots = list(itertools.combinations(labels, 2))
    for mask in range(1 << len(slots)):
        yield make_graph(labels, [slots[i] for i in range(len(slots)) if mask >> i & 1])


def _edge_subsets(edges):
    for mask in range(1 << len(edges)):
        yield [edges[i] for i in range(len(edges)) if mask >> i & 1]


def _random_graphs(count, max_n, seed, min_n=2):
    rng = seeded(seed)
    for _ in range(count):
        n = rng.randint(min_n, max_n)
        mask = rng.randrange(1 << edge_slot_count(n))
        yield random_bitmask_graph(n, mask)


def test_restrict_known_cases():
    assert restrict(C4, C4.vertices) == C4
    c3 = cycle_graph(3)
    assert sorted(restrict(c3, {0, 1}).edges) == [(0, 1)]
    assert restrict(C4, set()) == make_graph([], [])


def test_restrict_edge_aware():
    # a slice keeps an edge only when its object code lies in the stage
    c3 = cycle_graph(3)  # edge objects 3, 5, 6
    kept = chain_slices(c3, [{0, 1, 3}]).slices[0]
    assert sorted(kept.edges) == [(0, 1)]
    dropped = chain_slices(c3, [{0, 1}]).slices[0]
    assert sorted(dropped.edges) == []


def test_delete_edges_known_cases():
    assert delete_edges(C4, set()) == C4
    c3 = cycle_graph(3)
    assert sorted(delete_edges(c3, {(0, 1)}).edges) == [(0, 2), (1, 2)]
    assert delete_edges(C4, C4.edges).edges == frozenset()
    # the object code 3 in a stage removes (0, 1) from the slice above it
    above = chain_slices(c3, [{3}, {0, 1, 2, 3, 5, 6}]).slices[-1]
    assert sorted(above.edges) == [(0, 2), (1, 2)]
    # delete_edges takes edges only
    with pytest.raises(TypeError):
        delete_edges(c3, {3})


def test_cut_of_known_cases():
    assert cut_of(C4, set()) == CutWitness(frozenset(), frozenset())
    assert sorted(cut_of(C4, {0, 1}).edges) == [(0, 3), (1, 2)]
    assert len(cut_of(K4, {0}).edges) == 3


def test_is_bond_known_cases():
    tree = make_graph(range(4), [(0, 1), (1, 2), (1, 3)])
    for e in tree.edges:
        assert is_bond(tree, {e})
    assert is_bond(C4, {(0, 1), (2, 3)})
    assert not is_bond(K4, {(0, 1), (0, 2), (0, 3), (1, 2)})


def test_is_bond_matches_definitional_oracle_exhaustive_n4():
    for mask in range(1 << edge_slot_count(4)):
        G = random_bitmask_graph(4, mask)
        for size in range(len(G.edges) + 1):
            for F in itertools.combinations(sorted(G.edges), size):
                assert is_bond(G, F) == is_bond_by_definition(G, F)


def test_is_bond_matches_oracle_random():
    # 500 random hosts on up to 9 vertices, a few candidates each, plus
    # every actual bond re-confirmed against the definition
    rng = seeded(3)
    for G in _random_graphs(500, 9, 31):
        edges = sorted(G.edges)
        cuts = all_cuts(G)
        nonempty = [c for c in cuts if c]
        for _ in range(6):
            size = rng.randint(0, min(4, len(edges)))
            fs = frozenset(rng.sample(edges, size))
            oracle = bool(fs) and fs in cuts and not any(c < fs for c in nonempty)
            assert is_bond(G, fs) == oracle
        for F in enumerate_bonds(G, max_size=3):
            assert is_bond_by_definition(G, F)


def test_cut_to_bonds_known_cases():
    bond = {(0, 1), (2, 3)}
    assert cut_to_bonds(C4, bond) == [frozenset(bond)]
    star = cut_of(C4, {1}).edges
    assert cut_to_bonds(C4, star) == [frozenset(star)]
    parts = cut_to_bonds(C4, C4.edges)
    assert len(parts) == 2 and all(len(p) == 2 for p in parts)


def test_cut_to_bonds_properties():
    for G in _random_graphs(40, 6, 17):
        for cut in sorted(all_cuts(G), key=sorted):
            if not cut:
                continue
            parts = cut_to_bonds(G, cut)
            assert frozenset().union(*parts) == cut
            assert sum(len(p) for p in parts) == len(cut)
            assert all(is_bond(G, p) for p in parts)


def test_cut_to_bonds_lists_bonds_in_enumerate_bonds_order():
    for G in _random_graphs(40, 6, 17):
        bonds = enumerate_bonds(G)
        for cut in all_cuts(G):
            parts = cut_to_bonds(G, cut)
            assert parts == [F for F in bonds if F in parts]


@pytest.mark.parametrize("k", [10, 20])
def test_cut_to_bonds_splits_a_two_bond_cut_fast(k):
    # a path X with a rung from each vertex to a path Y and to a path Z:
    # the cut of X is the bonds of Y and of Z, of k edges each, so a split
    # that tries the cut's edge subsets by size takes seconds at k = 10
    X, Y, Z = range(k), range(k, 2 * k), range(2 * k, 3 * k)
    paths = [(P[i], P[i + 1]) for P in (X, Y, Z) for i in range(k - 1)]
    G = make_graph(range(3 * k), paths + [(x, x + k) for x in X] + [(x, x + 2 * k) for x in X])
    start = time.perf_counter()
    parts = cut_to_bonds(G, cut_of(G, X).edges)
    assert time.perf_counter() - start < 1.0
    assert parts == [cut_of(G, Y).edges, cut_of(G, Z).edges]
    # enumerate_bonds' order, by size and then sorted edge list; the graph
    # is past its 20-vertex cap
    assert sorted(parts[0]) < sorted(parts[1])


def test_cut_to_bonds_rejects_non_cuts():
    with pytest.raises(ValueError):
        cut_to_bonds(C4, {(0, 1)})


def test_is_cut_matches_bipartition_oracle():
    # every graph on up to 4 vertices and every edge set F, also with an
    # edge outside G added; then random graphs on up to 5 vertices
    for n in range(5):
        for G in _every_graph_on(list(range(n))):
            cuts = all_cuts(G)
            outside = [e for e in itertools.combinations(range(n), 2) if e not in G.edges]
            for F in _edge_subsets(sorted(G.edges)):
                assert is_cut(G, F) == (frozenset(F) in cuts)
                if outside:
                    assert not is_cut(G, F + outside[:1])
    for G in _random_graphs(60, 5, 23):
        cuts = all_cuts(G)
        for size in range(min(4, len(G.edges)) + 1):
            for F in itertools.combinations(sorted(G.edges), size):
                assert is_cut(G, F) == (frozenset(F) in cuts)


# SHA-256 of the answers below, recorded from the code that answered each
# connectivity question on a fresh copy of G minus F
CONNECTIVITY_DIGEST = "290fb5213ee79f8ee939557cc31640decd44f57f0327ca01eae6067e1fd62984"
INHERITANCE_DIGEST = "1d449fbbf6ad6b658f586e74ea8093c1b1c6ed5522583d08df08932144849a8d"


def test_connectivity_answers_match_recorded_digests():
    # every graph on up to 5 vertices, labelled with the set codes 1, 2, 4,
    # 8, 16 so that labels differ from bit positions, and every edge set F;
    # each G minus F is itself one of the graphs
    digest = hashlib.sha256()
    for n in range(6):
        for G in _every_graph_on([1 << i for i in range(n)]):
            comps = [sorted(c) for c in components(G)]
            digest.update(repr((comps, is_connected(G))).encode())
            for F in _edge_subsets(sorted(G.edges)):
                digest.update(repr((is_cut(G, F), is_bond(G, F))).encode())
    assert digest.hexdigest() == CONNECTIVITY_DIGEST
    # every (host, subgraph, bond) triple on up to 4 vertices
    digest = hashlib.sha256()
    for n in range(1, 5):
        for G in _every_graph_on(list(range(n))):
            for k in range(n + 1):
                for vh in itertools.combinations(range(n), k):
                    avail = [e for e in sorted(G.edges) if e[0] in vh and e[1] in vh]
                    for eh in _edge_subsets(avail):
                        H = make_graph(vh, eh)
                        for F in enumerate_bonds(H):
                            found = check_bond_inheritance(G, H, F)
                            comp = None if found.component is None else sorted(found.component)
                            digest.update(repr((found.kind, comp)).encode())
    assert digest.hexdigest() == INHERITANCE_DIGEST


def test_edge_connectivity_known_cases():
    two = make_graph([0, 1, 2, 3], [(0, 1), (2, 3)])
    assert edge_connectivity(two, 0, 2) == 0
    assert edge_connectivity(C4, 0, 1) == 2
    assert all(edge_connectivity(K4, x, y) == 3 for x, y in itertools.combinations(range(4), 2))


def test_edge_connectivity_matches_brute_force():
    for G in _random_graphs(40, 7, 41):
        vs = sorted(G.vertices)
        x, y = vs[0], vs[-1]
        if x == y:
            continue
        assert edge_connectivity(G, x, y) == edge_connectivity_brute(G, x, y)


def test_edge_disjoint_paths_known_cases():
    assert edge_disjoint_paths(C4, 0, 1, 0) == []
    arcs = edge_disjoint_paths(C4, 0, 1, 2)
    assert sorted(arcs) == [[0, 1], [0, 3, 2, 1]]
    three = edge_disjoint_paths(K4, 0, 1, 3)
    assert len(three) == 3


def test_edge_disjoint_paths_menger_properties():
    for G in _random_graphs(40, 7, 59):
        vs = sorted(G.vertices)
        x, y = vs[0], vs[-1]
        k = edge_connectivity(G, x, y)
        paths = edge_disjoint_paths(G, x, y, k)
        assert len(paths) == k
        used = set()
        for path in paths:
            assert path[0] == x and path[-1] == y
            for u, v in zip(path, path[1:]):
                e = (min(u, v), max(u, v))
                assert e in G.edges and e not in used
                used.add(e)
        with pytest.raises(ValueError):
            edge_disjoint_paths(G, x, y, k + 1)


def test_odd_cut_witness_known_cases():
    assert odd_cut_witness(C4) is None
    star = odd_cut_witness(K4)
    assert star is not None and len(star.edges) == 3
    assert odd_cut_witness(bowtie()) is None
    assert odd_cut_by_definition(bowtie()) is None


def test_odd_cut_modes_agree_on_existence():
    # degree parity against the literal bipartition scan, on every
    # labelled graph up to 5 vertices and on random ones up to 6
    graphs = [G for n in range(6) for G in _every_graph_on(range(n))]
    for G in graphs + list(_random_graphs(80, 6, 71)):
        fast = odd_cut_witness(G)
        slow = odd_cut_by_definition(G)
        assert (fast is None) == (slow is None)
        if slow is not None:
            assert len(slow.edges) % 2 == 1
            v = min(u for u in G.vertices if G.degree(u) % 2)
            assert fast == cut_of(G, {v}) and len(fast.edges) % 2 == 1
    # the scan stops in the first component, by smallest vertex, that has
    # an odd cut; the parity witness is the smallest odd vertex's star
    interleaved = make_graph(range(6), [(0, 3), (0, 4), (3, 4), (2, 4), (1, 5)])
    assert sorted(odd_cut_by_definition(interleaved).side) == [2]
    assert sorted(odd_cut_witness(interleaved).side) == [1]


def test_veblen_known_cases():
    c5 = cycle_graph(5)
    out = veblen_decomposition(c5)
    assert [sorted(p.edges) for p in out.decomposition.parts] == [sorted(c5.edges)]

    k5 = complete_graph(5)
    out5 = veblen_decomposition(k5)
    assert out5.ok
    assert is_decomposition(k5, out5.decomposition.parts)
    assert all(is_cycle(p) for p in out5.decomposition.parts)

    path = make_graph([0, 1, 2], [(0, 1), (1, 2)])
    assert veblen_decomposition(path).odd_vertex == 0


def test_veblen_agrees_with_parity():
    for G in _random_graphs(80, 7, 83):
        out = veblen_decomposition(G)
        has_odd = any(G.degree(v) % 2 for v in G.vertices)
        assert out.ok == (not has_odd)
        if out.ok:
            assert is_decomposition(G, out.decomposition.parts)
            assert all(is_cycle(p) for p in out.decomposition.parts)


def test_bridges_known_cases():
    tree = make_graph(range(5), [(0, 1), (1, 2), (1, 3), (3, 4)])
    assert bridges(tree) == sorted(tree.edges)
    assert bridges(C4) == []
    pendant = make_graph(range(6), list(bowtie().edges) + [(4, 5)])
    assert bridges(pendant) == [(4, 5)]
    assert biconnected_blocks(pendant) == [
        frozenset({(0, 1), (0, 2), (1, 2)}),
        frozenset({(2, 3), (2, 4), (3, 4)}),
        frozenset({(4, 5)}),
    ]


def test_bridges_match_deletion_oracle():
    for G in _random_graphs(120, 7, 97):
        assert bridges(G) == bridges_by_deletion(G)


def test_blocks_match_cycle_definition():
    # two edges share a block exactly when some cycle holds both; the
    # blocks partition the edges and come ordered by smallest edge.  Each
    # graph is also taken relabelled by its set codes, which are not
    # contiguous, so mask-view bit positions are not vertex ids there
    graphs = list(_random_graphs(80, 6, 1973))
    for G in graphs + [recode_graph(G)[0] for G in graphs]:
        blocks = biconnected_blocks(G)
        assert sorted(e for b in blocks for e in b) == sorted(G.edges)
        assert [min(b) for b in blocks] == sorted(min(b) for b in blocks)
        block_of = {e: i for i, b in enumerate(blocks) for e in b}
        cycles = cycles_by_subsets(G)
        for e, f in itertools.combinations(sorted(G.edges), 2):
            assert (block_of[e] == block_of[f]) == any(e in c and f in c for c in cycles)


def test_bond_inheritance_known_cases():
    F = {(0, 1), (2, 3)}
    assert check_bond_inheritance(C4, C4, F).kind == "bond-in-host"

    chorded = make_graph(range(4), list(C4.edges) + [(0, 2)])
    verdict = check_bond_inheritance(chorded, C4, F)
    assert verdict.kind == "confined"
    assert verdict.component == frozenset(range(4))


def test_mask_view_is_built_once_and_never_pickled():
    G = bowtie()
    view = G._view
    assert is_bond(G, [(2, 3), (2, 4)]) and not is_cut(G, [(0, 1)])
    assert check_bond_inheritance(G, G, [(0, 1), (0, 2)]).kind == "bond-in-host"
    assert len(components(G)) == 1 and len(enumerate_bonds(G)) == 6
    assert G._view is view
    twin = make_graph(G.vertices, G.edges)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(G, protocol) == pickle.dumps(twin, protocol)
    copy = pickle.loads(pickle.dumps(G))
    assert copy == G and hash(copy) == hash(G) and "_view" not in vars(copy)


def test_bond_inheritance_errors():
    with pytest.raises(ValueError):
        check_bond_inheritance(C4, C4, {(0, 1)})  # single cycle edge is no bond
    with pytest.raises(ValueError):
        check_bond_inheritance(C4, complete_graph(5), {(0, 1)})


def test_bond_inheritance_random_sweep_never_fatal():
    rng = seeded(5)
    for G in _random_graphs(60, 6, 13):
        edges = sorted(G.edges)
        if not edges:
            continue
        sub_edges = [e for e in edges if rng.random() < 0.7]
        H = make_graph(G.vertices, sub_edges)
        for F in enumerate_bonds(H, max_size=3):
            assert check_bond_inheritance(G, H, F).kind != "violation"


def test_enumerate_bonds_matches_definition():
    for G in _random_graphs(50, 6, 19):
        assert enumerate_bonds(G) == bonds_by_definition(G)


def test_bond_kernel_matches_definition_every_graph_upto_5_vertices():
    # every labelled graph on 0..5 vertices, so disconnected hosts and
    # isolated vertices included; is_bond on every edge subset
    for n in range(6):
        for mask in range(1 << edge_slot_count(n)):
            G = random_bitmask_graph(n, mask)
            want = bonds_by_definition(G)
            assert enumerate_bonds(G) == want
            for size in (1, 2, 3):
                assert enumerate_bonds(G, max_size=size) == [
                    F for F in want if len(F) <= size
                ]
            bonds = set(want)
            edges = sorted(G.edges)
            for r in range(len(edges) + 1):
                for F in itertools.combinations(edges, r):
                    assert is_bond(G, F) == (frozenset(F) in bonds)


def test_bond_kernel_on_code_labelled_graphs():
    # recoded vertices are set codes (1, 2, 4, ...), far apart as ints
    for G in _random_graphs(40, 6, 41):
        coded, codes = recode_graph(G)
        want = bonds_by_definition(coded)
        assert enumerate_bonds(coded) == want
        assert enumerate_bonds(coded, max_size=2) == [F for F in want if len(F) <= 2]
        vc = codes.vertex_code
        relabelled = {
            frozenset(edge(vc[u], vc[v]) for u, v in F) for F in enumerate_bonds(G)
        }
        assert relabelled == set(want)
        edges = sorted(coded.edges)
        for r in range(min(3, len(edges)) + 1):
            for F in itertools.combinations(edges, r):
                assert is_bond(coded, F) == is_bond_by_definition(coded, F)


def _connected_gnp(n, p, rng):
    while True:
        G = gnp_graph(n, p, rng)
        if is_connected(G):
            return G


def test_enumerate_bonds_matches_definition_past_10_vertices():
    # seeded connected gnp graphs on 11 to 13 vertices, a host of two
    # components and a host labelled with set codes, at every size bound
    # up to 4
    rng = seeded(2111)
    hosts = [
        _connected_gnp(n, p, rng) for n in (11, 12, 13) for p in (0.35, 0.5) for _ in "ab"
    ]
    left, right = _connected_gnp(6, 0.5, rng), _connected_gnp(6, 0.5, rng)
    hosts.append(
        make_graph(range(12), left.edges | {(u + 6, v + 6) for u, v in right.edges})
    )
    hosts.append(recode_graph(_connected_gnp(11, 0.35, rng))[0])
    assert not is_connected(hosts[-2])
    for G in hosts:
        want = bonds_by_definition(G)
        assert enumerate_bonds(G) == want
        for k in (1, 2, 3, 4):
            assert enumerate_bonds(G, max_size=k) == [F for F in want if len(F) <= k]


def test_enumerate_bonds_size_bound_past_the_edge_count():
    # no cut holds more than m edges, so any bound of at least m lists
    # every bond, however large, and a bound below 1 lists none
    rng = seeded(2112)
    hosts = [make_graph(range(3), []), bowtie()]
    hosts += [gnp_graph(n, 0.4, rng) for n in (5, 8, 11)]
    for G in hosts:
        every = enumerate_bonds(G)
        m = len(G.edges)
        for k in (m, m + 1, 10**12):
            assert enumerate_bonds(G, max_size=k) == every
        for k in (0, -1, -(10**12)):
            assert enumerate_bonds(G, max_size=k) == []


def _bonds_by_is_bond(G, k, vertices=None):
    """The edge sets of 1 to k edges, among the edges with both ends in
    ``vertices`` (default: all), that ``is_bond`` accepts, sorted by size
    and then by sorted edge list."""
    edges = sorted(e for e in G.edges if vertices is None or set(e) <= vertices)
    found = [
        frozenset(F)
        for r in range(1, k + 1)
        for F in itertools.combinations(edges, r)
        if is_bond(G, F)
    ]
    return sorted(found, key=lambda F: (len(F), sorted(F)))


def test_size_bounded_bond_lists_past_the_definition_gate():
    # seeded hosts on 17 to 20 vertices, past the 16-vertex gate of
    # bonds_by_definition and up to the enumeration cap: connected gnp
    # graphs, a host of two components and an isolated vertex, and one
    # labelled with set codes
    rng = seeded(3030)
    hosts = [_connected_gnp(n, p, rng) for n in (17, 18, 19, 20) for p in (0.2, 0.3)]
    left, right = _connected_gnp(9, 0.4, rng), _connected_gnp(10, 0.35, rng)
    hosts.append(
        make_graph(range(20), left.edges | {(u + 9, v + 9) for u, v in right.edges})
    )
    hosts.append(recode_graph(_connected_gnp(18, 0.25, rng))[0])
    assert len(components(hosts[-2])) == 3
    for G in hosts:
        # an unbounded listing on at most 45 edges takes under a second
        every = enumerate_bonds(G) if len(G.edges) <= 45 else None
        for k in (1, 2, 3):
            want = _bonds_by_is_bond(G, k)
            assert enumerate_bonds(G, k) == want
            if every is not None:
                assert [F for F in every if len(F) <= k] == want
    assert sum(len(G.edges) <= 45 for G in hosts) == 8
    # a permutation of the vertices carries any three edges of K20 into
    # K6 on 0..5 and keeps bonds bonds, so K6's edge sets stand for all
    K20 = complete_graph(20)
    for k in (1, 2, 3):
        assert enumerate_bonds(K20, k) == _bonds_by_is_bond(K20, k, set(range(6))) == []


class _CountingStack(list):
    """A stack for ``enumerate_bonds`` that counts the nodes it pops."""

    pops = 0

    def pop(self):
        _CountingStack.pops += 1
        return super().pop()


def test_size_bounded_bond_listing_grows_at_most_the_fence_bound(monkeypatch):
    # a listing of the bonds of at most kappa edges grows at most
    # C(n + kappa, kappa + 1) nodes in a component of n vertices
    monkeypatch.setattr(graph, "_Stack", _CountingStack)
    rng = seeded(3031)
    hosts = [
        gnp_graph(rng.randint(2, 20), rng.choice((0.15, 0.3, 0.6, 1.0)), rng)
        for _ in range(150)
    ]
    for G in hosts:
        sizes = [len(c) for c in components(G)]
        for kappa in (1, 2, 3, 4):
            _CountingStack.pops = 0
            enumerate_bonds(G, kappa)
            assert 0 < _CountingStack.pops <= sum(
                math.comb(n + kappa, kappa + 1) for n in sizes
            )
    # K20 has 2**19 connected sides that hold vertex 0; at kappa 2 the
    # fence lets at most C(22, 3) = 1,540 of them grow
    _CountingStack.pops = 0
    assert enumerate_bonds(complete_graph(20), 2) == []
    assert 0 < _CountingStack.pops <= 1540


# SHA-256 of the bond lists below, recorded from the kernel that flooded
# the complement of every connected side it grew
BOND_LIST_DIGEST = "96e2259e4c948194a26c6857fb157e0325a871857cf0e5df5bea55318d17607c"


def test_bond_lists_match_recorded_digest():
    # seeded gnp graphs on 13 to 16 vertices, three of them disconnected:
    # every bond, then those of at most 3 edges, in the order returned
    rng = seeded(2121)
    digest = hashlib.sha256()
    for n, p in (
        (13, 0.3), (14, 0.25), (14, 0.4), (15, 0.2), (15, 0.3),
        (16, 0.2), (16, 0.25), (13, 0.5), (16, 0.35),
    ):
        G = gnp_graph(n, p, rng)
        for k in (None, 3):
            digest.update(repr([sorted(F) for F in enumerate_bonds(G, k)]).encode())
    assert digest.hexdigest() == BOND_LIST_DIGEST


def _path(n, offset=0):
    return make_graph(
        range(offset, offset + n), [(i, i + 1) for i in range(offset, offset + n - 1)]
    )


def test_enumerate_bonds_component_cap():
    assert len(enumerate_bonds(_path(20))) == 19
    with pytest.raises(ValueError, match="21 vertices"):
        enumerate_bonds(_path(21))
    with pytest.raises(ValueError, match="21 vertices"):
        enumerate_bonds(make_graph(range(26), _path(5).edges | _path(21, 5).edges))
    # the cap is per component
    two = make_graph(range(40), _path(20).edges | _path(20, 20).edges)
    assert len(enumerate_bonds(two)) == 38


def test_separating_cut_confirms_connectivity():
    G = bowtie()
    assert separates(G, cut_of(G, {0, 1}).edges, 0, 3)


def test_cycle_enumeration_triangle_square():
    assert enumerate_cycles(cycle_graph(3)) == [frozenset(cycle_graph(3).edges)]
    assert len(enumerate_cycles(K4)) == 7  # four triangles and three squares


def test_double_cover_known_cases():
    out = cycle_double_cover_search(cycle_graph(3))
    assert out.status == "found"
    assert list(out.cycles) == [frozenset(cycle_graph(3).edges)] * 2

    k4 = cycle_double_cover_search(K4)
    assert k4.status == "found"
    counts = {}
    for cyc in k4.cycles:
        for e in cyc:
            counts[e] = counts.get(e, 0) + 1
    assert all(c == 2 for c in counts.values())

    with pytest.raises(ValueError):
        cycle_double_cover_search(make_graph([0, 1], [(0, 1)]))


def test_double_cover_diamond():
    # triangles 012 and 023 plus the square 0-1-2-3 cover every edge twice
    G = make_graph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
    out = cycle_double_cover_search(G)
    assert out.status == "found"
    assert is_double_cover(G, out.cycles)
    assert not is_double_cover(G, out.cycles[1:])
    assert double_cover_by_multisets(make_graph([0, 1, 2], [(0, 1), (1, 2)])) is None


def test_double_cover_every_bridgeless_graph_upto_5_vertices():
    swept = 0
    for n in (3, 4, 5):
        for mask in range(1, 1 << edge_slot_count(n)):
            G = random_bitmask_graph(n, mask)
            if bridges(G):
                continue
            swept += 1
            out = cycle_double_cover_search(G)
            assert out.status == "found", sorted(G.edges)
            assert is_double_cover(G, out.cycles)
            oracle = double_cover_by_multisets(G)
            assert oracle is not None and is_double_cover(G, oracle)
    assert swept == 328


def test_double_cover_every_bridgeless_graph_on_6_vertices():
    # K6's 15 edges exceed the search gate; a verified cover proves that a
    # cover exists, so the multiset oracle need not run
    swept = 0
    for mask in range((1 << edge_slot_count(6)) - 1):
        G = random_bitmask_graph(6, mask)
        if bridges(G):
            continue
        swept += 1
        out = cycle_double_cover_search(G)
        assert out.status == "found", sorted(G.edges)
        assert is_double_cover(G, out.cycles)
    assert swept == 13_666


def test_is_double_cover_rejects_non_covers():
    triangles = [frozenset(c) for c in enumerate_cycles(K4) if len(c) == 3]
    assert is_double_cover(K4, triangles)
    assert is_double_cover(make_graph([0], []), [])
    # K4's triangles cover the diamond's edges twice, but two use (1, 3)
    diamond = make_graph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
    assert not is_double_cover(diamond, triangles)
    # two paths that together cover C4 twice
    paths = [C4.edges, {(0, 1), (1, 2)}, {(2, 3), (0, 3)}]
    assert not is_double_cover(C4, paths)
    # two disjoint triangles given as one member, twice
    two = make_graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not is_double_cover(two, [two.edges, two.edges])
    # an edge covered once, or three times
    assert not is_double_cover(K4, triangles[1:])
    c3 = cycle_graph(3)
    assert not is_double_cover(c3, [c3.edges] * 3)


def test_double_cover_budget_is_distinct():
    out = cycle_double_cover_search(K4, budget=1)
    assert out.status == "budget-exhausted"


def test_components_and_restrict_cover_edges():
    for G in _random_graphs(40, 6, 29):
        comps = components(G)
        assert sum(len(c) for c in comps) == len(G.vertices)
        assert sum(len(restrict(G, c).edges) for c in comps) == len(G.edges)
