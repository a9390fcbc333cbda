import concurrent.futures
import hashlib
import itertools
import json
import os

import pytest

from finmodel.decompose import (
    PROPERTIES,
    BondFaithfulReport,
    chain_slices,
    check_bond_faithful,
    search_bond_faithful,
    slice_partition_check,
    slices_from_chain,
    well_reflecting_probe,
)
from finmodel.graph import Decomposition, cycle_graph, is_decomposition, make_graph
from finmodel.hull import chain, get_pack
from finmodel.oracles import bond_faithful_by_definition
from finmodel.universe import membership_structure, recode_graph

from conftest import edge_slot_count, random_bitmask_graph, seeded

C3 = cycle_graph(3)  # vertex codes 0,1,2; edge objects 3,5,6
EVERYTHING = {0, 1, 2, 3, 5, 6}


def test_chain_slices_single_stage_is_whole_graph():
    s = chain_slices(C3, [set(), EVERYTHING])
    assert [sorted(p.edges) for p in s.slices] == [sorted(C3.edges)]
    assert s.covers_host and s.all_coherent
    assert slice_partition_check(s)


def test_chain_slices_two_stage_example():
    s = chain_slices(C3, [set(), {0, 1, 3}, EVERYTHING])
    assert [sorted(p.edges) for p in s.slices] == [[(0, 1)], [(0, 2), (1, 2)]]
    assert slice_partition_check(s)


def test_chain_slices_prepends_empty_stage():
    s = chain_slices(C3, [{0, 1, 3}, EVERYTHING])
    assert s.stages[0] == frozenset()
    assert slice_partition_check(s)


def test_chain_slices_incoherent_stage_flagged():
    s = chain_slices(C3, [set(), {0, 3}, EVERYTHING])
    assert s.stage_coherent == (True, False, True)
    assert not s.all_coherent


def test_chain_slices_requires_increasing_stages():
    with pytest.raises(ValueError):
        chain_slices(C3, [{0, 1}, {0}])
    with pytest.raises(ValueError):
        chain_slices(C3, [{0}, {0}])


def _coded_random_graph(rng, max_n=6):
    n = rng.randint(2, max_n)
    mask = rng.randrange(1 << edge_slot_count(n))
    G = random_bitmask_graph(n, mask)
    coded, codes = recode_graph(G)
    return coded, codes


def test_coherent_covering_chains_always_partition():
    rng = seeded(77)
    pack = get_pack("pairing,members")
    for _ in range(25):
        coded, codes = _coded_random_graph(rng)
        ambient = membership_structure(codes.all_codes())
        index = {c: i for i, c in enumerate(ambient.codes)}
        cover = {index[c] for c in codes.all_codes()}
        ch = chain(ambient, pack, frozenset(), cover)
        assert ch.coherent is True
        sliced = slices_from_chain(coded, ambient, ch)
        assert sliced.all_coherent and sliced.covers_host
        assert slice_partition_check(sliced)


def test_restriction_and_deletion_decompose_under_coherence():
    # with a coherent object set, the kept and removed edges split the host
    rng = seeded(88)
    for _ in range(40):
        coded, codes = _coded_random_graph(rng)
        vs = sorted(coded.vertices)
        picked = {v for v in vs if rng.random() < 0.5}
        m = frozenset(picked) | {
            (1 << u) | (1 << v) for u, v in coded.edges if u in picked and v in picked
        }
        # the slice up to m keeps, the slice above it holds what m removes
        everything = frozenset(codes.all_codes())
        S = chain_slices(coded, [m] if everything <= m else [m, m | everything])
        kept = S.slices[0].edges if m else frozenset()
        removed = S.slices[-1].edges if not everything <= m else frozenset()
        assert kept == {e for e in coded.edges if set(e) <= picked}
        assert kept | removed == coded.edges
        assert not (kept & removed)


def test_probe_triangle_finds_slice_counterexample():
    report = well_reflecting_probe([C3], get_pack("path-existence"), "nw")
    inst = report.instances[0]
    assert inst.status == "ok"
    assert report.counterexample_count >= 1
    subsets = {c.subset for c in inst.counterexamples}
    assert (0, 1, 3) in subsets  # both endpoints plus the edge object


def test_probe_full_subset_passes():
    report = well_reflecting_probe([C3], get_pack("pairing,members"), "nw")
    inst = report.instances[0]
    full = tuple(sorted(EVERYTHING | {4}))  # closure may add extra codes
    for c in inst.counterexamples:
        assert set(c.subset) != set(range(16))


def test_probe_skips_deep_graphs():
    c4 = cycle_graph(4)
    report = well_reflecting_probe([c4], get_pack("pairing"), "nw")
    assert report.instances[0].status == "skipped-rank"
    assert report.instances[0].rank == 5


def test_probe_skips_precondition_failures():
    path = make_graph([0, 1], [(0, 1)])
    report = well_reflecting_probe([path], get_pack("pairing"), "nw")
    assert report.instances[0].status == "skipped-precondition"


def test_probe_rejects_unknown_property():
    with pytest.raises(KeyError):
        well_reflecting_probe([C3], get_pack("pairing"), "no-such-property")


def test_probe_asks_for_no_more_workers_than_graphs(monkeypatch):
    # a fake pool records the workers asked for and maps in this process,
    # so no process is started
    asked = []

    class Pool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    corpus, pack = [C3, make_graph([0, 1], [(0, 1)])], get_pack("pairing,members")
    report = well_reflecting_probe(corpus, pack, "nw", workers=10_000)
    assert asked == [2]
    assert report == well_reflecting_probe(corpus, pack, "nw")


# SHA-256 of the answers below, recorded from the code that built each
# slice as a deletion of edge objects followed by an edge-aware restriction,
# and each probe piece from one two-stage chain_slices call per subset
SLICING_DIGEST = "3ab0cad95cc313be6af9dda2e79721800a639fb82b72c0ad0ff732a165de38c6"
PROBE_DIGEST = "9c3b5dd388213f964365db20c80d5de5d65f04ae9369d031e9e78c9953fb9da7"


def _stage_chains(objects, rng, count=4):
    """Strictly increasing prefixes of shuffled objects, the empty prefix
    among them or not; a prefix may hold an edge object without both of
    its ends, or both ends without the edge."""
    for _ in range(count):
        order = rng.sample(objects, len(objects))
        picks = rng.randint(1, len(order) + 1)
        yield [order[:cut] for cut in sorted(rng.sample(range(len(order) + 1), picks))]


def test_chain_slices_match_recorded_digest():
    # every labelled graph on 1 to 4 vertices, recoded so that vertex ids
    # are set codes, over seeded stage chains drawn from its objects
    rng = seeded(808)
    digest = hashlib.sha256()
    for n in range(1, 5):
        for mask in range(1 << edge_slot_count(n)):
            coded, codes = recode_graph(random_bitmask_graph(n, mask))
            for stages in _stage_chains(codes.all_codes(), rng):
                S = chain_slices(coded, stages)
                record = [
                    [sorted(s) for s in S.stages],
                    [[sorted(p.vertices), sorted(p.edges)] for p in S.slices],
                    list(S.stage_coherent),
                    S.covers_host,
                    slice_partition_check(S),
                ]
                digest.update(json.dumps(record).encode())
    assert digest.hexdigest() == SLICING_DIGEST


def test_probe_matches_recorded_digest():
    # the 11 labelled graphs on 1 to 3 vertices, every property, three packs
    digest = hashlib.sha256()
    for n in range(1, 4):
        for mask in range(1 << edge_slot_count(n)):
            G = random_bitmask_graph(n, mask)
            for prop in sorted(PROPERTIES):
                for pack in ("pairing", "pairing,members", "path-existence"):
                    inst = well_reflecting_probe([G], get_pack(pack), prop).instances[0]
                    record = [
                        inst.status,
                        inst.rank,
                        inst.candidates_tested,
                        [[list(c.subset), c.piece, c.witness] for c in inst.counterexamples],
                    ]
                    digest.update(json.dumps(record).encode())
    assert digest.hexdigest() == PROBE_DIGEST


def test_probe_properties_cover_bridgeless_and_components():
    ok, witness = PROPERTIES["bridgeless"](C3)
    assert ok and witness is None
    bad, w2 = PROPERTIES["bridgeless"](make_graph([0, 1], [(0, 1)]))
    assert not bad and w2 == {"bridge": [0, 1]}
    small, w3 = PROPERTIES["no-small-component"](make_graph([0, 1, 2], [(0, 1)]))
    assert not small and w3 == {"component": [0, 1]}


def test_check_bond_faithful_whole_graph_member():
    rep = check_bond_faithful(C3, [C3], 3)
    assert rep.verdict
    assert rep.size_ok and rep.containment_ok and rep.bond_preservation_ok


def test_check_bond_faithful_bridge_example():
    G = make_graph(range(6), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    parts = [
        make_graph({0, 1, 2, 3}, [(0, 1), (1, 2), (0, 2), (2, 3)]),
        make_graph({3, 4, 5}, [(3, 4), (4, 5), (3, 5)]),
    ]
    rep = check_bond_faithful(G, parts, 1)
    assert not rep.verdict
    assert not rep.size_ok and rep.oversized_members == (0, 1)
    assert rep.containment_ok  # the bridge bond sits inside member 0


def test_check_bond_faithful_opposite_pair_split():
    c4 = cycle_graph(4)
    parts = [
        make_graph(range(4), [(0, 1), (2, 3)]),
        make_graph(range(4), [(1, 2), (0, 3)]),
    ]
    rep = check_bond_faithful(c4, parts, 2)
    assert not rep.bond_preservation_ok
    foreign = {(i, tuple(sorted(b))) for i, b in rep.foreign_bonds}
    assert (0, ((0, 1),)) in foreign  # a member bond that is no host bond


def test_check_bond_faithful_rejects_bad_partition():
    with pytest.raises(ValueError):
        check_bond_faithful(C3, [C3, C3], 3)
    with pytest.raises(ValueError):
        check_bond_faithful(C3, [C3], 0)


def test_check_bond_faithful_matches_definitional_oracle_random():
    rng = seeded(9)
    checked = 0
    while checked < 120:
        n = rng.randint(2, 5)
        G = random_bitmask_graph(n, rng.randrange(1 << edge_slot_count(n)))
        edges = sorted(G.edges)
        if not edges:
            continue
        buckets: list[list] = [[] for _ in range(rng.randint(1, 3))]
        for e in edges:
            buckets[rng.randrange(len(buckets))].append(e)
        parts = [
            make_graph({v for e in b for v in e}, b) for b in buckets if b
        ]
        kappa = rng.randint(1, 3)
        rep = check_bond_faithful(G, parts, kappa)
        assert rep.verdict == bond_faithful_by_definition(G, parts, kappa)
        checked += 1


def test_search_base_cases():
    assert search_bond_faithful(make_graph([0, 1], []), 2).decomposition == Decomposition(())
    single = search_bond_faithful(C3, 3)
    assert single.status == "found"
    assert [sorted(p.edges) for p in single.decomposition.parts] == [sorted(C3.edges)]


def test_search_two_disjoint_triangles():
    G = make_graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    out = search_bond_faithful(G, 3)
    assert out.status == "found"
    assert sorted(sorted(p.edges) for p in out.decomposition.parts) == [
        [(0, 1), (0, 2), (1, 2)],
        [(3, 4), (3, 5), (4, 5)],
    ]


def test_search_self_validates_and_proves_absence():
    c4 = cycle_graph(4)
    absent = search_bond_faithful(c4, 2)
    assert absent.status == "proven-absent"

    found = search_bond_faithful(c4, 1)
    assert found.status == "found"
    assert found.report.verdict
    assert is_decomposition(c4, found.decomposition.parts)


def test_search_random_outcomes_always_validated():
    rng = seeded(31)
    for _ in range(20):
        n = rng.randint(2, 6)
        G = random_bitmask_graph(n, rng.randrange(1 << edge_slot_count(n)))
        kappa = rng.randint(1, 4)
        out = search_bond_faithful(G, kappa)
        if out.status == "found":
            assert out.report.verdict
            assert check_bond_faithful(G, out.decomposition.parts, kappa).verdict


def test_search_reports_sampled_not_found():
    # a 22-vertex path is one component past the 20-vertex enumeration
    # cap, which once sampled its host bonds; its blocks are single edges,
    # which no partition splits, so checks and the search answer exactly
    path22 = make_graph(range(22), [(i, i + 1) for i in range(21)])
    out = search_bond_faithful(path22, 1)
    assert out.status == "found"
    assert out.report.verdict and not out.report.sampled
    assert is_decomposition(path22, out.decomposition.parts)
    singles = [make_graph([i, i + 1], [(i, i + 1)]) for i in range(21)]
    assert check_bond_faithful(path22, singles, 1) == BondFaithfulReport(1, True, True, True)
    pairs = [make_graph(range(22), [(i, i + 1), (i + 1, i + 2)]) for i in range(0, 20, 2)]
    pairs.append(make_graph([20, 21], [(20, 21)]))
    failed = check_bond_faithful(path22, pairs, 1)
    assert failed == BondFaithfulReport(1, False, True, True, tuple(range(10)))


def test_search_sweep_matches_recorded_answers():
    # every labelled graph on 5 vertices with at most 6 edges, kappa 1..3:
    # status and report as recorded before host bonds were shared across
    # the checks of one search, parts as recorded once the blocks became
    # the only candidate
    slots = list(itertools.combinations(range(5), 2))
    digest = hashlib.sha256()
    counts: dict[str, int] = {}
    for r in range(7):
        for edges in itertools.combinations(slots, r):
            G = make_graph(range(5), edges)
            for kappa in (1, 2, 3):
                out = search_bond_faithful(G, kappa)
                rep = out.report
                record = [
                    out.status,
                    None if out.decomposition is None
                    else [sorted(p.edges) for p in out.decomposition.parts],
                    None if rep is None else [
                        rep.kappa, rep.size_ok, rep.containment_ok,
                        rep.bond_preservation_ok, list(rep.oversized_members),
                        [sorted(b) for b in rep.split_bonds],
                        [[i, sorted(b)] for i, b in rep.foreign_bonds], rep.sampled,
                    ],
                ]
                digest.update(json.dumps(record).encode())
                key = f"{kappa}:{out.status}"
                counts[key] = counts.get(key, 0) + 1
    assert counts == {
        "1:found": 848,
        "2:found": 291, "2:proven-absent": 557,
        "3:found": 536, "3:proven-absent": 312,
    }
    assert digest.hexdigest() == (
        "310aed043bf27f9f6d071911a5ea5f10d09000d53d45a0833f94076a5086b3da"
    )
