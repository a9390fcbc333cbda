import functools
import random

import pytest

from finmodel.graph import cycle_graph, make_graph
from finmodel.universe import (
    HIERARCHY_SIZES,
    RankOverflowError,
    build_hierarchy,
    decode_graph,
    encode_graph,
    graph_object_codes,
    graph_vertex_codes,
    hf_apply,
    hf_contains,
    hf_encode,
    hf_members,
    hf_pair,
    hf_rank,
    hf_repr,
    hf_succ,
    hf_union,
    kuratowski_pair,
    kuratowski_unpair,
    membership_structure,
    recode_graph,
    smallest_rank_for,
    von_neumann,
)


# independent decode/recompute oracle: codes -> nested frozensets -> codes
def decode(code: int):
    return frozenset(decode(i) for i in range(code.bit_length()) if code >> i & 1)


def encode(s) -> int:
    return sum(1 << encode(m) for m in s)


def test_hierarchy_sizes_exact():
    assert HIERARCHY_SIZES == (0, 1, 2, 4, 16, 65536)
    for n in range(5):
        h = build_hierarchy(n)
        assert h.size == HIERARCHY_SIZES[n]
        assert list(h.elements()) == list(range(HIERARCHY_SIZES[n]))


def test_hierarchy_known_examples():
    assert list(build_hierarchy(2).elements()) == [0, 1]
    assert list(build_hierarchy(3).elements()) == [0, 1, 2, 3]
    # rank 4 is the full powerset of {0,1,2,3}: exactly the codes 0..15
    assert [encode(s) for s in map(decode, build_hierarchy(4).elements())] == list(range(16))


def test_hierarchy_relation_matches_bit_membership():
    h = build_hierarchy(4)
    for b in h.elements():
        for a in h.elements():
            assert ((a, b) in h.structure.pairs) == hf_contains(b, a)


def test_hierarchy_rank5_gate():
    with pytest.raises(RankOverflowError):
        build_hierarchy(5)
    with pytest.raises(RankOverflowError):
        build_hierarchy(6, allow_rank5=True)


def test_membership_is_rank_bounded():
    # x lives in level n exactly when its rank is below n
    for n in range(5):
        level = set(build_hierarchy(n).elements())
        for code in range(20):
            assert (code in level) == (hf_rank(code) < n)


def test_pair_union_succ_known_examples():
    assert hf_pair(0, 0) == 1
    assert hf_pair(0, 1) == 3
    assert hf_pair(1, 2) == 6
    assert hf_union(0) == 0
    assert hf_union(2) == 1
    assert hf_union(3) == 1
    assert hf_succ(0) == 1
    assert hf_succ(1) == 3
    assert hf_succ(3) == 11


def test_rank_known_examples():
    assert hf_rank(0) == 0
    assert hf_rank(1) == 1
    assert hf_rank(11) == 3


def test_rank_agrees_with_its_recursive_definition():
    @functools.lru_cache(maxsize=None)
    def rank(code):
        members = [i for i in range(code.bit_length()) if code >> i & 1]
        return 1 + max(map(rank, members)) if members else 0

    rng = random.Random(29)
    codes = [*range(2**16), *(rng.getrandbits(rng.randint(1, 3000)) for _ in range(200))]
    assert [hf_rank(c) for c in codes] == [rank(c) for c in codes]
    with pytest.raises(ValueError):
        hf_rank(-1)


def test_ops_agree_with_decode_recompute_oracle_on_v4():
    v4 = list(range(16))
    for x in v4:
        for y in v4:
            assert decode(hf_pair(x, y)) == frozenset({decode(x), decode(y)})
        union = frozenset().union(*decode(x)) if decode(x) else frozenset()
        assert decode(hf_union(x)) == union
        assert decode(hf_succ(x)) == decode(x) | {decode(x)}
        assert hf_rank(x) == _rank_oracle(decode(x))


def _rank_oracle(s) -> int:
    return 1 + max(map(_rank_oracle, s)) if s else 0


def test_apply_known_examples():
    g = hf_encode([kuratowski_pair(0, 1)])
    assert hf_apply(g, 0) == 1
    with pytest.raises(ValueError):
        hf_apply(0, 0)  # empty function has empty domain
    identity = hf_encode([kuratowski_pair(0, 0), kuratowski_pair(1, 1)])
    assert hf_apply(identity, 1) == 1


def test_apply_agrees_with_decode_oracle_on_v4_functions():
    # all graphs of functions {0,1} -> {0,1}
    for a in range(2):
        for b in range(2):
            g = hf_encode([kuratowski_pair(0, a), kuratowski_pair(1, b)])
            assert hf_apply(g, 0) == a and hf_apply(g, 1) == b


def test_apply_rejects_non_functions():
    with pytest.raises(ValueError):
        hf_apply(hf_encode([kuratowski_pair(0, 0), kuratowski_pair(0, 1)]), 0)
    with pytest.raises(ValueError):
        hf_apply(hf_encode([5]), 0)  # member is not an ordered pair


def test_kuratowski_round_trip():
    for a in range(4):
        for b in range(4):
            assert kuratowski_unpair(kuratowski_pair(a, b)) == (a, b)


def test_finite_sets_reconstructed_by_pair_and_union():
    # {a0..ak} grows as union({a0..a(k-1)}, {ak})
    elements = [0, 1, 2, 3]
    acc = hf_pair(elements[0], elements[0])
    for a in elements[1:]:
        acc = hf_union(hf_pair(acc, hf_pair(a, a)))
    assert acc == hf_encode(elements)


def test_von_neumann_and_repr():
    assert [von_neumann(k) for k in range(4)] == [0, 1, 3, 11]
    assert hf_repr(0) == "{}"
    assert hf_repr(3) == "{{},{{}}}"


def test_encode_graph_known_examples():
    empty_code, _ = encode_graph(make_graph([], []))
    assert empty_code == kuratowski_pair(0, 0)

    one_vertex, mapping = encode_graph(make_graph([7], []))
    assert mapping == {7: 0}
    assert one_vertex == kuratowski_pair(hf_encode([0]), 0)

    k2 = make_graph([0, 1], [(0, 1)])
    code, mapping2 = encode_graph(k2)
    back = decode_graph(code)
    assert len(back.vertices) == 2 and len(back.edges) == 1


def test_encode_graph_k2_round_trip():
    code, mapping = encode_graph(make_graph([0, 1], [(0, 1)]))
    assert mapping == {0: 0, 1: 1}
    back = decode_graph(code)
    assert sorted(back.vertices) == [0, 1] and sorted(back.edges) == [(0, 1)]


def test_encode_graph_rank_gates():
    # a triangle's pair encoding already exceeds representable rank
    with pytest.raises(RankOverflowError):
        encode_graph(cycle_graph(3))
    # K2's pair has rank 5, so it misses the rank-4 level
    with pytest.raises(RankOverflowError):
        encode_graph(make_graph([0, 1], [(0, 1)]), target_rank=4)
    with pytest.raises(RankOverflowError):
        encode_graph(make_graph([], []), target_rank=6)


def test_graph_vertex_codes_avoid_pair_codes():
    codes = graph_vertex_codes(10)
    assert codes == [0, 1, 2, 4, 7, 8, 11, 13, 14, 15]
    assert all(bin(c).count("1") != 2 for c in codes)
    # the empty graph needs no code
    assert graph_vertex_codes(0) == []
    coded, codes = recode_graph(make_graph([], []))
    assert coded == make_graph([], []) and codes.all_codes() == []


def test_graph_object_codes_triangle():
    codes = graph_object_codes(cycle_graph(3))
    assert codes.vertex_code == {0: 0, 1: 1, 2: 2}
    assert codes.edge_code == {(0, 1): 3, (0, 2): 5, (1, 2): 6}
    assert codes.rank == 4
    assert smallest_rank_for([0, 1, 2, 3, 5, 6]) == 4


def test_recode_graph_identity_on_low_codes():
    coded, codes = recode_graph(cycle_graph(3))
    assert sorted(coded.vertices) == [0, 1, 2]
    assert sorted(coded.edges) == [(0, 1), (0, 2), (1, 2)]


def test_membership_structure_transitive_and_extensional():
    codes = graph_object_codes(cycle_graph(3))
    N = membership_structure(codes.all_codes())
    assert N.codes is not None
    universe = set(N.codes)
    # transitive: members of members are present
    for c in universe:
        assert set(hf_members(c)) <= universe
    # extensional: member bitmasks restricted to the universe differ
    index = {c: i for i, c in enumerate(N.codes)}
    extents = [frozenset(a for a, b2 in N.pairs if b2 == b) for b in range(N.size)]
    assert len(set(extents)) == N.size
    # relation mirrors bit membership through the code table
    for (a, b) in N.pairs:
        assert hf_contains(N.codes[b], N.codes[a])
