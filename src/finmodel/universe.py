"""Hereditarily finite sets under the Ackermann coding, finite ranks of
the cumulative hierarchy, and graph encodings into that world.

The coding: the binary digits of a code are the codes of the set's
members, so ``code({}) = 0`` and ``code({a, b}) = 2**a + 2**b``.  A
pleasant consequence is that rank-n sets occupy a contiguous code range,
so the n-th hierarchy level is simply ``range(size_n)`` with sizes
0, 1, 2, 4, 16, 65536 for n = 0..5.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graph import Graph, make_graph
from .structure import FinStructure

HIERARCHY_SIZES = (0, 1, 2, 4, 16, 65536)
MAX_RANK = 5


class RankOverflowError(ValueError):
    """An encoded object does not fit under the requested rank."""


def hf_members(code: int) -> list[int]:
    """Member codes, ascending (the set bits of *code*)."""
    if code < 0:
        raise ValueError("codes are nonnegative")
    out = []
    bit = 0
    while code:
        if code & 1:
            out.append(bit)
        code >>= 1
        bit += 1
    return out


def hf_contains(code: int, member: int) -> bool:
    return (code >> member) & 1 == 1


def hf_encode(members) -> int:
    out = 0
    for m in members:
        out |= 1 << m
    return out


def hf_pair(x: int, y: int) -> int:
    """The unordered pair {x, y} (a singleton when x == y)."""
    return (1 << x) | (1 << y)


def hf_union(z: int) -> int:
    """The union of z's members."""
    out = 0
    for m in hf_members(z):
        out |= m
    return out


def hf_succ(x: int) -> int:
    """x together with itself as a member: x | {x}."""
    return x | (1 << x)


def kuratowski_pair(a: int, b: int) -> int:
    """The ordered pair {{a}, {a, b}}."""
    return hf_pair(hf_pair(a, a), hf_pair(a, b))


def kuratowski_unpair(code: int) -> tuple[int, int]:
    """Invert :func:`kuratowski_pair`, or raise ValueError."""
    members = hf_members(code)
    if len(members) == 1:
        inner = hf_members(members[0])
        if len(inner) == 1:
            return inner[0], inner[0]
        raise ValueError(f"code {code} is not an ordered pair")
    if len(members) == 2:
        first, second = (hf_members(m) for m in members)
        if len(first) > len(second):
            first, second = second, first
        if len(first) == 1 and len(second) == 2 and first[0] in second:
            a = first[0]
            b = second[0] if second[1] == a else second[1]
            return a, b
    raise ValueError(f"code {code} is not an ordered pair")


def hf_apply(g: int, x: int) -> int:
    """Evaluate a set of ordered pairs as a function at x.

    Every member of g must decode as an ordered pair; exactly one value
    may be paired with x.
    """
    values = set()
    for member in hf_members(g):
        a, b = kuratowski_unpair(member)
        if a == x:
            values.add(b)
    if not values:
        raise ValueError(f"{x} is not in the domain")
    if len(values) > 1:
        raise ValueError(f"not single-valued at {x}: {sorted(values)}")
    return values.pop()


_rank_cache: dict[int, int] = {0: 0}


def hf_rank(code: int) -> int:
    """0 for the empty set, else one more than the largest member rank."""
    cached = _rank_cache.get(code)
    if cached is not None:
        return cached
    rank = 1 + max(hf_rank(m) for m in hf_members(code))
    _rank_cache[code] = rank
    return rank


def von_neumann(k: int) -> int:
    code = 0
    for _ in range(k):
        code = hf_succ(code)
    return code


def hf_repr(code: int, max_depth: int = 8) -> str:
    """Set-brace rendering, e.g. ``{{},{{}}}`` for code 3."""
    if max_depth <= 0:
        return f"<{code}>"
    return "{" + ",".join(hf_repr(m, max_depth - 1) for m in hf_members(code)) + "}"


# ---------------------------------------------------------------------------
# hierarchy levels as structures


@dataclass(frozen=True)
class Hierarchy:
    rank: int
    structure: FinStructure

    @property
    def size(self) -> int:
        return self.structure.size

    def elements(self) -> range:
        return range(self.size)


def build_hierarchy(rank: int, allow_rank5: bool = False) -> Hierarchy:
    """The cumulative hierarchy at a finite rank, as a structure.

    Element identifiers coincide with codes.  Rank 5 has 65536 elements
    and is gated behind ``allow_rank5`` to keep routine runs fast; rank
    6 would have 2**65536 elements and is out of reach outright.
    """
    if rank < 0 or rank > MAX_RANK:
        raise RankOverflowError(f"rank must be between 0 and {MAX_RANK}")
    if rank == MAX_RANK and not allow_rank5:
        raise RankOverflowError("rank 5 builds a 65536-element structure; pass allow_rank5=True")
    size = HIERARCHY_SIZES[rank]
    pairs = frozenset(
        (a, b) for b in range(size) for a in hf_members(b)
    )
    structure = FinStructure(size, pairs, codes=tuple(range(size)))
    return Hierarchy(rank, structure)


def smallest_rank_for(codes) -> int:
    """Least rank whose hierarchy contains every given code as element."""
    return max((hf_rank(c) for c in codes), default=0) + 1


# ---------------------------------------------------------------------------
# membership structures over arbitrary code sets


def membership_closure(codes) -> list[int]:
    """Transitive closure of a code set under membership, sorted."""
    out: set[int] = set()
    stack = list(codes)
    while stack:
        c = stack.pop()
        if c in out:
            continue
        out.add(c)
        stack.extend(hf_members(c))
    return sorted(out)


def membership_structure(codes) -> FinStructure:
    """The membership relation on the transitive closure of *codes*.

    A transitive set is extensional and well-founded, so this is an
    honest set-membership structure without the tower-of-exponents cost
    of a full hierarchy level.  Identifiers 0..n-1 follow ascending code
    order; the codes ride along on the structure.
    """
    closed = membership_closure(codes)
    index = {c: i for i, c in enumerate(closed)}
    pairs = frozenset(
        (index[m], index[c]) for c in closed for m in hf_members(c) if m in index
    )
    return FinStructure(len(closed), pairs, codes=tuple(closed))


# ---------------------------------------------------------------------------
# graphs as set objects


def graph_vertex_codes(count: int) -> list[int]:
    """The first *count* codes that no unordered-pair code can equal.

    Pair codes have exactly two bits set, so drawing vertex codes from
    the popcount-!=-2 pool keeps vertex and edge objects disjoint by
    construction.
    """
    pool = (c for c in itertools.count() if c.bit_count() != 2)
    return list(itertools.islice(pool, count))


@dataclass(frozen=True)
class GraphCodes:
    """Element-wise set encoding of a graph: one code per vertex and per
    edge, plus the least hierarchy rank admitting them all."""

    vertex_code: dict[int, int]
    edge_code: dict[tuple[int, int], int]
    rank: int

    def all_codes(self) -> list[int]:
        return sorted(set(self.vertex_code.values()) | set(self.edge_code.values()))


def graph_object_codes(G: Graph) -> GraphCodes:
    vertex_code = dict(zip(sorted(G.vertices), graph_vertex_codes(len(G.vertices))))
    edge_code = {}
    for u, v in sorted(G.edges):
        edge_code[(u, v)] = hf_pair(vertex_code[u], vertex_code[v])
    overlap = set(vertex_code.values()) & set(edge_code.values())
    if overlap:
        raise RankOverflowError(f"vertex/edge code collision: {sorted(overlap)}")
    rank = smallest_rank_for(list(vertex_code.values()) + list(edge_code.values()))
    return GraphCodes(vertex_code, edge_code, rank)


def recode_graph(G: Graph) -> tuple[Graph, GraphCodes]:
    """Relabel a graph so vertex identifiers are its set codes."""
    codes = graph_object_codes(G)
    vc = codes.vertex_code
    vertices = set(vc.values())
    edges = {(min(vc[u], vc[v]), max(vc[u], vc[v])) for u, v in G.edges}
    return make_graph(vertices, edges), codes


def encode_graph(G: Graph, target_rank: int | None = None) -> tuple[int, dict[int, int]]:
    """Encode a whole graph as one set: the ordered pair of its vertex
    set (von Neumann naturals) and edge set (unordered pairs).

    The pair's rank is computed before any large integer is built: with
    a target rank the pair must be an element of that hierarchy level,
    and without one it must at least stay representable (rank 5, i.e.
    codes below 2**65536).  Deeper graphs raise RankOverflowError, which
    already happens for a triangle.  Returns the pair's code and the
    vertex-to-code mapping; vertex and edge sets are verified disjoint.
    """
    ordered = sorted(G.vertices)
    vertex_code = {v: von_neumann(i) for i, v in enumerate(ordered)}
    edge_codes = {hf_pair(vertex_code[u], vertex_code[v]) for u, v in G.edges}
    v_rank = 1 + max((hf_rank(c) for c in vertex_code.values()), default=-1)
    e_rank = 1 + max((hf_rank(c) for c in edge_codes), default=-1)
    pair_rank = max(v_rank, e_rank) + 2
    if target_rank is not None:
        if target_rank > MAX_RANK:
            raise RankOverflowError(f"rank must be at most {MAX_RANK}")
        limit = target_rank - 1
    else:
        limit = MAX_RANK
    if pair_rank > limit:
        raise RankOverflowError(
            f"encoded graph would have rank {pair_rank}, above the limit {limit}"
        )
    if set(vertex_code.values()) & edge_codes:
        raise ValueError("vertex and edge objects overlap")
    v_set = hf_encode(vertex_code.values())
    e_set = hf_encode(edge_codes)
    return kuratowski_pair(v_set, e_set), vertex_code


def decode_graph(code: int) -> Graph:
    """Invert :func:`encode_graph` up to vertex renaming: vertices come
    back as their codes."""
    v_set, e_set = kuratowski_unpair(code)
    vertices = set(hf_members(v_set))
    edges = set()
    for e in hf_members(e_set):
        ends = hf_members(e)
        if len(ends) != 2 or not set(ends) <= vertices:
            raise ValueError(f"member {e} is not an edge over the vertex set")
        edges.add((ends[0], ends[1]))
    return make_graph(vertices, edges)
