"""Finite simple graphs with edge-set identity, and the cut/bond/cycle
machinery built on them.

Edges are canonical ordered tuples ``(min, max)``.  Graphs here are
plain: what a vertex or an edge stands for as a set object is left to
the slicing code in :mod:`finmodel.decompose`.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InputError, read_only

Edge = tuple[int, int]

# the largest component (or split block) that bond enumeration takes on,
# and the most edges the cycle double cover search takes on
_COMPONENT_CAP = 20
_DOUBLE_COVER_EDGE_GATE = 14


def edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"loop at {u} not allowed")
    return (u, v) if u < v else (v, u)


class Graph:
    """A frozen graph, equal to any graph with the same vertices and edges."""

    def __init__(self, vertices: frozenset[int], edges: frozenset[Edge]) -> None:
        for u, v in edges:
            if u >= v:
                raise ValueError(f"edge {(u, v)} not in canonical order")
            if u not in vertices or v not in vertices:
                raise ValueError(f"edge {(u, v)} has an endpoint outside the vertex set")
        vars(self).update(vertices=vertices, edges=edges)

    def __repr__(self) -> str:
        return f"Graph(vertices={self.vertices!r}, edges={self.edges!r})"

    def __eq__(self, other):
        if type(other) is not Graph:
            return NotImplemented
        return (self.vertices, self.edges) == (other.vertices, other.edges)

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    __setattr__ = __delattr__ = read_only

    def degree(self, v: int) -> int:
        _, index, adj = self._view
        return adj[index[v]].bit_count() if v in index else 0

    @functools.cached_property
    def _view(self) -> tuple[list[int], dict[int, int], list[int]]:
        """The sorted vertices, each one's bit position and each one's
        neighbour mask, built once per graph object.  Bits stand for
        positions, not for vertex ids: hereditarily-finite runs label
        vertices with set codes such as 1, 2, 4, 8, ..."""
        order = sorted(self.vertices)
        index = dict(zip(order, range(len(order))))
        adj = [0] * len(order)
        for u, v in self.edges:
            i, j = index[u], index[v]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return order, index, adj

    def __getstate__(self) -> dict:
        # pickles and copies carry the fields only, never the view
        return {"vertices": self.vertices, "edges": self.edges}


def make_graph(vertices: Iterable[int], edges: Iterable[Sequence[int]]) -> Graph:
    vs = frozenset(vertices)
    es = frozenset(edge(u, v) for u, v in edges)
    return Graph(vs, es)


def cycle_graph(n: int) -> Graph:
    return make_graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return make_graph(range(n), itertools.combinations(range(n), 2))


def components(G: Graph) -> list[frozenset[int]]:
    """Connected components, ordered by minimum vertex."""
    order, _, adj = G._view
    return [_members(order, comp) for comp in _components(adj)]


def is_connected(G: Graph) -> bool:
    return len(components(G)) <= 1


def _components(adj: list[int], within: int = -1) -> Iterator[int]:
    """The component masks of the mask graph ``adj`` restricted to the
    mask ``within`` (-1 for every vertex), lowest bit first."""
    left = (1 << len(adj)) - 1 & within
    while left:
        comp = _reach(adj, left & -left, left)
        left ^= comp
        yield comp


def _members(order: list[int], mask: int) -> frozenset[int]:
    return frozenset(v for i, v in enumerate(order) if mask >> i & 1)


def _reach(adj: list[int], start: int, within: int) -> int:
    """The mask of vertices in ``within`` reachable from the mask
    ``start`` (itself inside ``within``) along edges inside ``within``;
    ``within`` of -1 stands for every vertex."""
    seen = frontier = start
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & within & ~seen
        seen |= frontier
    return seen


def _masks_without(G: Graph, fset: frozenset[Edge]) -> tuple[dict[int, int], list[int]]:
    """G's bit positions, and its neighbour masks with the bits of the
    edges of fset (all in G) cleared: G minus F, with no new graph."""
    _, index, adj = G._view
    adj = adj.copy()
    for u, v in fset:
        i, j = index[u], index[v]
        adj[i] ^= 1 << j
        adj[j] ^= 1 << i
    return index, adj


# ---------------------------------------------------------------------------
# restriction and deletion


def restrict(G: Graph, M: Iterable[int]) -> Graph:
    """The restriction to M: vertices in M, edges inside M."""
    mset = set(M)
    es = frozenset(e for e in G.edges if e[0] in mset and e[1] in mset)
    return Graph(G.vertices & mset, es)


def delete_edges(G: Graph, F: Iterable[Sequence[int]]) -> Graph:
    """Remove the edges in F, keeping every vertex; edges of F outside G
    are ignored."""
    return Graph(G.vertices, G.edges - {edge(u, v) for u, v in F})


# ---------------------------------------------------------------------------
# cuts and bonds


class CutWitness(NamedTuple):
    side: frozenset[int]
    edges: frozenset[Edge]


def cut_of(G: Graph, A: Iterable[int]) -> CutWitness:
    """The edges crossing between A and its complement."""
    aset = frozenset(A)
    crossing = frozenset(e for e in G.edges if (e[0] in aset) != (e[1] in aset))
    return CutWitness(aset & G.vertices, crossing)


def is_cut(G: Graph, F: Iterable[Edge]) -> bool:
    """Is F of the form ``E ∩ [A, A-complement]`` for some vertex set A?"""
    return _cut_side(G, frozenset(edge(u, v) for u, v in F)) is not None


def _cut_side(G: Graph, fset: frozenset[Edge]) -> int | None:
    """The mask of a side A whose cut is fset, or None when fset is no
    cut of G.

    One parity 2-colouring of G, A being colour 1: F-edges must join
    different colours and all other edges equal ones.
    """
    if not fset <= G.edges:
        return None
    _, keep = _masks_without(G, fset)
    adj = G._view[2]
    full = (1 << len(adj)) - 1
    seen = ones = todo = 0
    while todo or seen != full:
        if not todo:  # the next component starts at its lowest vertex, colour 0
            todo = ~seen & (seen + 1)
            seen |= todo
        low = todo & -todo
        todo ^= low
        i = low.bit_length() - 1
        # the neighbours of i that take colour 1
        want = keep[i] if ones & low else adj[i] ^ keep[i]
        if (ones ^ want) & adj[i] & seen:
            return None
        fresh = adj[i] & ~seen
        ones |= want & fresh
        seen |= fresh
        todo |= fresh
    return ones


def is_bond(G: Graph, F: Iterable[Edge]) -> bool:
    """Nonempty F is a bond when two distinct components of G minus F
    account for exactly the edges of F between them.

    Flood-fills G minus F from both ends of one F edge; F is a bond
    exactly when every F edge joins the two regions reached.
    """
    fset = frozenset(edge(u, v) for u, v in F)
    if not fset or not fset <= G.edges:
        return False
    index, adj = _masks_without(G, fset)
    u, v = next(iter(fset))
    one = _reach(adj, 1 << index[u], -1)
    if one >> index[v] & 1:
        return False
    other = _reach(adj, 1 << index[v], -1)
    return all(
        (one >> index[a] & other >> index[b] | one >> index[b] & other >> index[a]) & 1
        for a, b in fset
    )


def cut_to_bonds(G: Graph, F: Iterable[Edge]) -> list[frozenset[Edge]]:
    """Split a cut into pairwise disjoint bonds whose union is the cut,
    in the order of :func:`enumerate_bonds` (Diestel, *Graph Theory*,
    ch. 1).  Take a side A, a component A_i of G[A] and the component K
    of G that holds it.  No edge joins A_i to the rest of A, and each
    component C of K - A_i has all its outside neighbours in A_i, so the
    cut is the disjoint union of the cuts of the C.  Each is a bond: C is
    connected, and so is K - C, which is A_i with the other components
    of K - A_i, each of them touching A_i.
    """
    side = _cut_side(G, frozenset(edge(u, v) for u, v in F))
    if side is None:
        raise ValueError("edge set is not a cut")
    order, _, adj = G._view
    bonds = [
        cut_of(G, _members(order, comp)).edges
        for part in _components(adj, side)
        for comp in _components(adj, _reach(adj, part, -1) ^ part)
    ]
    return sorted(bonds, key=lambda f: (len(f), sorted(f)))


_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")
# the stack type of enumerate_bonds' side search, a name that a test can
# replace to count the nodes grown
_Stack = list


def enumerate_bonds(G: Graph, max_size: int | None = None) -> list[frozenset[Edge]]:
    """All bonds (optionally only those up to max_size), deterministic:
    by size, then by their sorted edge lists.

    A bond always lives inside one connected component, and the bonds of
    a connected component are exactly the cuts of the sides S, taken
    here to contain the component's smallest vertex, such that S and its
    complement are both connected (Tsukiyama, Shirakawa, Ozaki and
    Ariyoshi, JACM 1980).  Vertex sets are bitmasks, and each side
    carries its cut as the XOR of its vertices' incident-edge masks (an
    edge with both ends inside cancels), edge k of the sorted edges being
    bit m-1-k.

    A side grows by one frontier vertex at a time, and each branch bars
    the vertices its earlier siblings added, so a node (S, barred) stands
    for every connected side that holds S and avoids the barred vertices,
    and no side is reached twice.  A node whose cut is within max_size
    floods the rest of the component, comp - S, once from a barred
    vertex, so that only sides that can still lead to a bond are grown
    (the listing paradigm of Provan and Shier, Algorithmica 1996).  The
    components of comp - S have no edges between them, and each one
    touches S.  A side below the node leaves the barred vertices out, so
    its complement, inside comp - S, is connected only if the barred
    vertices lie in one component C of comp - S and every other
    component is inside the side.  So:

    - with barred vertices in two components no bond lies below, and the
      node is pruned;
    - otherwise the other components join S, which stays connected as
      each touches it, and S, whose complement is now C, is a bond side.

    While nothing is barred the flood starts at the lowest vertex of
    comp - S and only tells whether S is a bond side.  A node whose cut
    is over max_size grows without a flood.  Every node grows only into
    the children that pass the fence, the incident-edge mask of its
    barred vertices.  A side below the node holds S and leaves the
    barred vertices out, so its cut holds every edge between S and a
    barred vertex, and those edges are exactly cut(S) & fence.  A child
    S' = S + j is therefore pushed only when cut(S') & fence, taken with
    the fence that bars j's earlier siblings, has at most max_size
    edges; below a child that fails lies no bond of at most max_size
    edges, its own cut included.

    This bounds the search.  Every barred vertex is adjacent to S, by a
    distinct edge of cut(S) & fence, so a pushed node bars at most
    kappa = min(max_size, m) vertices.  The i-th child of a node, counting
    the children that fail, bars i-1 more vertices than its parent, so
    the child indices i_1, ..., i_d on the path to a node of depth d
    satisfy sum(i_t - 1) <= kappa.  There are C(d + kappa, kappa) such
    paths, and d < n for a component of n vertices, as S gains a vertex
    at each step, so a component grows at most
    sum(C(d + kappa, kappa) for d < n) = C(n + kappa, kappa + 1) nodes:
    polynomial for fixed kappa.  The stack is made by ``_Stack``, so a
    test can count the nodes.  Cuts are collected by size; of two cuts
    of one size the larger mask is the one whose sorted edge list comes
    first.  Components larger than the cap raise.
    """
    _, index, adj = G._view
    edges = sorted(G.edges)
    m = len(edges)
    inc = [0] * len(adj)
    for k, (u, v) in enumerate(edges):
        bit = 1 << (m - 1 - k)
        inc[index[u]] |= bit
        inc[index[v]] |= bit
    # no cut holds more than the m edges
    cap = m if max_size is None else min(max_size, m)
    by_size: list[list[int]] = [[] for _ in range(cap + 1)]
    for comp in _components(adj):
        size = comp.bit_count()
        if size > _COMPONENT_CAP:
            raise InputError(
                f"component with {size} vertices exceeds the enumeration cap"
            )
        # a node is comp - S, S's frontier, the barred vertices, their
        # fence and S's cut
        anchor = comp & -comp
        i = anchor.bit_length() - 1
        stack = _Stack([(comp ^ anchor, adj[i], 0, 0, inc[i])])
        while stack:
            rest, frontier, barred, fence, cut = stack.pop()
            if rest and cut.bit_count() <= cap:
                start = barred or rest
                reach = _reach(adj, start & -start, rest)
                if barred & ~reach:
                    continue
                if barred or reach == rest:
                    absorbed = rest ^ reach
                    rest = reach
                    frontier &= reach
                    while absorbed:
                        low = absorbed & -absorbed
                        cut ^= inc[low.bit_length() - 1]
                        absorbed ^= low
                    by_size[cut.bit_count()].append(cut)
            fresh = frontier & ~barred
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                j = low.bit_length() - 1
                child = cut ^ inc[j]
                if (child & fence).bit_count() <= cap:
                    left = rest ^ low
                    stack.append((left, (frontier | adj[j]) & left, barred, fence, child))
                barred |= low
                fence |= inc[j]
    # a cut's binary digits under a leading 1, read left to right, select
    # its edges from the sorted edges
    top = 1 << m
    return [
        frozenset(
            itertools.compress(edges, bin(top | cut).encode()[3:].translate(_DIGIT_BITS))
        )
        for bucket in by_size
        for cut in sorted(bucket, reverse=True)
    ]


class BondInheritance(NamedTuple):
    """How a bond of a subgraph sits inside the host graph.

    ``kind`` is ``bond-in-host`` when F is a bond of the host too,
    ``confined`` when instead all of F lies inside a single component of
    the host minus F (with that component reported), and ``violation``
    if neither holds, which would contradict a fact that is provably
    impossible and is therefore treated as fatal.
    """

    kind: str
    component: frozenset[int] | None = None


def check_bond_inheritance(G: Graph, H: Graph, F: Iterable[Edge]) -> BondInheritance:
    fset = frozenset(edge(u, v) for u, v in F)
    if not (H.vertices <= G.vertices and H.edges <= G.edges):
        raise ValueError("H is not a subgraph of G")
    if not is_bond(H, fset):
        raise ValueError("F is not a bond of the subgraph")
    if is_bond(G, fset):
        return BondInheritance("bond-in-host")
    index, adj = _masks_without(G, fset)
    ends = 0
    for u, v in fset:
        ends |= 1 << index[u] | 1 << index[v]
    comp = _reach(adj, ends & -ends, -1)
    if ends & ~comp:
        return BondInheritance("violation")
    return BondInheritance("confined", _members(G._view[0], comp))


# ---------------------------------------------------------------------------
# edge connectivity and disjoint paths


def edge_connectivity(G: Graph, x: int, y: int) -> int:
    """Minimum number of edges separating x from y (max-flow with unit
    capacities on both orientations of every edge)."""
    return _max_unit_flow(G, x, y)[0]


def edge_disjoint_paths(G: Graph, x: int, y: int, k: int) -> list[list[int]]:
    """k pairwise edge-disjoint x-y paths extracted from a maximum flow:
    each follows the flow from x along its lowest arcs, with the flow
    cycles it walks through erased."""
    value, out = _max_unit_flow(G, x, y, k)
    if k > value:
        raise InputError(f"asked for {k} paths but connectivity is {value}")
    order, index, _ = G._view
    paths = []
    for _ in range(k):
        walk = [index[x]]
        while walk[-1] != index[y]:
            v = walk[-1]
            low = out[v] & -out[v]
            out[v] ^= low
            walk.append(low.bit_length() - 1)
        paths.append([order[i] for i in _erase_loops(walk)[1]])
    return paths


def _max_unit_flow(G: Graph, x: int, y: int, k: int = 0) -> tuple[int, list[int]]:
    """The value of a maximum unit flow from x to y, and out[u], the mask
    of the positions that u sends a unit to.  The arc u -> v has room
    exactly when v is in adj[u] & ~out[u]; augmenting along it cancels
    v's unit to u or sends one from u.  Each round takes a shortest
    augmenting path, neighbours in lowest-bit order.  k is the path count
    asked for, checked here so that the entry points report x = y first,
    then a negative k, then endpoints outside G."""
    if x == y:
        raise InputError("endpoints must differ")
    if k < 0:
        raise InputError(f"path count {k} is negative")
    if x not in G.vertices or y not in G.vertices:
        raise InputError("endpoints must be vertices")
    _, index, adj = G._view
    s, t = index[x], index[y]
    out = [0] * len(adj)
    parent = [0] * len(adj)
    value = 0
    while True:
        seen = 1 << s
        queue = [s]
        for u in queue:
            if seen >> t & 1:
                break
            fresh = adj[u] & ~out[u] & ~seen
            seen |= fresh
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                v = low.bit_length() - 1
                parent[v] = u
                queue.append(v)
        if not seen >> t & 1:
            return value, out
        v = t
        while v != s:
            u = parent[v]
            if out[v] >> u & 1:
                out[v] ^= 1 << u
            else:
                out[u] |= 1 << v
            v = u
        value += 1


def _erase_loops(walk: list) -> tuple[list[list], list]:
    """Cut each loop out of a walk as the walk closes it: the loops, each
    listed from the vertex that closes it, and the path that is left."""
    loops = []
    path: list = []
    position: dict = {}
    for v in walk:
        if v in position:
            cut = position[v] + 1
            loops.append(path[cut - 1:])
            for dropped in path[cut:]:
                del position[dropped]
            del path[cut:]
        else:
            position[v] = len(path)
            path.append(v)
    return loops, path


# ---------------------------------------------------------------------------
# parity, cycles, bridges


def odd_vertices(G: Graph) -> list[int]:
    order, _, adj = G._view
    return [v for v, nbrs in zip(order, adj) if nbrs.bit_count() & 1]


def odd_cut_witness(G: Graph) -> CutWitness | None:
    """A cut with an odd number of edges, or None: the star of the
    smallest odd-degree vertex.  The cut at A has the parity of the sum
    of the degrees over A, so G has an odd cut exactly when it has an
    odd-degree vertex (:func:`finmodel.oracles.odd_cut_by_definition`
    scans the bipartitions instead)."""
    odd = odd_vertices(G)
    return cut_of(G, {odd[0]}) if odd else None


class Decomposition(NamedTuple):
    """Subgraphs of a common host whose edge sets partition the host's."""

    parts: tuple[Graph, ...]


def is_decomposition(G: Graph, parts: Sequence[Graph]) -> bool:
    seen: set[Edge] = set()
    for part in parts:
        if not (part.vertices <= G.vertices and part.edges <= G.edges):
            return False
        if seen & part.edges:
            return False
        seen |= part.edges
    return seen == set(G.edges)


def is_cycle(G: Graph) -> bool:
    adj = G._view[2]
    if {nbrs.bit_count() for nbrs in adj} - {0} != {2}:
        return False
    # every degree is 0 or 2, so the edges form disjoint cycles: one is wanted
    return sum(comp.bit_count() > 1 for comp in _components(adj)) == 1


class CycleDecompositionResult(NamedTuple):
    decomposition: Decomposition | None
    odd_vertex: int | None

    @property
    def ok(self) -> bool:
        return self.decomposition is not None


def veblen_decomposition(G: Graph) -> CycleDecompositionResult:
    """Partition the edges into cycles, possible exactly when every
    degree is even; otherwise report the smallest odd-degree vertex.

    Peeling is deterministic: each closed trail starts at the smallest
    vertex with remaining edges and always leaves along the smallest
    unused neighbour, and its cycles are the loops cut out of it as it
    closes them.  Evenness makes each trail end at its start.
    """
    odd = odd_vertices(G)
    if odd:
        return CycleDecompositionResult(None, odd[0])
    order, _, adj = G._view
    left = adj.copy()
    cycles = []
    for start in range(len(left)):
        walk = [start]
        while left[walk[-1]]:
            v = walk[-1]
            low = left[v] & -left[v]
            w = low.bit_length() - 1
            left[v] ^= low
            left[w] ^= 1 << v
            walk.append(w)
        loops, path = _erase_loops(walk)
        assert path == [start], "walk finished away from its start"
        for loop in loops:
            vs = [order[i] for i in loop]
            cycles.append(make_graph(vs, zip(vs, vs[1:] + vs[:1])))
    return CycleDecompositionResult(Decomposition(tuple(cycles)), None)


def biconnected_blocks(G: Graph) -> list[frozenset[Edge]]:
    """The edge sets of G's blocks (its maximal 2-connected subgraphs and
    its bridges) by smallest edge: a low-link DFS with an edge stack
    (Hopcroft and Tarjan, CACM 1973) over the bit positions of G's mask
    view.  When no back edge below v reaches above its parent p, the
    edges from the tree edge pv on are a block."""
    order, _, adj = G._view
    preorder = [-1] * len(adj)
    low = [0] * len(adj)
    pending: list[tuple[int, int]] = []
    out: list[frozenset[Edge]] = []
    counter = itertools.count()
    for root in range(len(adj)):
        if preorder[root] >= 0:
            continue
        preorder[root] = low[root] = next(counter)
        # a DFS frame: a vertex, the vertex it was entered from, its unseen
        # neighbours and where its tree edge stands on the edge stack
        stack = [[root, -1, adj[root], 0]]
        while stack:
            v, parent, rest, mark = frame = stack[-1]
            while rest:
                w = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if preorder[w] < 0:
                    frame[2] = rest
                    preorder[w] = low[w] = next(counter)
                    stack.append([w, v, adj[w], len(pending)])
                    pending.append((v, w))
                    break
                if w != parent and preorder[w] < preorder[v]:
                    pending.append((v, w))
                    low[v] = min(low[v], preorder[w])
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[v])
                    if low[v] >= preorder[p]:
                        out.append(frozenset(edge(order[a], order[b]) for a, b in pending[mark:]))
                        del pending[mark:]
    return sorted(out, key=min)


def bridges(G: Graph) -> list[Edge]:
    """Edges whose removal separates their endpoints: the blocks of one
    edge."""
    return [min(block) for block in biconnected_blocks(G) if len(block) == 1]


# ---------------------------------------------------------------------------
# cycle double cover search


def enumerate_cycles(G: Graph) -> list[frozenset[Edge]]:
    """Edge sets of all simple cycles, canonically ordered.

    Each cycle is found once, rooted at its smallest vertex, extending
    paths only through larger vertices.
    """
    order, _, adj = G._view
    cycles: set[frozenset[Edge]] = set()
    for root in range(len(adj)):
        stack = [[root]]
        while stack:
            path = stack.pop()
            nbrs = adj[path[-1]] >> root << root
            while nbrs:
                w = (nbrs & -nbrs).bit_length() - 1
                nbrs &= nbrs - 1
                if w == root and len(path) >= 3:
                    vs = [order[i] for i in path]
                    cycles.add(frozenset(map(edge, vs, vs[1:] + vs[:1])))
                elif w not in path:
                    stack.append(path + [w])
    return sorted(cycles, key=lambda c: (len(c), sorted(c)))


class DoubleCoverResult(NamedTuple):
    status: str  # found | budget-exhausted | proven-absent
    cycles: tuple[frozenset[Edge], ...] | None = None


def cycle_double_cover_search(G: Graph, budget: int = 200_000) -> DoubleCoverResult:
    """Backtracking search for a family of cycles covering each edge
    exactly twice.  Bridged input is rejected outright (a bridge lies on
    no cycle, so no cover can exist).  Edge k of the sorted edges is bit
    k, and each node carries the masks of the edges covered once and
    twice."""
    if bridges(G):
        raise InputError("graph has a bridge; no cycle can cover it")
    if len(G.edges) > _DOUBLE_COVER_EDGE_GATE:
        raise InputError(f"graph exceeds the {_DOUBLE_COVER_EDGE_GATE}-edge search gate")
    if not G.edges:
        return DoubleCoverResult("found", ())
    cycles = enumerate_cycles(G)
    edges = sorted(G.edges)
    bit = {e: 1 << k for k, e in enumerate(edges)}
    masks = [sum(map(bit.get, cyc)) for cyc in cycles]
    full = (1 << len(edges)) - 1
    chosen: list[int] = []
    nodes = 0

    def search(once: int, twice: int) -> str:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            return "budget"
        if twice == full:
            return "found"
        # every cover has a cycle through the first open edge, so trying
        # each of them (a cycle may repeat) keeps the search complete
        target = ~twice & twice + 1
        for i, cyc in enumerate(masks):
            if cyc & target and not cyc & twice:
                chosen.append(i)
                verdict = search(once ^ cyc, twice | once & cyc)
                if verdict != "absent":
                    return verdict
                chosen.pop()
        return "absent"

    verdict = search(0, 0)
    if verdict == "found":
        family = tuple(cycles[i] for i in chosen)
        counts: dict[Edge, int] = {e: 0 for e in edges}
        for cyc in family:
            for e in cyc:
                counts[e] += 1
        assert all(c == 2 for c in counts.values()), "search produced a bad cover"
        return DoubleCoverResult("found", family)
    if verdict == "budget":
        return DoubleCoverResult("budget-exhausted")
    return DoubleCoverResult("proven-absent")
