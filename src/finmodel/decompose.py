"""Chain-based graph slicing, reflection probes over graph corpora, and
bond-faithful decomposition checking and search.

Slicing owns the set objects of a code-labelled graph: a vertex is its
own code and the edge {u, v} is the object ``hf_pair(u, v)``, that is
2**u + 2**v.  With stages M_0 c M_1 c ... the alpha-th slice keeps the
vertices in M_{alpha+1} and the edges whose object lies in M_{alpha+1}
but not in M_alpha, with both ends in M_{alpha+1}.  An implicit empty
stage is prepended so that edges inside the first given stage are not
lost; with coherent stages whose last member covers all vertex and edge
objects, the slices partition the edge set.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import InputError
from .graph import (
    Decomposition,
    Edge,
    Graph,
    bridges,
    components,
    cut_of,
    enumerate_bonds,
    is_bond,
    is_decomposition,
    make_graph,
    odd_cut_witness,
    odd_vertices,
    restrict,
)
from .hull import Chain, chain, get_pack
from .formula import FormulaPack
from .structure import DEFAULT_BUDGET, FinStructure
from .universe import build_hierarchy, hf_pair, membership_structure, recode_graph


# ---------------------------------------------------------------------------
# slicing


class SliceSet(NamedTuple):
    host: Graph
    stages: tuple[frozenset[int], ...]
    slices: tuple[Graph, ...]
    stage_coherent: tuple[bool, ...]
    covers_host: bool

    @property
    def all_coherent(self) -> bool:
        return all(self.stage_coherent)


def _slice(G: Graph, below: frozenset[int], upto: frozenset[int]) -> Graph:
    """The slice of the code-labelled G between two stages: the vertices
    in ``upto``, and the edges whose object lies in ``upto`` but not in
    ``below``, with both ends in ``upto``."""
    es = frozenset(
        e for e in G.edges
        if e[0] in upto and e[1] in upto
        and (code := hf_pair(*e)) in upto and code not in below
    )
    return Graph(G.vertices & upto, es)


def _stage_coherent(G: Graph, stage: frozenset[int]) -> bool:
    # an edge object sits in the stage exactly when both endpoints do
    return all(
        (hf_pair(*e) in stage) == (e[0] in stage and e[1] in stage)
        for e in G.edges
    )


def chain_slices(G: Graph, stages: Sequence[Iterable[int]]) -> SliceSet:
    """Slice a code-labelled graph along an increasing stage sequence.

    Stage sets mix vertex codes and edge-object codes.  An empty zeroth
    stage is prepended when the first given stage is nonempty.
    """
    frozen = [frozenset(s) for s in stages]
    for a, b in zip(frozen, frozen[1:]):
        if not (a < b):
            raise InputError("stages must be strictly increasing")
    if not frozen:
        raise InputError("need at least one stage")
    if frozen[0]:
        frozen.insert(0, frozenset())
    slices = tuple(_slice(G, below, upto) for below, upto in zip(frozen, frozen[1:]))
    everything = G.vertices | {hf_pair(*e) for e in G.edges}
    return SliceSet(
        host=G,
        stages=tuple(frozen),
        slices=slices,
        stage_coherent=tuple(_stage_coherent(G, s) for s in frozen),
        covers_host=everything <= frozen[-1],
    )


def slice_partition_check(S: SliceSet) -> bool:
    """Do the slices' edge sets partition the host's edge set?"""
    return is_decomposition(S.host, S.slices)


def slices_from_chain(G: Graph, ambient: FinStructure, ch: Chain) -> SliceSet:
    """Translate a chain's stages from element identifiers to codes and
    slice the graph along them."""
    if ambient.codes is None:
        raise ValueError("ambient structure carries no set codes")
    stage_codes = [frozenset(ambient.codes[i] for i in stage) for stage in ch.stages]
    deduped = [stage_codes[0]]
    for s in stage_codes[1:]:
        if s != deduped[-1]:
            deduped.append(s)
    return chain_slices(G, deduped)


# ---------------------------------------------------------------------------
# graph properties for reflection probes


def _prop_nw(G: Graph) -> tuple[bool, object]:
    # literal reading: no cut has an odd number of edges
    witness = odd_cut_witness(G, mode="exhaustive")
    if witness is not None:
        return False, {
            "odd_cut_side": sorted(witness.side),
            "odd_cut_size": len(witness.edges),
        }
    return True, None


def _prop_even_degree(G: Graph) -> tuple[bool, object]:
    odd = odd_vertices(G)
    if odd:
        return False, {"odd_vertex": odd[0], "degree": G.degree(odd[0])}
    return True, None


def _prop_bridgeless(G: Graph) -> tuple[bool, object]:
    found = bridges(G)
    if found:
        return False, {"bridge": list(found[0])}
    return True, None


def _prop_no_small_component(G: Graph, bound: int = 3) -> tuple[bool, object]:
    for comp in components(G):
        if 1 < len(comp) < bound:
            return False, {"component": sorted(comp)}
    return True, None


PROPERTIES: dict[str, Callable[[Graph], tuple[bool, object]]] = {
    "nw": _prop_nw,
    "even-degree": _prop_even_degree,
    "bridgeless": _prop_bridgeless,
    "no-small-component": _prop_no_small_component,
}


class ProbeCounterexample(NamedTuple):
    subset: tuple[int, ...]
    piece: str  # restrict | delete | slice:<i>
    witness: object


class ProbeInstance(NamedTuple):
    index: int
    status: str  # ok | skipped-rank | skipped-precondition
    rank: int | None = None
    candidates_tested: int = 0
    counterexamples: tuple[ProbeCounterexample, ...] = ()

    @property
    def clean(self) -> bool:
        return self.status == "ok" and not self.counterexamples


class ProbeReport(NamedTuple):
    property_name: str
    pack_name: str
    instances: tuple[ProbeInstance, ...]

    @property
    def counterexample_count(self) -> int:
        return sum(len(i.counterexamples) for i in self.instances)


def _candidate_subsets(ch: Chain) -> list[frozenset[int]]:
    """Stage sets plus every closure prefix, deduplicated in order."""
    out: dict[frozenset[int], None] = {}
    for record in ch.records:
        current = set(record.seed)
        out.setdefault(frozenset(current), None)
        for step in record.trace:
            current.add(step.witness)
            out.setdefault(frozenset(current), None)
    for stage in ch.stages:
        out.setdefault(stage, None)
    return list(out)


def probe_one(
    G: Graph,
    pack: FormulaPack,
    prop: Callable[[Graph], tuple[bool, object]],
    index: int = 0,
    allow_rank5: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> ProbeInstance:
    """Test one graph: encode into the smallest admitting hierarchy,
    chain from the empty seed to full coverage, and evaluate the
    property on the restriction, the deletion and the slices arising
    from every candidate subset."""
    holds, _ = prop(G)
    if not holds:
        return ProbeInstance(index, "skipped-precondition")
    coded, codes = recode_graph(G)
    max_rank = 5 if allow_rank5 else 4
    if codes.rank > max_rank:
        return ProbeInstance(index, "skipped-rank", rank=codes.rank)
    hierarchy = build_hierarchy(codes.rank, allow_rank5=allow_rank5)
    objects = frozenset(codes.all_codes())
    ch = chain(hierarchy, pack, frozenset(), objects, budget)
    counterexamples: list[ProbeCounterexample] = []
    tested = 0
    for subset in _candidate_subsets(ch):
        verdicts = [("restrict", prop(restrict(coded, subset)))]
        deletion = prop(_slice(coded, subset, objects))
        verdicts.append(("delete", deletion))
        if subset:
            # the two-stage slicing this subset induces: up to the subset,
            # then the rest of the graph, which is the deletion, so its
            # verdict is the deletion's
            verdicts.append(("slice:0", prop(_slice(coded, frozenset(), subset))))
            if not objects <= subset:
                verdicts.append(("slice:1", deletion))
        for name, (ok, witness) in verdicts:
            tested += 1
            if not ok:
                counterexamples.append(
                    ProbeCounterexample(tuple(sorted(subset)), name, witness)
                )
    sliced = slices_from_chain(coded, hierarchy.structure, ch)
    for i, piece in enumerate(sliced.slices):
        tested += 1
        ok, witness = prop(piece)
        if not ok:
            counterexamples.append(
                ProbeCounterexample(
                    tuple(sorted(sliced.stages[i])), f"chain-slice:{i}", witness
                )
            )
    return ProbeInstance(
        index, "ok", rank=codes.rank,
        candidates_tested=tested, counterexamples=tuple(counterexamples),
    )


def well_reflecting_probe(
    corpus: Sequence[Graph],
    pack: FormulaPack,
    property_name: str,
    allow_rank5: bool = False,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> ProbeReport:
    """Empirically test whether a property survives restriction,
    deletion and slicing across a corpus.  Nothing is asserted a priori;
    the report simply records every failure found."""
    if property_name not in PROPERTIES:
        raise KeyError(f"unknown property {property_name!r}; available: {sorted(PROPERTIES)}")
    prop = PROPERTIES[property_name]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        args = [(G, pack, property_name, i, allow_rank5, budget) for i, G in enumerate(corpus)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            instances = tuple(pool.map(_probe_star, args))
    else:
        instances = tuple(
            probe_one(G, pack, prop, i, allow_rank5, budget)
            for i, G in enumerate(corpus)
        )
    return ProbeReport(property_name, pack.name, instances)


def _probe_star(args) -> ProbeInstance:
    G, pack, property_name, index, allow_rank5, budget = args
    return probe_one(G, pack, PROPERTIES[property_name], index, allow_rank5, budget)


# ---------------------------------------------------------------------------
# bond-faithful decompositions


class BondFaithfulReport(NamedTuple):
    kappa: int
    size_ok: bool
    containment_ok: bool
    bond_preservation_ok: bool
    oversized_members: tuple[int, ...] = ()
    split_bonds: tuple[frozenset[Edge], ...] = ()
    foreign_bonds: tuple[tuple[int, frozenset[Edge]], ...] = ()
    sampled: bool = False

    @property
    def verdict(self) -> bool:
        return self.size_ok and self.containment_ok and self.bond_preservation_ok


def _bonds_upto(G: Graph, max_size: int) -> tuple[list[frozenset[Edge]], bool]:
    """Bonds of G with at most max_size edges; falls back to sampling
    vertex-star and two-set cuts when a component exceeds the cap."""
    try:
        bonds = enumerate_bonds(G, max_size=max_size)
        return bonds, False
    except InputError:
        sampled: dict[frozenset[Edge], None] = {}
        singles = [{v} for v in sorted(G.vertices)]
        doubles = [set(p) for p in itertools.combinations(sorted(G.vertices), 2)]
        for side in singles + doubles:
            F = cut_of(G, side).edges
            if F and len(F) <= max_size and is_bond(G, F):
                sampled.setdefault(F, None)
        return list(sampled), True


def check_bond_faithful(
    G: Graph, parts: Decomposition | Sequence[Graph], kappa: int
) -> BondFaithfulReport:
    """Check the three clauses of bond-faithfulness with witnesses.

    Size: every member has at most kappa edges.  Containment: every
    host bond with at most kappa edges lies inside one member's edge
    set.  Preservation: every member bond with fewer than kappa edges is
    a bond of the host.
    """
    members = tuple(parts.parts) if isinstance(parts, Decomposition) else tuple(parts)
    return _Clauses(G, kappa).check(members)


class _Clauses:
    """The clauses of :func:`check_bond_faithful` against one host, for
    any number of decompositions and blocks: the host's bonds are
    enumerated once, and each member edge set's foreign bonds are kept
    for its next use."""

    def __init__(self, G: Graph, kappa: int):
        if kappa < 1:
            raise InputError("kappa must be at least 1")
        self.G, self.kappa = G, kappa
        self.host_bonds, self.sampled = _bonds_upto(G, kappa)
        self._host_bond_set = frozenset(self.host_bonds)
        self._foreign_of: dict[frozenset[Edge], list[frozenset[Edge]]] = {}

    def foreign(self, edges: frozenset[Edge]) -> list[frozenset[Edge]]:
        """The bonds with fewer than kappa edges of the subgraph on
        ``edges`` that are no bonds of the host: looked up among the
        host bonds when they are all known, else tested one by one.  Past
        the cap the subgraph's bonds are sampled, and then so are the
        host's (one of its components holds the subgraph's)."""
        found = self._foreign_of.get(edges)
        if found is None:
            found = self._foreign_of[edges] = [
                F
                for F in _bonds_upto(_subgraph_of(edges), self.kappa - 1)[0]
                if not (
                    is_bond(self.G, F) if self.sampled else F in self._host_bond_set
                )
            ]
        return found

    def check(self, members: Sequence[Graph]) -> BondFaithfulReport:
        G, kappa = self.G, self.kappa
        if not is_decomposition(G, members):
            raise InputError("parts do not form a decomposition of the host")
        oversized = tuple(
            i for i, part in enumerate(members) if len(part.edges) > kappa
        )
        split = tuple(
            F for F in self.host_bonds
            if not any(F <= part.edges for part in members)
        )
        foreign = tuple(
            (i, F) for i, part in enumerate(members) for F in self.foreign(part.edges)
        )
        return BondFaithfulReport(
            kappa=kappa,
            size_ok=not oversized,
            containment_ok=not split,
            bond_preservation_ok=not foreign,
            oversized_members=oversized,
            split_bonds=split,
            foreign_bonds=foreign,
            sampled=self.sampled,
        )

    def admissible_blocks(self, edges: list[Edge], spend: Callable[[], None]) -> list[int]:
        """The edge sets that can be members of a bond-faithful
        decomposition, as masks (edge k of ``edges`` is bit k): the
        nonempty B with at most kappa edges and no foreign bonds.  A
        decomposition passes :meth:`check` exactly when its members'
        edge sets are admissible blocks.  ``spend`` is called once per
        subset examined.

        Containment needs no test of its own.  If B meets a host bond F
        of at most kappa edges without holding it, F ∩ B is a cut of B
        with fewer than kappa edges, and the bonds it splits into lie
        strictly inside the bond F, so none is a host bond.  A cheap
        test runs first: an edge of B with an end that no other edge of
        B touches is a bond of B with one edge, which for kappa > 1 must
        be a host bond, that is a bridge (found exactly, even when the
        host bonds are sampled).  It spares building the subgraph of
        most B."""
        bit = {e: 1 << k for k, e in enumerate(edges)}
        host_bridges = sum(bit[e] for e in bridges(self.G))
        incident: dict[int, int] = {}
        for e, b in bit.items():
            for v in e:
                incident[v] = incident.get(v, 0) | b
        out = []
        for size in range(1, min(self.kappa, len(edges)) + 1):
            for picked in itertools.combinations(range(len(edges)), size):
                spend()
                block = sum(1 << k for k in picked)
                if self.kappa > 1:
                    ends = (incident[v] & block for k in picked for v in edges[k])
                    if any(at & ~host_bridges and not at & (at - 1) for at in ends):
                        continue
                if not self.foreign(frozenset(edges[k] for k in picked)):
                    out.append(block)
        return out


class BondFaithfulSearch(NamedTuple):
    """``sampled`` is a decomposition that passed a check against sampled
    host bonds only, because a component exceeded the enumeration cap: a
    candidate, not a proof."""

    status: str  # found | sampled | budget-exhausted | proven-absent
    decomposition: Decomposition | None = None
    report: BondFaithfulReport | None = None


def _subgraph_of(edges: Iterable[Edge]) -> Graph:
    es = frozenset(edges)
    vs = frozenset(v for e in es for v in e)
    return Graph(vs, es)


def _slice_candidate(G: Graph) -> list[Graph] | None:
    """Chain-slice a connected graph over its membership structure;
    None when slicing makes no progress."""
    coded, codes = recode_graph(G)
    objects = codes.all_codes()
    ambient = membership_structure(objects)
    index = {c: i for i, c in enumerate(ambient.codes)}
    cover_ids = frozenset(index[c] for c in objects)
    ch = chain(ambient, get_pack("pairing,members"), frozenset(), cover_ids)
    sliced = slices_from_chain(coded, ambient, ch)
    if not (sliced.all_coherent and slice_partition_check(sliced)):
        return None
    pieces = [s for s in sliced.slices if s.edges]
    if len(pieces) <= 1:
        return None
    back = {c: v for v, c in codes.vertex_code.items()}
    return [
        make_graph(
            {back[v] for v in piece.vertices if v in back},
            {(back[u], back[v]) for u, v in piece.edges},
        )
        for piece in pieces
    ]


def _repair(G: Graph, members: list[frozenset[Edge]], kappa: int) -> list[frozenset[Edge]]:
    """Merge members until no small host bond is split across members."""
    bonds, _ = _bonds_upto(G, kappa)
    current = [set(m) for m in members if m]
    changed = True
    while changed:
        changed = False
        for F in bonds:
            owners = [i for i, m in enumerate(current) if m & F]
            if len(owners) > 1:
                merged = set().union(*(current[i] for i in owners))
                current = [m for i, m in enumerate(current) if i not in owners]
                current.append(merged)
                changed = True
                break
    return [frozenset(m) for m in current]


class _Spent(Exception):
    """The search budget is spent."""


def search_bond_faithful(
    G: Graph, kappa: int, budget: int = 50_000
) -> BondFaithfulSearch:
    """Heuristic pipeline, then an exact search.

    The heuristic (component split, chain slicing, recursion, then a
    merge repair pass) gives one candidate.  When it fails the check,
    the search lists the admissible blocks, the edge sets that can be
    members (:meth:`_Clauses.admissible_blocks`), and decides by exact
    cover (Knuth, "Dancing Links", 2000): a depth-first search that
    covers the uncovered edge with the fewest fitting blocks first.  No
    cover is ``proven-absent``.  Otherwise the first passing
    decomposition in the order of the edge-partition walk
    (``oracles.first_bond_faithful_partition``) is returned: edges are
    assigned from last to first, to an earlier block or a new one, and
    a partial block that no admissible block extends is pruned.  Every
    returned decomposition has passed the check.

    ``budget`` counts search work: each candidate block examined and
    each node of the two depth-first searches; past it the search gives
    up as ``budget-exhausted``.  A candidate that passes only against
    sampled host bonds, because a component exceeds the enumeration
    cap, comes back as ``sampled``, not ``found``.  Which blocks are
    admissible does not rest on the host's sample (a block's bonds are
    tested with :func:`is_bond` then), and a block's own sampled bonds
    only admit more blocks, so no cover still proves absence."""
    clauses = _Clauses(G, kappa)

    def verdict(parts: list[Graph]) -> BondFaithfulSearch | None:
        report = clauses.check(parts)
        if not report.verdict:
            return None
        status = "sampled" if report.sampled else "found"
        return BondFaithfulSearch(status, Decomposition(tuple(parts)), report)

    candidate = _search_candidate(G, kappa)
    outcome = verdict([_subgraph_of(m) for m in candidate if m])
    if outcome:
        return outcome
    left = budget

    def spend() -> None:
        nonlocal left
        left -= 1
        if left < 0:
            raise _Spent

    edges = sorted(G.edges)
    try:
        by_bit = _by_bit(clauses.admissible_blocks(edges, spend))
        if not _cover_exists(by_bit, (1 << len(edges)) - 1, spend):
            return BondFaithfulSearch("proven-absent")
        partition = _first_partition(by_bit, len(edges), spend)
    except _Spent:
        return BondFaithfulSearch("budget-exhausted")
    outcome = verdict(
        [_subgraph_of(e for k, e in enumerate(edges) if b >> k & 1) for b in partition]
    )
    if outcome is None:
        raise AssertionError("a partition into admissible blocks failed the check")
    return outcome


def _by_bit(blocks: list[int]) -> dict[int, list[int]]:
    """The masks ``blocks`` that hold each one-bit mask, in their order."""
    by_bit: dict[int, list[int]] = {}
    for block in blocks:
        rest = block
        while rest:
            low = rest & -rest
            by_bit.setdefault(low, []).append(block)
            rest ^= low
    return by_bit


def _cover_exists(
    by_bit: dict[int, list[int]], full: int, spend: Callable[[], None]
) -> bool:
    """Do some of the blocks indexed in ``by_bit`` partition ``full``?
    Depth-first, branching on the uncovered bit that the fewest blocks
    fit; a set of uncovered bits once refuted is not searched again."""
    refuted: set[int] = set()
    stack: list[tuple[int, Iterator[int]]] = []
    uncovered = full
    while True:
        spend()
        if not uncovered:
            return True
        if uncovered not in refuted:
            fewest = None
            rest = uncovered
            while rest:
                low = rest & -rest
                rest ^= low
                fitting = [b for b in by_bit.get(low, ()) if not b & ~uncovered]
                if fewest is None or len(fitting) < len(fewest):
                    fewest = fitting
                    if not fitting:
                        break
            stack.append((uncovered, iter(fewest)))
        while stack:  # the next untried block of the deepest open node
            node, options = stack[-1]
            b = next(options, None)
            if b is not None:
                uncovered = node ^ b
                break
            refuted.add(node)
            stack.pop()
        else:
            return False


def _first_partition(
    by_bit: dict[int, list[int]], m: int, spend: Callable[[], None]
) -> list[int]:
    """The first partition of bits 0..m-1 into the blocks indexed in
    ``by_bit``, in the order of the edge-partition walk: bit m-1 first,
    each bit joining one of the blocks so far, in their order, or else
    opening a new last block.  After bit k is placed every partial block
    P must still be the part above bit k of some block b (b & high == P),
    else the branch is cut; a part that only blocks holding bit k extend
    must take bit k."""

    def fit(part: int, high: int) -> bool:
        return any(b & high == part for b in by_bit.get(part & -part, ()))

    stack: list[tuple[int, list[int]]] = [(m - 1, [])]
    while stack:
        spend()
        k, parts = stack.pop()
        if k < 0:
            return parts
        bit, high = 1 << k, ((1 << m) - 1) ^ ((1 << k) - 1)
        stale = [i for i, p in enumerate(parts) if not fit(p, high)]
        children = []
        if len(stale) <= 1:
            for i in stale or range(len(parts) + 1):
                trial = parts.copy()
                if i < len(parts):
                    trial[i] |= bit
                else:
                    trial.append(bit)
                if fit(trial[i], high):
                    children.append((k - 1, trial))
        stack.extend(reversed(children))
    raise AssertionError("a cover exists but the partition walk found none")


def _search_candidate(G: Graph, kappa: int) -> list[frozenset[Edge]]:
    if not G.edges:
        return []
    if len(G.edges) <= kappa:
        return [frozenset(G.edges)]
    comps = components(G)
    if len(comps) > 1:
        out: list[frozenset[Edge]] = []
        for comp in comps:
            piece = restrict(G, comp)
            if piece.edges:
                out.extend(_search_candidate(piece, kappa))
        return _repair(G, out, kappa)
    pieces = _slice_candidate(G)
    if pieces is None:
        # fall back to greedy buckets and let the repair pass regroup
        ordered = sorted(G.edges)
        buckets = [
            frozenset(ordered[i : i + kappa]) for i in range(0, len(ordered), kappa)
        ]
        return _repair(G, buckets, kappa)
    # two or more nonempty pieces partition the edges: each is smaller
    out = [member for piece in pieces for member in _search_candidate(piece, kappa)]
    return _repair(G, out, kappa)
