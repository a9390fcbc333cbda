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
import os
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import InputError
from .graph import (
    Decomposition,
    Edge,
    Graph,
    biconnected_blocks,
    bridges,
    components,
    cut_of,
    enumerate_bonds,
    is_bond,
    is_decomposition,
    odd_cut_witness,
    odd_vertices,
    restrict,
)
from .hull import Chain, chain
from .formula import FormulaPack
from .structure import DEFAULT_BUDGET, FinStructure
from .universe import build_hierarchy, hf_pair, recode_graph


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
    slice the graph along them.  The codes are distinct, so the code
    sets increase strictly, as the stages do."""
    if ambient.codes is None:
        raise ValueError("ambient structure carries no set codes")
    return chain_slices(
        G, [frozenset(ambient.codes[i] for i in stage) for stage in ch.stages]
    )


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
    workers = min(workers, len(corpus), os.cpu_count() or 1)
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


class _Spent(Exception):
    """The search budget is spent."""


def search_bond_faithful(
    G: Graph, kappa: int, budget: int = 50_000
) -> BondFaithfulSearch:
    """G's blocks when they pass the check, else an exact search.

    The blocks (:func:`biconnected_blocks`) are bond-faithful whenever
    each has at most kappa edges.  Containment: both sides of a bond are
    connected, so any two of its edges lie on a common cycle, hence in
    one block.  Preservation: by B's maximality, each component of G
    minus a block B's edges meets B in at most one vertex; put on that
    vertex's side, it extends a bond of B to a bond of G with the same
    edges.

    Blocks over kappa edges prove nothing, though in every search
    measured no decomposition existed then.  So the search lists the
    admissible blocks, the edge sets that can be members
    (:meth:`_Clauses.admissible_blocks`), and decides by exact cover
    (Knuth, "Dancing Links", 2000): a depth-first search that covers
    the uncovered edge with the fewest fitting blocks first.  No cover
    is ``proven-absent``; any cover passes the check, so the cover found
    is returned, its parts listed by smallest edge.

    ``budget`` counts the exact search's work: each candidate block
    examined and each node of the cover search; past it the
    search gives up as ``budget-exhausted``.  A decomposition that
    passes only against sampled host bonds, because a component exceeds
    the enumeration cap, comes back as ``sampled``, not ``found``.
    Which blocks are admissible does not rest on the host's sample (a
    block's bonds are tested with :func:`is_bond` then), and a block's
    own sampled bonds only admit more blocks, so no cover still proves
    absence."""
    clauses = _Clauses(G, kappa)

    def verdict(parts: list[frozenset[Edge]]) -> BondFaithfulSearch | None:
        members = [_subgraph_of(part) for part in sorted(parts, key=min)]
        report = clauses.check(members)
        if not report.verdict:
            return None
        status = "sampled" if report.sampled else "found"
        return BondFaithfulSearch(status, Decomposition(tuple(members)), report)

    outcome = verdict(biconnected_blocks(G))
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
        cover = _cover(by_bit, (1 << len(edges)) - 1, spend)
    except _Spent:
        return BondFaithfulSearch("budget-exhausted")
    if cover is None:
        return BondFaithfulSearch("proven-absent")
    outcome = verdict(
        [frozenset(e for k, e in enumerate(edges) if b >> k & 1) for b in cover]
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


def _cover(
    by_bit: dict[int, list[int]], full: int, spend: Callable[[], None]
) -> list[int] | None:
    """Blocks indexed in ``by_bit`` that partition ``full``, or None when
    there are none.  Depth-first, branching on the uncovered bit that the
    fewest blocks fit; a set of uncovered bits once refuted is not
    searched again.  The stack holds each open node's uncovered bits, so
    the block taken at a node is its bits less the next node's."""
    refuted: set[int] = set()
    stack: list[tuple[int, Iterator[int]]] = []
    uncovered = full
    while True:
        spend()
        if not uncovered:
            nodes = [node for node, _ in stack]
            return [a ^ b for a, b in zip(nodes, nodes[1:] + [0])]
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
            return None

