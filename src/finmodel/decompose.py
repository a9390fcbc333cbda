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

import os
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import InputError
from .graph import (
    _COMPONENT_CAP,
    Decomposition,
    Edge,
    Graph,
    biconnected_blocks,
    bridges,
    components,
    enumerate_bonds,
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
    # no cut has an odd number of edges; by degree parity the star of the
    # smallest odd-degree vertex is one whenever any cut is
    witness = odd_cut_witness(G)
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


def _prop_no_small_component(G: Graph) -> tuple[bool, object]:
    # no component of two vertices, one edge on its own
    for comp in components(G):
        if len(comp) == 2:
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
    workers = min(workers, len(corpus), os.cpu_count() or 1)
    args = [(G, pack, property_name, i, allow_rank5, budget) for i, G in enumerate(corpus)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            instances = tuple(pool.map(_probe_star, args))
    else:
        instances = tuple(map(_probe_star, args))
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
    sampled: bool = False  # always false, as checks are exact; kept for report readers

    @property
    def verdict(self) -> bool:
        return self.size_ok and self.containment_ok and self.bond_preservation_ok


def check_bond_faithful(
    G: Graph, parts: Decomposition | Sequence[Graph], kappa: int
) -> BondFaithfulReport:
    """Check the three clauses of bond-faithfulness with witnesses.

    Size: every member has at most kappa edges.  Containment: every
    host bond with at most kappa edges lies inside one member's edge
    set.  Preservation: every member bond with fewer than kappa edges is
    a bond of the host.  Bonds are listed in the order of
    :func:`enumerate_bonds`, the foreign ones member by member, and are
    enumerated only in the blocks of the host that the members split.

    Let H be the host or a member, B a block of the host and X the graph
    of H's edges in B.  By B's maximality each component of H minus B's
    edges meets X in at most one vertex; put on that vertex's side, it
    extends a cut of X to a cut of H with the same edges, and a cut of H
    meets X in a cut of X.  So the bonds of H inside B are those of X.
    Each bond of H lies in one block of the host: two of its edges lie
    on a cycle of H (both sides are connected), so in one block of H,
    inside one of the host.  X is B for the host, and for a member that
    holds B, whose bonds there so meet both clauses; else it is the
    member's piece of B.  So the enumeration cap bounds a split block,
    not a component: one of more than 20 vertices raises
    :class:`InputError`.
    """
    if kappa < 1:
        raise InputError("kappa must be at least 1")
    members = tuple(parts.parts) if isinstance(parts, Decomposition) else tuple(parts)
    if not is_decomposition(G, members):
        raise InputError("parts do not form a decomposition of the host")
    owner = {e: i for i, part in enumerate(members) for e in part.edges}
    # a block that can be split has two edges, so no bond of one edge
    blocks = biconnected_blocks(G) if kappa > 1 else []
    split: list[frozenset[Edge]] = []
    foreign: list[tuple[int, frozenset[Edge]]] = []
    for B in blocks:
        holders = {owner[e] for e in B}
        if len(holders) == 1:
            continue
        vertices = frozenset(v for e in B for v in e)
        if len(vertices) > _COMPONENT_CAP:
            raise InputError(f"the split block at edge {list(min(B))} has {len(vertices)} "
                             f"vertices, past the enumeration cap of {_COMPONENT_CAP}")
        host_bonds = enumerate_bonds(G if len(blocks) == 1 else Graph(vertices, B), kappa)
        known = frozenset(host_bonds)
        split += (F for F in host_bonds if len({owner[e] for e in F}) > 1)
        for i in sorted(holders):
            piece = members[i].edges & B
            # a member inside B is its own piece, and keeps its mask view
            X = members[i] if piece == members[i].edges else _subgraph_of(piece)
            foreign += ((i, F) for F in enumerate_bonds(X, kappa - 1) if F not in known)
    if len(blocks) > 1:  # into the order of enumerate_bonds, by size then edges
        split.sort(key=lambda F: (len(F), sorted(F)))
        foreign.sort(key=lambda pair: (pair[0], len(pair[1]), sorted(pair[1])))
    oversized = tuple(i for i, part in enumerate(members) if len(part.edges) > kappa)
    return BondFaithfulReport(
        kappa=kappa,
        size_ok=not oversized,
        containment_ok=not split,
        bond_preservation_ok=not foreign,
        oversized_members=oversized,
        split_bonds=tuple(split),
        foreign_bonds=tuple(foreign),
    )


class BondFaithfulSearch(NamedTuple):
    status: str  # found | proven-absent
    decomposition: Decomposition | None = None
    report: BondFaithfulReport | None = None


def _subgraph_of(edges: Iterable[Edge]) -> Graph:
    es = frozenset(edges)
    vs = frozenset(v for e in es for v in e)
    return Graph(vs, es)


def search_bond_faithful(G: Graph, kappa: int) -> BondFaithfulSearch:
    """A decomposition of G into parts of at most kappa edges that is
    bond-faithful, or ``proven-absent``, decided by the finite form of
    Laviolette's theorem (JCTB 94, 2005): for kappa >= 2, such a
    partition is bond-faithful exactly when every block of G
    (:func:`biconnected_blocks`) lies inside one part.  So one exists
    exactly when every block has at most kappa edges, and the blocks are
    one.  At kappa = 1 the single edges always are one: each host bond
    of one edge is one of them, and they have no bond of fewer edges.

    *If.*  Two edges of a bond lie on a common cycle (both sides are
    connected), so every bond lies inside one block, and hence one part:
    containment.  Let P be a part and F a bond of P.  So F lies in one
    block B of G, inside P, and is a nonempty cut of B; it holds a bond F'
    of B.  By B's maximality each component of G minus B's edges meets B
    in at most one vertex; put on that vertex's side, it extends F' to a
    bond of G.  F' is then a cut of P inside the bond F, so F' = F:
    preservation.

    *Only if* (kappa >= 2).  Say a bond-faithful partition splits a
    block B, which so is 2-connected.  Call a component K of some part
    P's edges in B a *piece*; there are at least two.
    (a) Each block of P lies in one block of G, so K is a connected union
    of P's blocks and every other component of P minus K's edges meets K
    in at most one vertex.  So a bond of K is one of P, and with fewer
    than kappa edges, by preservation, of G, and so of B: it is a cut of
    B, whose bonds are bonds of G, as above.
    (b) A bridge of K would be a one-edge bond of B, so K is bridgeless,
    with a cycle.  A vertex u of K in another piece is a cut vertex of K:
    else the star of u in K, missing an edge of that cycle, is a bond of
    K with fewer than kappa edges, so of B, all of whose edges are at u,
    while u keeps an edge of the other piece on its side; so u would cut
    B.  (c) If K has no cut vertex, it meets no other piece, so B, which
    has edges outside K, is not connected.  Else a leaf block of K with its cut vertex c has no other
    vertex in another piece or block of K, so c cuts B.

    The parts, listed by smallest edge, go through
    :func:`check_bond_faithful` and are ``found`` with its report; it
    enumerates no bond for them, as no block is split or kappa is 1."""
    if kappa < 1:
        raise InputError("kappa must be at least 1")
    parts = biconnected_blocks(G) if kappa > 1 else [frozenset([e]) for e in G.edges]
    if any(len(part) > kappa for part in parts):
        return BondFaithfulSearch("proven-absent")
    members = [_subgraph_of(part) for part in sorted(parts, key=min)]
    report = check_bond_faithful(G, members, kappa)
    if not report.verdict:
        raise AssertionError("the blocks of the host failed the check")
    return BondFaithfulSearch("found", Decomposition(tuple(members)), report)
