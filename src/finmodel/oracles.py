"""Definition-transcribing brute-force oracles.

Each function here recomputes something the fast path also computes, by
a deliberately different route lifted straight from the definitions:
cuts come from explicit bipartitions, minimality from subset scans,
connectivity from separator enumeration, truth from Tarski's
definition.  The CLI ``--validate`` mode and the test suite compare
fast paths against these.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .combinatorics import DeltaSystem, SetFamily, is_delta_system
from .errors import InputError
from .formula import BoundedExists, Const, Disjunction, Equality, Exists, Formula, Membership, Negation
from .graph import Edge, Graph, components, delete_edges, edge

BIPARTITION_GATE = 16
DOUBLE_COVER_GATE = 14
PARTITION_GATE = 12


def satisfies(N, phi: Formula, valuation, scope: Iterable[int] | None = None) -> bool:
    """Tarski's truth definition of phi in the structure N under
    *valuation* (names to elements), membership read from ``N.pairs``:
    an atom holds when its pair is in the relation or its terms are
    equal, ``~`` and ``|`` are read classically, ``Ex`` holds when some
    element of N satisfies its body, and a relativized quantifier when
    some element of *scope* does.  It shares nothing with the compiled
    evaluators but the formula nodes, charges nothing, and runs from an
    explicit stack, so formulas of any depth are read.

    The stack holds tasks: a formula to evaluate under an environment,
    whose truth value joins ``values``, or the rest of a connective or
    quantifier waiting on the value of its last operand."""
    universe = range(N.size)
    elements = None if scope is None else list(scope)
    values: list[bool] = []
    stack: list[tuple] = [("eval", phi, dict(valuation))]
    while stack:
        task = stack.pop()
        if task[0] == "eval":
            _, f, env = task
            kind = type(f)
            if kind is Membership or kind is Equality:
                a, b = (t.ident if type(t) is Const else env[t.name] for t in (f.left, f.right))
                values.append((a, b) in N.pairs if kind is Membership else a == b)
            elif kind is Negation:
                stack += [("not",), ("eval", f.body, env)]
            elif kind is Disjunction:
                stack += [("or", f.right, env), ("eval", f.left, env)]
            else:  # a quantifier
                if kind is BoundedExists and elements is None:
                    raise InputError("a relativized quantifier needs a scope")
                stack.append(("some", f, env, iter(universe if kind is Exists else elements)))
                values.append(False)
        elif task[0] == "not":
            values.append(not values.pop())
        elif task[0] == "or":
            if not values[-1]:
                values.pop()
                stack.append(("eval", task[1], task[2]))
        else:  # "some": the value on top is the last candidate's
            _, f, env, candidates = task
            if not values[-1]:
                e = next(candidates, None)
                if e is not None:
                    values.pop()
                    stack += [task, ("eval", f.body, {**env, f.var: e})]
    return values.pop()


def all_cuts(G: Graph) -> set[frozenset[Edge]]:
    """Every edge set of the form E intersected with [A, complement]."""
    vertices = sorted(G.vertices)
    if len(vertices) > BIPARTITION_GATE:
        raise InputError(f"{len(vertices)} vertices exceed the bipartition gate")
    cuts: set[frozenset[Edge]] = set()
    for k in range(len(vertices) + 1):
        for side in itertools.combinations(vertices, k):
            aset = set(side)
            cuts.add(
                frozenset(e for e in G.edges if (e[0] in aset) != (e[1] in aset))
            )
    return cuts


def bonds_by_definition(G: Graph) -> list[frozenset[Edge]]:
    """Nonempty cuts that are inclusion-minimal among the cuts.

    The cuts are taken smallest first, each as a mask over the edges, and
    one is kept when no bond kept before it lies inside it: a cut that is
    not minimal holds a strictly smaller nonempty cut, and a smallest
    nonempty cut inside that one is a bond, kept first."""
    bit = {e: 1 << k for k, e in enumerate(sorted(G.edges))}
    masks: list[int] = []
    bonds = []
    for cut in sorted((c for c in all_cuts(G) if c), key=len):
        mask = sum(bit[e] for e in cut)
        if not any(b & mask == b for b in masks):
            masks.append(mask)
            bonds.append(cut)
    return sorted(bonds, key=lambda f: (len(f), sorted(f)))


def is_bond_by_definition(G: Graph, F: Iterable[Edge]) -> bool:
    fset = frozenset(edge(u, v) for u, v in F)
    if not fset:
        return False
    cuts = all_cuts(G)
    if fset not in cuts:
        return False
    return not any(c and c < fset for c in cuts)


def separates(G: Graph, F: Iterable[Edge], x: int, y: int) -> bool:
    comps = components(delete_edges(G, frozenset(F)))
    return not any(x in c and y in c for c in comps)


def edge_connectivity_brute(G: Graph, x: int, y: int) -> int:
    """Smallest separating edge set, by ascending-size enumeration."""
    if separates(G, frozenset(), x, y):
        return 0
    edges = sorted(G.edges)
    for size in range(1, len(edges) + 1):
        for combo in itertools.combinations(edges, size):
            if separates(G, combo, x, y):
                return size
    raise AssertionError("removing all edges must separate distinct vertices")


def bridges_by_deletion(G: Graph) -> list[Edge]:
    return sorted(e for e in G.edges if separates(G, {e}, *e))


def bond_faithful_by_definition(
    G: Graph, parts: Sequence[Graph], kappa: int
) -> bool:
    """Literal transcription of the three bond-faithfulness clauses,
    everything enumerated through :func:`bonds_by_definition`."""
    if any(len(part.edges) > kappa for part in parts):
        return False
    host_bonds = bonds_by_definition(G)
    for F in host_bonds:
        if len(F) <= kappa and not any(F <= part.edges for part in parts):
            return False
    host_bond_set = set(host_bonds)
    for part in parts:
        for F in bonds_by_definition(part):
            if len(F) < kappa and F not in host_bond_set:
                return False
    return True


def _edge_partitions(edges: list[Edge], kappa: int):
    """The set partitions of the edge list into blocks of at most kappa
    edges (restricted growth strings): the partitions of all edges but
    the first, each followed by the first edge joining each of its
    blocks in turn, then by the first edge alone in a new last block."""
    if not edges:
        yield []
        return
    first, rest = edges[0], edges[1:]
    for sub in _edge_partitions(rest, kappa):
        for i in range(len(sub)):
            if len(sub[i]) < kappa:
                yield sub[:i] + [sub[i] + [first]] + sub[i + 1:]
        yield sub + [[first]]


def first_bond_faithful_partition(G: Graph, kappa: int) -> list[frozenset[Edge]] | None:
    """The first partition of G's sorted edges, in the order of
    :func:`_edge_partitions`, that is bond-faithful by the clauses of
    :func:`bond_faithful_by_definition`, or None when none is."""
    if len(G.edges) > PARTITION_GATE:
        raise InputError(f"{len(G.edges)} edges exceed the partition gate")
    host_bonds = bonds_by_definition(G)
    small = [F for F in host_bonds if len(F) <= kappa]
    host_bond_set = set(host_bonds)
    preserves: dict[frozenset[Edge], bool] = {}
    for partition in _edge_partitions(sorted(G.edges), kappa):
        blocks = [frozenset(b) for b in partition]
        if not all(any(F <= b for b in blocks) for F in small):
            continue
        for b in blocks:
            if b not in preserves:
                part = Graph(frozenset(v for e in b for v in e), b)
                preserves[b] = all(
                    len(F) >= kappa or F in host_bond_set for F in bonds_by_definition(part)
                )
        if all(preserves[b] for b in blocks):
            return blocks
    return None


def _forms_cycle(edges: frozenset[Edge]) -> bool:
    """Do the (canonical) edges form a cycle: nonempty, every vertex they
    touch of degree two in them, and connected?"""
    degree: dict[int, int] = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    return bool(edges) and all(d == 2 for d in degree.values()) and len(
        components(Graph(frozenset(degree), edges))
    ) == 1


def cycles_by_subsets(G: Graph) -> list[frozenset[Edge]]:
    """Edge subsets that form a cycle, found by scanning all subsets."""
    edges = sorted(G.edges)
    if len(edges) > DOUBLE_COVER_GATE:
        raise InputError(f"{len(edges)} edges exceed the double-cover gate")
    subsets = (
        frozenset(edges[i] for i in range(len(edges)) if mask >> i & 1)
        for mask in range(1, 1 << len(edges))
    )
    return [subset for subset in subsets if _forms_cycle(subset)]


def is_double_cover(G: Graph, family: Iterable[frozenset[Edge]]) -> bool:
    """Is every member a cycle of G, and every edge in exactly two members?"""
    members = [frozenset(c) for c in family]
    return all(c <= G.edges and _forms_cycle(c) for c in members) and all(
        sum(e in c for c in members) == 2 for e in G.edges
    )


def double_cover_by_multisets(G: Graph) -> tuple[frozenset[Edge], ...] | None:
    """A family of cycles covering every edge exactly twice, or None.

    Tries the multisets of cycles, each cycle used at most twice, by
    choosing a multiplicity of 2, 1 or 0 for each cycle in turn; a prefix
    is abandoned once an edge is covered three times, or once the last
    cycle through an edge has passed with that edge covered fewer than
    twice.
    """
    cycles = cycles_by_subsets(G)
    last = {e: i for i, c in enumerate(cycles) for e in c}
    if set(last) != set(G.edges):
        return None  # an edge on no cycle
    closing: list[list[Edge]] = [[] for _ in cycles]
    for e, i in last.items():
        closing[i].append(e)
    count = {e: 0 for e in G.edges}
    chosen: list[frozenset[Edge]] = []

    def extend(i: int) -> bool:
        if i == len(cycles):
            return True
        for times in (2, 1, 0):
            for e in cycles[i]:
                count[e] += times
            chosen.extend([cycles[i]] * times)
            fits = all(count[e] <= 2 for e in cycles[i]) and all(
                count[e] == 2 for e in closing[i]
            )
            if fits and extend(i + 1):
                return True
            del chosen[len(chosen) - times:]
            for e in cycles[i]:
                count[e] -= times
        return False

    if not G.edges or extend(0):
        return tuple(chosen)
    return None


def max_sunflower_by_kernels(family: SetFamily) -> DeltaSystem:
    """Second, kernel-indexed route to the maximum delta-subfamily.

    Candidate kernels are all pairwise intersections plus every member
    and the empty set; for each kernel the best compatible subfamily is
    found by exact search over the members containing it.  Ties resolve
    to the lexicographically least index set, matching the subset-scan
    route.
    """
    sets = family.sets
    n = len(sets)
    if n == 0:
        return DeltaSystem((), (), frozenset(), degenerate=True)
    kernels: set[frozenset[int]] = {frozenset()}
    kernels.update(sets)
    for a, b in itertools.combinations(sets, 2):
        kernels.add(a & b)
    best: tuple[int, tuple[int, ...]] | None = None

    def consider(indices: tuple[int, ...]) -> None:
        nonlocal best
        key = (-len(indices), indices)
        if best is None or key < (-best[0], best[1]):
            best = (len(indices), indices)

    for kernel in kernels:
        carriers = [i for i in range(n) if kernel <= sets[i]]
        # exact maximum pairwise-compatible subfamily for this kernel
        stack: list[tuple[tuple[int, ...], int]] = [((), 0)]
        while stack:
            chosen, start = stack.pop()
            consider(chosen)
            for pos in range(start, len(carriers)):
                i = carriers[pos]
                if all(sets[i] & sets[j] == kernel for j in chosen):
                    stack.append((chosen + (i,), pos + 1))
    assert best is not None
    size, indices = best
    members = tuple(sets[i] for i in indices)
    kernel = is_delta_system(members)
    assert kernel is not None
    return DeltaSystem(indices, members, kernel, degenerate=size < 2)
