"""Reference computations the benchmark checks finmodel's answers against.

Nothing here imports finmodel.  Each function recomputes an answer from
the definitions by its own route:

* formulas are the benchmark's own trees (nested tuples) with a
  textbook satisfaction evaluator;
* bonds come from bitmask bipartitions whose two sides are both
  connected;
* bond-faithfulness is checked clause by clause, and searched for by
  enumerating every edge partition;
* hull traces are replayed step by step against the smallest witness,
  and carriers are checked to be witness-closed;
* slices are worked out from the stage codes.

Formula trees: ``("in", a, b)``, ``("eq", a, b)``, ``("not", f)``,
``("or", f, g)``, ``("and", f, g)``, ``("imp", f, g)``, ``("ex", v, f)``
and ``("all", v, f)``, where ``a``, ``b`` and ``v`` are variable names.
"""

from __future__ import annotations

import itertools

# ---------------------------------------------------------------------------
# formula trees


def render(f) -> str:
    """finmodel's concrete syntax for a tree."""
    tag = f[0]
    if tag == "in":
        return f"({f[1]} in {f[2]})"
    if tag == "eq":
        return f"({f[1]} = {f[2]})"
    if tag == "not":
        return "~" + render(f[1])
    if tag in ("or", "and", "imp"):
        op = {"or": "|", "and": "&", "imp": "->"}[tag]
        return f"({render(f[1])} {op} {render(f[2])})"
    quant = "E" if tag == "ex" else "A"
    return f"{quant}{f[1]} {render(f[2])}"


def free_vars(f) -> list[str]:
    """Free variables in left-to-right order of first occurrence."""
    out: list[str] = []

    def walk(g, bound):
        tag = g[0]
        if tag in ("in", "eq"):
            for name in g[1:]:
                if name not in bound and name not in out:
                    out.append(name)
        elif tag == "not":
            walk(g[1], bound)
        elif tag in ("or", "and", "imp"):
            walk(g[1], bound)
            walk(g[2], bound)
        else:
            walk(g[2], bound | {g[1]})

    walk(f, frozenset())
    return out


def holds(f, rel, domain, env) -> bool:
    """Tarski's truth definition.  *rel* is a set of pairs (a, b) read
    as "a in b"; quantifiers range over *domain*."""
    tag = f[0]
    if tag == "in":
        return (env[f[1]], env[f[2]]) in rel
    if tag == "eq":
        return env[f[1]] == env[f[2]]
    if tag == "not":
        return not holds(f[1], rel, domain, env)
    if tag == "or":
        return holds(f[1], rel, domain, env) or holds(f[2], rel, domain, env)
    if tag == "and":
        return holds(f[1], rel, domain, env) and holds(f[2], rel, domain, env)
    if tag == "imp":
        return (not holds(f[1], rel, domain, env)) or holds(f[2], rel, domain, env)
    var, body = f[1], f[2]
    values = (holds(body, rel, domain, {**env, var: a}) for a in domain)
    return any(values) if tag == "ex" else all(values)


def absoluteness(f, rel, size, subset):
    """``(True, None)`` when f agrees between the substructure on *subset*
    and the whole structure under every valuation of its free variables
    into the subset; otherwise ``(False, valuation)`` for the first
    disagreement in lexicographic order over ascending elements, the
    variables taken in order of first occurrence."""
    members = sorted(set(subset))
    names = free_vars(f)
    whole = range(size)
    for combo in itertools.product(members, repeat=len(names)):
        env = dict(zip(names, combo))
        if holds(f, rel, whole, env) != holds(f, rel, members, env):
            return False, env
    return True, None


def from_finmodel(node):
    """Read a finmodel formula AST into a tree, by node class name.

    Only the shape is read; the benchmark evaluates the result itself.
    Constants are not expected in the packs the benchmark uses.
    """
    kind = type(node).__name__
    if kind in ("Membership", "Equality"):
        ends = []
        for term in (node.left, node.right):
            if type(term).__name__ != "Var":
                raise ValueError(f"unexpected term {term!r}")
            ends.append(term.name)
        return ("in" if kind == "Membership" else "eq", ends[0], ends[1])
    if kind == "Negation":
        return ("not", from_finmodel(node.body))
    if kind == "Disjunction":
        return ("or", from_finmodel(node.left), from_finmodel(node.right))
    if kind == "Exists":
        return ("ex", node.var, from_finmodel(node.body))
    raise ValueError(f"unexpected formula node {kind}")


# ---------------------------------------------------------------------------
# hereditarily finite codes


def hf_members(code: int) -> list[int]:
    return [i for i in range(code.bit_length()) if code >> i & 1]


def membership_closure(codes) -> list[int]:
    """The transitive closure of a set of codes under membership, sorted."""
    out: set[int] = set()
    todo = list(codes)
    while todo:
        c = todo.pop()
        if c not in out:
            out.add(c)
            todo.extend(hf_members(c))
    return sorted(out)


def membership_relation(codes) -> set[tuple[int, int]]:
    """Pairs (i, j) of positions in *codes* with codes[i] in codes[j]."""
    return {
        (i, j)
        for j, cj in enumerate(codes)
        for i, ci in enumerate(codes)
        if cj >> ci & 1
    }


def vertex_codes(count: int) -> list[int]:
    """The first *count* codes with other than two members; these can
    never equal the code of an edge {u, v}."""
    return [c for c in range(4 * count + 8) if bin(c).count("1") != 2][:count]


# ---------------------------------------------------------------------------
# bonds


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _connected(mask: int, adj: list[int]) -> bool:
    seen = frontier = mask & -mask
    while frontier:
        reach = 0
        for i in _bits(frontier):
            reach |= adj[i]
        frontier = reach & mask & ~seen
        seen |= frontier
    return seen == mask


def iter_bonds(vertices, edges, max_size: int | None = None):
    """Every bond, as the crossing edges of a bipartition of one component
    whose two sides both induce connected subgraphs."""
    order = sorted(vertices)
    index = {v: i for i, v in enumerate(order)}
    adj = [0] * len(order)
    for u, v in edges:
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    remaining = (1 << len(order)) - 1
    while remaining:
        comp = seen = remaining & -remaining
        while seen:
            reach = 0
            for i in _bits(seen):
                reach |= adj[i]
            seen = reach & ~comp
            comp |= seen
        remaining &= ~comp
        anchor = comp & -comp
        rest = list(_bits(comp & ~anchor))
        for pick in range(1 << len(rest)):
            side = anchor
            for k, i in enumerate(rest):
                if pick >> k & 1:
                    side |= 1 << i
            other = comp & ~side
            if not other or not _connected(side, adj) or not _connected(other, adj):
                continue
            cut = frozenset(
                (u, v) for u, v in edges
                if (side >> index[u] & 1) != (side >> index[v] & 1)
            )
            if max_size is None or len(cut) <= max_size:
                yield cut


def bond_order(f):
    return len(f), sorted(f)


def bonds(vertices, edges, max_size: int | None = None) -> list[frozenset]:
    """Every bond, sorted by size and then by the sorted edge list."""
    return sorted(iter_bonds(vertices, edges, max_size), key=bond_order)


def same_bonds(got, vertices, edges) -> bool:
    """Is *got* exactly the bonds of the graph, in :func:`bonds` order?
    Streams the enumeration, so only *got* is held in memory."""
    if any(bond_order(a) >= bond_order(b) for a, b in zip(got, got[1:])):
        return False
    members = set(got)
    count = 0
    for cut in iter_bonds(vertices, edges):
        if cut not in members:
            return False
        count += 1
    return count == len(got)


def _endpoints(edge_set) -> set[int]:
    return {v for e in edge_set for v in e}


# ---------------------------------------------------------------------------
# bond-faithful decompositions


def bond_faithful(vertices, edges, parts, kappa: int, host_small=None) -> dict:
    """The three clauses for a decomposition into edge sets *parts*.

    size: every part has at most kappa edges; containment: every host
    bond with at most kappa edges lies inside one part; preservation:
    every bond of a part with fewer than kappa edges is a host bond.
    *host_small*, the host bonds with at most kappa edges, may be given
    when many decompositions of one host are checked.
    """
    if host_small is None:
        host_small = bonds(vertices, edges, kappa)
    oversized = [i for i, p in enumerate(parts) if len(p) > kappa]
    split = [F for F in host_small if not any(F <= p for p in parts)]
    host_set = set(host_small)
    foreign = []
    for i, p in enumerate(parts):
        for F in bonds(_endpoints(p), p, kappa - 1):
            if F not in host_set:
                foreign.append((i, F))
    return {
        "size_ok": not oversized,
        "containment_ok": not split,
        "bond_preservation_ok": not foreign,
        "verdict": not (oversized or split or foreign),
        "oversized": oversized,
        "split": split,
        "foreign": foreign,
    }


def is_edge_partition(edges, parts) -> bool:
    seen: set = set()
    for p in parts:
        if not p or seen & p:
            return False
        seen |= p
    return seen == set(edges)


def _partitions(items, limit):
    """Set partitions of *items* into blocks of at most *limit*."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _partitions(rest, limit):
        for i, block in enumerate(sub):
            if len(block) < limit:
                yield sub[:i] + [block | {first}] + sub[i + 1:]
        yield sub + [frozenset({first})]


def find_bond_faithful(vertices, edges, kappa: int):
    """A bond-faithful decomposition found by trying every edge partition
    with parts of at most kappa edges, or None when there is none."""
    host_small = bonds(vertices, edges, kappa)
    for parts in _partitions(sorted(edges), kappa):
        if bond_faithful(vertices, edges, parts, kappa, host_small)["verdict"]:
            return parts
    return None


# ---------------------------------------------------------------------------
# slicing


def slices(edges, stages) -> list[frozenset]:
    """Slice i holds the edges whose object and both endpoints lie in
    stage i+1 and whose object does not lie in stage i; an empty stage
    goes first when the first given stage is not empty.  *edges* are
    pairs of vertex codes and stages are sets of codes."""
    stages = [set(s) for s in stages]
    if stages[0]:
        stages.insert(0, set())
    out = []
    for lower, upper in zip(stages, stages[1:]):
        out.append(frozenset(
            (u, v) for u, v in edges
            if (1 << u | 1 << v) not in lower
            and u in upper and v in upper and (1 << u | 1 << v) in upper
        ))
    return out


def partitions_edges(edges, parts) -> bool:
    """Does every edge lie in exactly one part?"""
    return sorted(e for p in parts for e in p) == sorted(edges)


# ---------------------------------------------------------------------------
# witness closure


class WitnessTable:
    """Smallest witnesses of existential formulas over one structure.

    ``smallest(f, values)`` is the least element a with the body of
    ``f = ("ex", var, body)`` true when its free variables take *values*
    (in ``free_vars(f)`` order) and var takes a; None when there is none.
    """

    def __init__(self, rel, size: int):
        self.rel = rel
        self.domain = range(size)
        self.memo: dict = {}

    def smallest(self, f, values):
        key = (f, values)
        if key not in self.memo:
            env = dict(zip(free_vars(f), values))
            var, body = f[1], f[2]
            self.memo[key] = next(
                (a for a in self.domain if holds(body, self.rel, self.domain, {**env, var: a})),
                None,
            )
        return self.memo[key]


def replay(table: WitnessTable, existentials, seed, trace, carrier) -> str | None:
    """Replay a trace of (formula, valuation, witness) steps from the
    seed.  Returns None when every step adds the smallest witness for
    parameters already present and the replay ends at the carrier,
    otherwise a description of the first fault."""
    current = set(seed)
    for n, (f, valuation, witness) in enumerate(trace):
        if f not in existentials:
            return f"step {n}: formula is not an existential of the pack"
        names = free_vars(f)
        if [name for name, _ in valuation] != names:
            return f"step {n}: valuation does not bind {names}"
        values = tuple(v for _, v in valuation)
        if not set(values) <= current:
            return f"step {n}: parameters {values} not yet present"
        if witness in current:
            return f"step {n}: witness {witness} already present"
        if table.smallest(f, values) != witness:
            return f"step {n}: witness {witness} is not the smallest"
        current.add(witness)
    if current != set(carrier):
        return "replay does not end at the carrier"
    return None


def closure_fault(table: WitnessTable, existentials, carrier) -> str | None:
    """None when, for every existential and every valuation of its free
    variables in the carrier, the smallest witness lies in the carrier."""
    members = sorted(carrier)
    for f in existentials:
        for values in itertools.product(members, repeat=len(free_vars(f))):
            w = table.smallest(f, values)
            if w is not None and w not in carrier:
                return f"{render(f)} at {values}: witness {w} missing"
    return None
