"""Seeded random generators for graphs, structures and formulas.

Everything is driven by ``random.Random`` so that identical seeds give
identical corpora on every run and platform.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from .formula import (
    Const,
    Disjunction,
    Equality,
    Exists,
    Formula,
    Membership,
    Negation,
    Var,
)
from .graph import Graph, make_graph
from .structure import FinStructure

# sampling tries per random regular or union-of-cycles graph
_ATTEMPTS = 200


def gnp_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p
    ]
    return make_graph(range(n), edges)


def regular_graph(n: int, d: int, rng: random.Random) -> Graph:
    """Random d-regular graph by pairing-model retries."""
    if n * d % 2 != 0 or d >= n:
        raise ValueError(f"no {d}-regular graph on {n} vertices")
    for _ in range(_ATTEMPTS):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if ok:
            return make_graph(range(n), edges)
    raise RuntimeError("failed to sample a regular graph within the attempt limit")


def union_of_cycles_graph(n: int, cycles: int, rng: random.Random) -> Graph:
    """Edge-disjoint union of random cycles; every degree stays even."""
    edges: set[tuple[int, int]] = set()
    placed = 0
    for _ in range(_ATTEMPTS):
        if placed == cycles:
            break
        length = rng.randint(3, max(3, n))
        vertices = rng.sample(range(n), min(length, n))
        if len(vertices) < 3:
            continue
        cycle_edges = {
            (min(a, b), max(a, b))
            for a, b in zip(vertices, vertices[1:] + vertices[:1])
        }
        if cycle_edges & edges:
            continue
        edges |= cycle_edges
        placed += 1
    return make_graph(range(n), edges)


def random_graph(model: str, n: int, rng: random.Random, **params) -> Graph:
    if model == "gnp":
        return gnp_graph(n, float(params.get("p", 0.4)), rng)
    if model == "regular":
        return regular_graph(n, int(params.get("d", 2)), rng)
    if model == "union-of-cycles":
        return union_of_cycles_graph(n, int(params.get("cycles", 2)), rng)
    raise ValueError(f"unknown graph model {model!r}")


def generate_corpus(spec: dict) -> list[Graph]:
    """Instantiate a corpus description of the form
    ``{"generator": {"model": ..., "n": ..., "count": ..., ...}, "seed": ...}``."""
    gen = dict(spec["generator"])
    model = gen.pop("model")
    n = int(gen.pop("n"))
    count = int(gen.pop("count", 1))
    rng = random.Random(int(spec.get("seed", 0)))
    return [random_graph(model, n, rng, **gen) for _ in range(count)]


# ---------------------------------------------------------------------------
# random structures


def random_structure(n: int, rng: random.Random, density: float = 0.3) -> FinStructure:
    pairs = frozenset(
        (a, b) for a in range(n) for b in range(n) if rng.random() < density
    )
    return FinStructure(n, pairs)


def extensional_wellfounded_structures(n: int) -> Iterator[FinStructure]:
    """Every extensional well-founded loop-free relation on n labelled
    points (enumerated by relation bitmask, ascending)."""
    slots = [(a, b) for a in range(n) for b in range(n) if a != b]
    for mask in range(1 << len(slots)):
        pairs = frozenset(slots[i] for i in range(len(slots)) if mask >> i & 1)
        if _is_extensional(n, pairs) and _is_wellfounded(n, pairs):
            yield FinStructure(n, pairs)


def _is_extensional(n: int, pairs: frozenset) -> bool:
    extents = [frozenset(a for a in range(n) if (a, b) in pairs) for b in range(n)]
    return len(set(extents)) == n


def _is_wellfounded(n: int, pairs: frozenset) -> bool:
    # no cycle under the relation, found by repeated sink removal
    remaining = set(range(n))
    while remaining:
        sinks = [
            b for b in remaining
            if not any((a, b) in pairs for a in remaining)
        ]
        if not sinks:
            return False
        remaining -= set(sinks)
    return True


# ---------------------------------------------------------------------------
# random formulas


def random_formula(
    rng: random.Random,
    depth: int,
    variables: tuple[str, ...] = ("x", "y", "z"),
    max_const: int | None = None,
    max_nodes: int = 24,
) -> Formula:
    """A random core formula with quantifier depth at most *depth* and a
    hard node budget (the naive grammar walk has a heavy size tail)."""

    nodes = [max_nodes]

    def term(scope: tuple[str, ...]):
        if max_const is not None and rng.random() < 0.15:
            return Const(rng.randrange(max_const))
        return Var(rng.choice(scope))

    def build(budget: int, scope: tuple[str, ...]) -> Formula:
        nodes[0] -= 1
        choices = ["atom", "neg", "or"]
        if budget > 0:
            choices += ["exists", "exists"]
        kind = rng.choice(choices) if nodes[0] > 0 else "atom"
        if kind == "atom":
            make = Membership if rng.random() < 0.7 else Equality
            return make(term(scope), term(scope))
        if kind == "neg":
            return Negation(build(budget, scope))
        if kind == "or":
            return Disjunction(build(budget, scope), build(budget, scope))
        fresh = next(v for v in variables + ("u", "w", "t") if v not in scope) \
            if len(scope) >= len(variables) else variables[len(scope)]
        return Exists(fresh, build(budget - 1, scope + (fresh,)))

    scope0 = variables[: rng.randint(1, min(2, len(variables)))]
    return build(depth, tuple(scope0))
