"""File formats: structures and graphs as JSON or text, DOT export, and
canonical report dumping.  Formula packs have their JSON mirror in
:mod:`finmodel.formula`.

Reports are serialized with sorted keys and a trailing newline so that
identical runs produce identical bytes.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from .graph import Graph, make_graph
from .structure import FinStructure


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


# ---------------------------------------------------------------------------
# structures


def structure_to_json(N: FinStructure) -> dict:
    out = {"size": N.size, "pairs": sorted([a, b] for a, b in N.pairs)}
    if N.labels:
        out["labels"] = {str(k): v for k, v in sorted(N.labels.items())}
    if N.codes is not None:
        out["codes"] = [str(c) for c in N.codes]
    return out


def structure_from_json(obj: dict) -> FinStructure:
    labels = None
    if obj.get("labels"):
        labels = {int(k): str(v) for k, v in obj["labels"].items()}
    codes = None
    if obj.get("codes") is not None:
        codes = tuple(int(c) for c in obj["codes"])
    return FinStructure(
        int(obj["size"]),
        frozenset((int(a), int(b)) for a, b in obj["pairs"]),
        labels,
        codes,
    )


def structure_from_matrix(text: str) -> FinStructure:
    """Adjacency-matrix text: n lines of 0/1 characters; entry (a, b)
    on row a, column b means a relates to b."""
    rows = [line.strip() for line in text.strip().splitlines() if line.strip()]
    n = len(rows)
    pairs = set()
    for a, row in enumerate(rows):
        if len(row) != n or any(c not in "01" for c in row):
            raise ValueError(f"row {a} is not {n} characters of 0/1")
        for b, c in enumerate(row):
            if c == "1":
                pairs.add((a, b))
    return FinStructure(n, frozenset(pairs))


def structure_to_matrix(N: FinStructure) -> str:
    return "\n".join(
        "".join("1" if (a, b) in N.pairs else "0" for b in range(N.size))
        for a in range(N.size)
    ) + "\n"


# ---------------------------------------------------------------------------
# graphs


def graph_to_json(G: Graph) -> dict:
    return {
        "vertices": sorted(G.vertices),
        "edges": sorted([u, v] for u, v in G.edges),
    }


def graph_from_json(obj: dict) -> Graph:
    return make_graph(
        (int(v) for v in obj["vertices"]),
        ((int(u), int(v)) for u, v in obj["edges"]),
    )


def graph_from_edge_list(text: str) -> Graph:
    """Edge-list text: one ``u v`` pair per line; a line with a single
    number declares an isolated vertex."""
    vertices: set[int] = set()
    edges = []
    for line in text.strip().splitlines():
        parts = line.split()
        if not parts:
            continue
        if len(parts) == 1:
            vertices.add(int(parts[0]))
        elif len(parts) == 2:
            u, v = int(parts[0]), int(parts[1])
            vertices |= {u, v}
            edges.append((u, v))
        else:
            raise ValueError(f"bad edge-list line: {line!r}")
    return make_graph(vertices, edges)


def graph_to_edge_list(G: Graph) -> str:
    lines = [f"{u} {v}" for u, v in sorted(G.edges)]
    touched = {v for e in G.edges for v in e}
    lines += [str(v) for v in sorted(G.vertices - touched)]
    return "\n".join(lines) + "\n"


_DOT_COLORS = (
    "red", "blue", "green", "orange", "purple",
    "brown", "cyan", "magenta", "gold", "gray",
)


def graph_to_dot(G: Graph, parts: Sequence[Iterable] | None = None, name: str = "G") -> str:
    """DOT text; with *parts* given, edges are colored by the part
    (slice or decomposition member) they belong to."""
    color_of = {}
    if parts:
        for i, part in enumerate(parts):
            edges = part.edges if isinstance(part, Graph) else part
            for u, v in edges:
                color_of[(min(u, v), max(u, v))] = _DOT_COLORS[i % len(_DOT_COLORS)]
    lines = [f"graph {name} {{"]
    for v in sorted(G.vertices):
        lines.append(f"  {v};")
    for u, v in sorted(G.edges):
        attr = f' [color={color_of[(u, v)]}]' if (u, v) in color_of else ""
        lines.append(f"  {u} -- {v}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"

