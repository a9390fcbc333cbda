"""The four workloads: seeded inputs, the timed operation, and the check
of each answer against :mod:`reference`.

Every workload has the same four steps:

``make(seed)``
    the benchmark's own description of one round of items, made from
    the seed alone with no finmodel code;
``prepare(fm, specs, workdir)``
    builds the inputs through the program (part of ``setup_s``);
``run(fm, item)``
    one timed item, returning the program's answers;
``verify(item, out)``
    ``(failed, problem)``: *failed* is set when the operation itself
    failed (a sampled report, an undocumented exit code); *problem*
    describes an answer that disagrees with the reference;
``summary(out)``
    the answer in a form whose ``repr`` is the same for equal answers,
    so that a repeated item is compared with its checked answer.

``fm`` is a namespace of finmodel modules.  Items call the program
through module attributes at call time, so the traced run sees them.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref

FM_TIMEOUT_S = 120


def child_env(src: Path) -> dict:
    """The environment of a child interpreter that imports finmodel from
    *src* and may write its bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# random inputs, made by the benchmark


def gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    return [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]


def connected(n: int, edges) -> bool:
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, todo = {0}, [0]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == n


def connected_gnp(n: int, p: float, rng: random.Random, m: int | None = None):
    """A connected gnp graph; with *m*, redrawn until it has m edges."""
    while True:
        edges = gnp_edges(n, p, rng)
        if (m is None or len(edges) == m) and connected(n, edges):
            return edges


def cycles_edges(n: int, lengths, rng: random.Random):
    """An edge-disjoint union of random cycles on 0..n-1, one of each
    length in *lengths*, redrawn whole until the cycles are disjoint."""
    while True:
        edges: set[tuple[int, int]] = set()
        for length in lengths:
            ring = rng.sample(range(n), length)
            new = {(min(a, b), max(a, b)) for a, b in zip(ring, ring[1:] + ring[:1])}
            if new & edges:
                break
            edges |= new
        else:
            return sorted(edges)


def random_tree(depth: int, scope: list[str], bound: list[str], rng: random.Random):
    """A formula of quantifier depth exactly *depth* with free variables
    among *scope*: each quantifier's body joins one literal with the
    next level; the innermost level joins two literals."""

    def literal(names):
        a, b = rng.choice(names), rng.choice(names)
        atom = ("in", a, b) if rng.random() < 0.75 else ("eq", a, b)
        return ("not", atom) if rng.random() < 0.3 else atom

    def build(d, names, fresh):
        if d == 0:
            return (rng.choice(("or", "and", "imp")), literal(names), literal(names))
        var = fresh[0]
        inner = build(d - 1, names + [var], fresh[1:])
        body = (rng.choice(("or", "and", "imp")), literal(names + [var]), inner)
        node = (rng.choice(("ex", "all")), var, body)
        return ("not", node) if rng.random() < 0.25 else node

    return build(depth, scope, bound)


# ---------------------------------------------------------------------------
# absoluteness


@dataclass
class AbsItem:
    n: int
    pairs: list
    tree: tuple
    text: str
    subsets: list
    valuations: list
    structure: object = None


class Absoluteness:
    """A formula against a random structure over a fixed family of subsets."""

    name = "absoluteness"
    SIZES = range(4, 10)
    DEPTHS = (1, 2, 3)
    PER_CLASS = 15
    SUBSETS = 48
    DENSITY = 0.3

    def make(self, seed: int):
        """The formula-structure pairs come from one fixed generator; the
        seed draws the subsets and the valuations, subset sizes running
        through 1..n in turn.  Whether ``is_absolute`` stops at an early
        counterexample depends on the pair, so with the pairs drawn from
        the seed the work of a round, counted in calls, moved by ±15%
        between seeds and its 90th percentile by ±10%; with fixed pairs
        both move by less than 1%."""
        rng = _rng(self.name, seed)
        fixed = random.Random(f"{self.name}:pairs")
        items = []
        for _ in range(self.PER_CLASS):
            for n in self.SIZES:
                for depth in self.DEPTHS:
                    pairs = [(a, b) for a in range(n) for b in range(n) if fixed.random() < self.DENSITY]
                    scope = ["x", "y"][: fixed.randint(1, 2)]
                    tree = random_tree(depth, scope, ["u", "v", "w"], fixed)
                    names = ref.free_vars(tree)
                    subsets, valuations = [], []
                    for j in range(self.SUBSETS):
                        M = sorted(rng.sample(range(n), j % n + 1))
                        subsets.append(M)
                        valuations.append({x: rng.choice(M) for x in names})
                    items.append(AbsItem(n, pairs, tree, ref.render(tree), subsets, valuations))
        return items

    def prepare(self, fm, items, workdir):
        for item in items:
            item.structure = fm.structure.FinStructure(item.n, frozenset(map(tuple, item.pairs)))
        return items

    def run(self, fm, item):
        phi = fm.formula.parse(item.text)
        rel = fm.formula.relativize(phi)
        out = []
        for M, val in zip(item.subsets, item.valuations):
            check = fm.structure.is_absolute(M, item.structure, phi)
            value = fm.structure.eval_relativized(item.structure, M, rel, val)
            out.append((check.ok, check.counterexample, value))
        return out

    def expected(self, item):
        rel = set(map(tuple, item.pairs))
        out = []
        for M, val in zip(item.subsets, item.valuations):
            ok, counter = ref.absoluteness(item.tree, rel, item.n, M)
            out.append((ok, counter, ref.holds(item.tree, rel, M, val)))
        return out

    def summary(self, out):
        return out

    def verify(self, item, out):
        for (M, got, exp) in zip(item.subsets, out, self.expected(item)):
            if got != exp:
                return False, f"{item.text} on n={item.n}, M={M}: got {got}, want {exp}"
        return False, None


# ---------------------------------------------------------------------------
# hull-chain


@dataclass
class HullItem:
    model: str
    n: int
    edges: list
    seed_codes: list
    graph: object = None
    pack: object = None


class HullChain:
    """Code a graph, chain hulls over its membership structure, slice it,
    and build plus verify one seeded hull."""

    name = "hull-chain"
    SIZES = range(5, 10)
    PER_CLASS = 10
    PACK = "pairing,members"

    def make(self, seed: int):
        """Per size n: connected gnp graphs redrawn until they have
        round(5n/4) edges, and unions of two edge-disjoint cycles of
        lengths n-1 and 3.  Fixing the edge count fixes the size of the
        membership ambient, so items of one class cost about the same."""
        rng = _rng(self.name, seed)
        items = []
        for _ in range(self.PER_CLASS):
            for model in ("gnp", "cycles"):
                for n in self.SIZES:
                    if model == "gnp":
                        m = round(5 * n / 4)
                        edges = connected_gnp(n, m / (n * (n - 1) / 2), rng, m)
                    else:
                        edges = cycles_edges(n, (n - 1, 3), rng)
                    vcode = dict(zip(range(n), ref.vertex_codes(n)))
                    vertex = vcode[rng.randrange(n)]
                    u, v = rng.choice(edges)
                    seed_codes = [vertex, 1 << vcode[u] | 1 << vcode[v]]
                    items.append(HullItem(model, n, edges, seed_codes))
        return items

    def prepare(self, fm, items, workdir):
        pack = fm.hull.get_pack(self.PACK)
        for item in items:
            item.graph = fm.graph.make_graph(range(item.n), item.edges)
            item.pack = pack
        return items

    def run(self, fm, item):
        coded, codes = fm.universe.recode_graph(item.graph)
        ambient = fm.universe.membership_structure(codes.all_codes())
        index = {c: i for i, c in enumerate(ambient.codes)}
        cover = frozenset(index[c] for c in codes.all_codes())
        ch = fm.hull.chain(ambient, item.pack, frozenset(), cover)
        sliced = fm.decompose.slices_from_chain(coded, ambient, ch)
        partition = fm.decompose.slice_partition_check(sliced)
        seed = [index[c] for c in item.seed_codes]
        h = fm.hull.hull(ambient, item.pack, seed)
        valid = fm.hull.verify_hull(ambient, item.pack, h)
        return coded, ambient, ch, sliced, partition, h, valid

    def summary(self, out):
        coded, ambient, ch, sliced, partition, h, valid = out
        return (
            sorted(coded.edges), ambient.codes, sorted(ambient.pairs),
            [(sorted(r.seed), r.trace) for r in ch.records], [sorted(s) for s in ch.stages],
            [sorted(s.edges) for s in sliced.slices], partition,
            sorted(h.seed), sorted(h.carrier), h.trace, valid,
        )

    def verify(self, item, out):
        coded, ambient, ch, sliced, partition, h, valid = out
        ctx = self._context(item)
        if sorted(coded.vertices) != ctx["vertices"] or sorted(coded.edges) != ctx["edges"]:
            return False, "recode_graph disagrees with the vertex coding"
        if tuple(ambient.codes) != ctx["codes"] or set(ambient.pairs) != ctx["rel"]:
            return False, "membership_structure disagrees with the membership closure"
        table, existentials = ctx["table"], ctx["existentials"]
        codes = ctx["codes"]
        cover = {codes.index(c) for c in ctx["objects"]}
        stages = [set(s) for s in ch.stages]
        if any(not a < b for a, b in zip(stages, stages[1:])):
            return False, "chain stages do not strictly increase"
        if not cover <= stages[-1]:
            return False, "last chain stage misses a vertex or edge object"
        previous = set()
        for k, (record, stage) in enumerate(zip(ch.records, stages)):
            if k and set(record.seed) != previous | {min(cover - previous)}:
                return False, f"stage {k} is not seeded by the smallest missing cover element"
            fault = ref.replay(table, existentials, record.seed, _trace(record.trace), stage)
            fault = fault or ref.closure_fault(table, existentials, stage)
            if fault:
                return False, f"stage {k}: {fault}"
            previous = stage
        code_stages = [{codes[i] for i in s} for s in stages]
        want = ref.slices(ctx["edges"], code_stages)
        got = [frozenset(s.edges) for s in sliced.slices]
        if got != want:
            return False, "slices differ from the slices worked out from the stage codes"
        if partition != ref.partitions_edges(ctx["edges"], want) or not partition:
            return False, "slice partition check disagrees"
        seed = {codes.index(c) for c in item.seed_codes}
        fault = ref.replay(table, existentials, seed, _trace(h.trace), h.carrier)
        fault = fault or ref.closure_fault(table, existentials, h.carrier)
        if fault:
            return False, f"hull: {fault}"
        if valid is not True:
            return False, "verify_hull rejects a witness-closed hull"
        return False, None

    def _context(self, item):
        vcode = dict(zip(range(item.n), ref.vertex_codes(item.n)))
        edges = sorted((min(vcode[u], vcode[v]), max(vcode[u], vcode[v])) for u, v in item.edges)
        objects = sorted(set(vcode.values()) | {1 << u | 1 << v for u, v in edges})
        codes = tuple(ref.membership_closure(objects))
        rel = ref.membership_relation(codes)
        existentials = [ref.from_finmodel(f) for f in item.pack.formulas if type(f).__name__ == "Exists"]
        return {
            "vertices": sorted(vcode.values()),
            "edges": edges,
            "objects": objects,
            "codes": codes,
            "rel": rel,
            "table": ref.WitnessTable(rel, len(codes)),
            "existentials": existentials,
        }


def _trace(steps):
    return [(ref.from_finmodel(s.formula), s.valuation, s.witness) for s in steps]


# ---------------------------------------------------------------------------
# bond-faithful


@dataclass
class BondItem:
    op: str  # bonds | check | search
    n: int
    edges: list
    kappa: int = 0
    parts: list = field(default_factory=list)
    graph: object = None
    members: list = field(default_factory=list)


class BondFaithful:
    """Bond enumeration, bond-faithful checks and bond-faithful searches."""

    name = "bond-faithful"
    BOND_SIZES = (9, 10, 11, 12, 13) + (14,) * 7
    BOND_P = 0.35
    CHECK_SIZES = (6, 8, 10, 11, 11, 11)
    CHECK_P = 0.4
    SEARCHES = [(2, m) for m in (5, 6, 7, 7)] + [(3, m) for m in (5, 6, 6)]
    CHECK_ROUNDS = 3
    SEARCH_ROUNDS = 2
    COPIES = 2
    TRACED_ITEMS = 62

    def make(self, seed: int):
        """One round is COPIES blocks of the same make-up, each of 12 bond
        enumerations, 7 of them on 14 vertices so that the 90th
        percentile falls inside one class of items; 36 checks, half of
        them on 11 vertices; 14 searches.  Bond and check graphs are
        redrawn until they have round(p n(n-1)/2) edges, which fixes
        their cost.  The median item is then one of the checks on 11
        vertices, all of about one cost.  With 24 checks a block on 6..11
        vertices, it fell on the cheapest search or the dearest check and
        moved by 20% between seeds; with 36 on 6..11 vertices, between
        those on 10 and on 11 vertices, which differ twofold.  Two
        blocks rather than one halve the share any one bond graph has of
        a round's rate.  The traced run works through the
        first block only (TRACED_ITEMS), which keeps its spans to about
        half a million."""
        rng = _rng(self.name, seed)
        items = []
        for _ in range(self.COPIES):
            for n in self.BOND_SIZES:
                m = round(self.BOND_P * n * (n - 1) / 2)
                items.append(BondItem("bonds", n, connected_gnp(n, self.BOND_P, rng, m)))
            for _ in range(self.CHECK_ROUNDS):
                for n in self.CHECK_SIZES:
                    for kappa in (2, 3):
                        edges = connected_gnp(n, self.CHECK_P, rng, round(self.CHECK_P * n * (n - 1) / 2))
                        shuffled = rng.sample(edges, len(edges))
                        parts, k = [], 0
                        while k < len(shuffled):
                            size = rng.randint(1, kappa + 1)
                            parts.append(sorted(shuffled[k:k + size]))
                            k += size
                        items.append(BondItem("check", n, edges, kappa, parts))
            for _ in range(self.SEARCH_ROUNDS):
                for kappa, m in self.SEARCHES:
                    n = rng.randint(4, 7)
                    pool = list(itertools.combinations(range(n), 2))
                    edges = sorted(rng.sample(pool, min(m, len(pool))))
                    items.append(BondItem("search", n, edges, kappa))
        return items

    def prepare(self, fm, items, workdir):
        for item in items:
            item.graph = fm.graph.make_graph(range(item.n), item.edges)
            item.members = [
                fm.graph.make_graph({v for e in p for v in e}, p) for p in item.parts
            ]
        return items

    def run(self, fm, item):
        if item.op == "bonds":
            return fm.graph.enumerate_bonds(item.graph)
        if item.op == "check":
            return fm.decompose.check_bond_faithful(item.graph, item.members, item.kappa)
        return fm.decompose.search_bond_faithful(item.graph, item.kappa)

    def summary(self, out):
        if isinstance(out, list):
            return [sorted(b) for b in out]
        report = getattr(out, "report", out)
        parts = getattr(getattr(out, "decomposition", None), "parts", ())
        fields = None
        if report is not None:
            fields = (
                report.size_ok, report.containment_ok, report.bond_preservation_ok,
                report.oversized_members, sorted(sorted(b) for b in report.split_bonds),
                sorted((i, sorted(b)) for i, b in report.foreign_bonds), report.sampled,
            )
        return getattr(out, "status", None), [sorted(p.edges) for p in parts], fields

    def verify(self, item, out):
        vertices = range(item.n)
        if item.op == "bonds":
            if not ref.same_bonds(out, vertices, item.edges):
                return False, f"bonds of {item.edges} differ from the bipartition enumeration"
            return False, None
        if item.op == "check":
            if out.sampled:
                return True, None
            parts = [frozenset(map(tuple, p)) for p in item.parts]
            want = ref.bond_faithful(vertices, item.edges, parts, item.kappa)
            got = {
                "size_ok": out.size_ok,
                "containment_ok": out.containment_ok,
                "bond_preservation_ok": out.bond_preservation_ok,
                "verdict": out.verdict,
                "oversized": list(out.oversized_members),
                "split": sorted(out.split_bonds, key=sorted),
                "foreign": sorted(out.foreign_bonds, key=lambda x: (x[0], sorted(x[1]))),
            }
            exp = dict(want)
            exp["split"] = sorted(want["split"], key=sorted)
            exp["foreign"] = sorted(want["foreign"], key=lambda x: (x[0], sorted(x[1])))
            if got != exp:
                return False, f"check of {item.parts} (kappa {item.kappa}) disagrees"
            return False, None
        if out.status == "found":
            if out.report is None or out.report.sampled:
                return True, None
            parts = [frozenset(p.edges) for p in out.decomposition.parts]
            if not ref.is_edge_partition(item.edges, parts):
                return False, "found parts do not partition the edges"
            if not ref.bond_faithful(vertices, item.edges, parts, item.kappa)["verdict"]:
                return False, f"found decomposition of {item.edges} breaks a clause"
            return False, None
        if out.status == "proven-absent":
            found = ref.find_bond_faithful(vertices, item.edges, item.kappa)
            if found is not None:
                return False, f"proven-absent, but {found} is bond-faithful"
            return False, None
        return True, None


# ---------------------------------------------------------------------------
# fm-cli


@dataclass
class CliItem:
    argv: list
    expect_code: int
    check: object = None  # callable(result) -> problem or None


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


class FmCli:
    """One ``python -m finmodel`` call per item, on small fixtures."""

    name = "fm-cli"

    def make(self, seed: int):
        rng = _rng(self.name, seed)
        spec = {}
        n = rng.randint(5, 7)
        spec["g"] = (n, connected_gnp(n, 0.5, rng))
        spec["cyc"] = (n, cycles_edges(n, (n - 1, 3), rng))
        spec["small"] = (6, sorted(rng.sample(list(itertools.combinations(range(6), 2)), 6)))
        n, edges = spec["g"]
        shuffled = rng.sample(edges, len(edges))
        spec["parts"] = [sorted(shuffled[i:i + 2]) for i in range(0, len(shuffled), 2)]
        spec["tree"] = random_tree(2, ["x"], ["u", "v"], rng)
        spec["sentence"] = ("ex", "x", random_tree(1, ["x"], ["u"], rng))
        spec["x"] = rng.randrange(16)
        spec["family"] = [sorted(rng.sample(range(1, 9), rng.randint(2, 4))) for _ in range(7)]
        spec["map"] = {str(k): sorted(rng.sample(range(1, 9), rng.randint(0, 2))) for k in range(1, 9)}
        spec["corpus_seed"] = rng.randrange(1000)
        spec["hull_seed"] = sorted(rng.sample(range(16), 2))
        return spec, self._calls(spec)

    def prepare(self, fm, made, workdir):
        """Write the fixtures through finmodel.serialize; returns the calls."""
        spec, calls = made
        S, G = fm.serialize, fm.graph
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self.env = child_env(Path(fm.package.__file__).parents[1])

        def write(name, obj):
            (workdir / name).write_text(S.canonical_dumps(obj))

        for rank in (3, 4):
            write(f"v{rank}.json", S.structure_to_json(fm.universe.build_hierarchy(rank).structure))
        graphs = {k: G.make_graph(range(spec[k][0]), spec[k][1]) for k in ("g", "cyc", "small")}
        for k, g in graphs.items():
            write(f"{k}.json", S.graph_to_json(g))
        write("parts.json", [S.graph_to_json(G.make_graph({v for e in p for v in e}, p)) for p in spec["parts"]])
        write("stages.json", [[], [0, 1, 3], [0, 1, 2, 3, 5, 6]])
        write("c3.json", S.graph_to_json(G.make_graph(range(3), [(0, 1), (1, 2), (0, 2)])))
        write("family.json", spec["family"])
        write("map.json", spec["map"])
        write("corpus.json", {"generator": {"model": "gnp", "n": 3, "p": 0.5, "count": 3}, "seed": spec["corpus_seed"]})
        return calls

    def _calls(self, spec):
        v4 = [(a, b) for b in range(16) for a in ref.hf_members(b)]
        text = ref.render(spec["tree"])
        sentence = ref.render(spec["sentence"])
        n, edges = spec["g"]
        cn, cedges = spec["cyc"]
        sn, sedges = spec["small"]
        parts = [frozenset(map(tuple, p)) for p in spec["parts"]]
        bf = ref.bond_faithful(range(n), edges, parts, 2)
        bonds_g = [sorted(map(list, b)) for b in ref.bonds(range(n), edges)]
        small_bonds = ref.bonds(range(sn), sedges)
        bridges = sorted(list(next(iter(b))) for b in small_bonds if len(b) == 1)
        odd = any(sum(v in e for e in sedges) % 2 for v in range(sn))
        search_absent = ref.find_bond_faithful(range(sn), sedges, 3) is None
        x = spec["x"]
        v4rel = set(v4)
        want_eval = ref.holds(spec["tree"], v4rel, range(16), {"x": x})
        want_sentence = ref.holds(spec["sentence"], v4rel, range(16), {})
        gamma = _min_cut(n, edges, 0, n - 1)

        def result_is(**expected):
            def check(result):
                for key, value in expected.items():
                    if result.get(key) != value:
                        return f"{key} is {result.get(key)!r}, want {value!r}"
                return None
            return check

        def validated(result):
            return None if result.get("validated") is True else "not validated"

        def bonds_check(result):
            if result.get("validated") is not True:
                return "not validated"
            return None if result["bonds"] == bonds_g else "bonds differ"

        def bf_check(result):
            for key in ("size_ok", "containment_ok", "bond_preservation_ok", "verdict"):
                if result[key] != bf[key]:
                    return f"{key} disagrees"
            return None if result["sampled"] is False else "sampled"

        def search_check(result):
            status = result["status"]
            if status == "proven-absent":
                return None if search_absent else "proven-absent but a decomposition exists"
            if status != "found" or result["report"]["sampled"]:
                return f"status {status}"
            found = [frozenset(tuple(e) for e in p["edges"]) for p in result["parts"]]
            ok = ref.is_edge_partition(sedges, found) and ref.bond_faithful(range(sn), sedges, found, 3)["verdict"]
            return None if ok else "found decomposition is not bond-faithful"

        def dump_check(result):
            return None if result["size"] == 16 and len(result["elements"]) == 16 else "wrong size"

        def corpus_check(result):
            return None if len(result["graphs"]) == 3 else "wrong graph count"

        def chain_check(result):
            stages = [set(s) for s in result["stages"]]
            ok = all(a < b for a, b in zip(stages, stages[1:])) and set(range(4)) <= stages[-1]
            return None if ok and result.get("validated") is True else "chain stages wrong"

        hull_seed = ",".join(map(str, spec["hull_seed"]))
        calls = [
            CliItem(["parse", "--formula", text], 0, result_is(free_vars=ref.free_vars(spec["tree"]))),
            CliItem(["eval", "--structure", "v4.json", "--formula", text, "--valuation", json.dumps({"x": x})], 0, result_is(value=want_eval)),
            CliItem(["eval", "--structure", "v4.json", "--formula", sentence], 0, result_is(value=want_sentence)),
            CliItem(["relativize", "--formula", text], 0, None),
            CliItem(["universe", "dump", "--rank", "4"], 0, dump_check),
            CliItem(["hull", "--structure", "v4.json", "--pack", "pairing", "--seed-elems", hull_seed, "--validate"], 0, validated),
            CliItem(["chain", "--structure", "v3.json", "--pack", "pairing,members", "--validate"], 0, chain_check),
            CliItem(["slice", "--graph", "c3.json", "--stages", "stages.json"], 0, result_is(partition=True)),
            CliItem(["probe", "--corpus", "corpus.json", "--pack", "path-existence", "--property", "nw"], None, None),
            CliItem(["graph", "bonds", "--graph", "g.json", "--validate"], 0, bonds_check),
            CliItem(["graph", "gamma", "--graph", "g.json", "--x", "0", "--y", str(n - 1), "--paths", str(min(gamma, 2)), "--validate"], 0, result_is(gamma=gamma, validated=True)),
            CliItem(["graph", "nw", "--graph", "small.json", "--mode", "exhaustive"], 1 if odd else 0, result_is(nw=not odd)),
            CliItem(["graph", "veblen", "--graph", "cyc.json", "--validate"], 0, validated),
            CliItem(["graph", "bridges", "--graph", "small.json", "--validate"], 0, result_is(bridges=bridges, validated=True)),
            CliItem(["bondfaithful", "check", "--graph", "g.json", "--parts", "parts.json", "--kappa", "2", "--validate"], 0 if bf["verdict"] else 1, bf_check),
            CliItem(["bondfaithful", "search", "--graph", "small.json", "--kappa", "3"], 1 if search_absent else 0, search_check),
            CliItem(["sunflower", "find", "--family", "family.json"], 0, None),
            CliItem(["sunflower", "max", "--family", "family.json", "--validate"], None, None),
            CliItem(["sunflower", "trace", "--family", "family.json", "--validate"], 0, validated),
            CliItem(["freeset", "--map", "map.json", "--validate"], 0, validated),
            CliItem(["corpus", "gen", "--model", "gnp", "--n", "6", "--p", "0.4", "--count", "3", "--seed", str(spec["corpus_seed"])], 0, corpus_check),
        ]
        return calls

    def run(self, fm, item):
        """Run one call; returns (exit code, stdout, peak RSS in KiB)."""
        workdir, env = self.workdir, self.env
        out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "finmodel", *item.argv],
                cwd=workdir, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            )
            watchdog = threading.Timer(FM_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out_path.read_text(), usage.ru_maxrss

    def summary(self, out):
        return out[:2]

    def verify(self, item, out):
        code, stdout, _ = out
        if code not in (0, 1):
            return True, None
        if item.expect_code is not None and code != item.expect_code:
            return False, f"{item.argv}: exit {code}, want {item.expect_code}"
        try:
            report = json.loads(stdout)
        except ValueError:
            return False, f"{item.argv}: stdout is not JSON"
        if canonical(report) != stdout:
            return False, f"{item.argv}: stdout is not canonical JSON"
        if report.get("schema") != "fm-report/1" or report.get("command") != item.argv[0]:
            return False, f"{item.argv}: not an fm-report/1 report of {item.argv[0]}"
        if item.check is not None:
            problem = item.check(report["result"])
            if problem:
                return False, f"{item.argv}: {problem}"
        return False, None


def _min_cut(n: int, edges, x: int, y: int) -> int:
    """The fewest edges whose removal separates x from y, over every
    vertex set holding x and not y."""
    best = len(edges)
    others = [v for v in range(n) if v not in (x, y)]
    for k in range(len(others) + 1):
        for pick in itertools.combinations(others, k):
            side = {x, *pick}
            best = min(best, sum((u in side) != (v in side) for u, v in edges))
    return best


WORKLOADS = {w.name: w for w in (Absoluteness(), HullChain(), BondFaithful(), FmCli())}
