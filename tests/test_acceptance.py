"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``).

Exhaustive sweeps are gated the same way the tool itself gates them;
every gate is spelled out next to the loop it bounds.
"""

import itertools
import json
import time

from finmodel.combinatorics import (
    is_delta_system,
    is_maximal_for_kernel,
    make_family,
    max_sunflower,
    trace_kernel_sunflower,
)
from finmodel.corpus import (
    extensional_wellfounded_structures,
    random_formula,
    random_structure,
)
from finmodel.decompose import (
    check_bond_faithful,
    search_bond_faithful,
    slice_partition_check,
    slices_from_chain,
    well_reflecting_probe,
)
from finmodel.formula import FormulaPack, free_vars, relativize, render, subformula_closure
from finmodel.graph import (
    check_bond_inheritance,
    components,
    cut_to_bonds,
    cycle_graph,
    enumerate_bonds,
    is_bond,
    is_cycle,
    is_decomposition,
    make_graph,
    odd_cut_witness,
    veblen_decomposition,
)
from finmodel.hull import chain, get_pack, hull
from finmodel.oracles import (
    all_cuts,
    bond_faithful_by_definition,
    max_sunflower_by_kernels,
)
from finmodel.serialize import canonical_dumps, graph_to_json, structure_to_json
from finmodel.structure import Budget, compile_formula, induced_substructure, is_sigma_elementary
from finmodel.universe import (
    HIERARCHY_SIZES,
    build_hierarchy,
    hf_pair,
    hf_rank,
    hf_succ,
    hf_union,
    membership_structure,
    recode_graph,
)

from conftest import edge_slot_count, is_fm_report, random_bitmask_graph, run_fm, seeded


def _report(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:2d}: {verdict} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def _connected(G) -> bool:
    return len(components(G)) <= 1


def _connected_hosts(n):
    for mask in range(1 << edge_slot_count(n)):
        G = random_bitmask_graph(n, mask)
        if _connected(G):
            yield G


# -------------------------------------------------------------------------
# 1. relativized evaluation agrees with evaluation on the substructure


def _subset_family(n):
    if n <= 3:
        return [
            frozenset(c)
            for k in range(n + 1)
            for c in itertools.combinations(range(n), k)
        ]
    return [
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset(range(0, n, 2)),
        frozenset(range(n - 1)),
        frozenset(range(n)),
    ]


def test_criterion_1_relativization_semantics():
    start = time.time()
    rng = seeded(2026)
    pack = [
        random_formula(rng, depth, variables=("x", "y"))
        for depth in [0] * 40 + [1] * 160 + [2] * 80 + [3] * 20
    ]
    assert len(pack) >= 300

    structures = list(
        itertools.chain.from_iterable(
            extensional_wellfounded_structures(n) for n in range(1, 5)
        )
    )
    sizes = ([3] * 80) + ([4] * 80) + ([5] * 40)
    structures += [random_structure(n, rng, rng.uniform(0.1, 0.6)) for n in sizes]

    # each formula is relativized and compiled once, for every structure
    compiled = [(compile_formula(relativize(phi)), compile_formula(phi)) for phi in pack]
    mismatches = 0
    comparisons = 0
    shared = Budget(10**10)
    for N in structures:
        subs = []
        for M in _subset_family(N.size):
            members = sorted(M)
            sub, remap = induced_substructure(N, members)
            subs.append((members, sub, remap))
        for host_fn, sub_fn in compiled:
            arity = len(sub_fn.free_vars)
            for members, sub, remap in subs:
                for combo in itertools.product(members, repeat=arity):
                    left = host_fn(N, members, shared, *combo)
                    right = sub_fn(sub, None, shared, *[remap[v] for v in combo])
                    comparisons += 1
                    if left != right:
                        mismatches += 1
    elapsed = time.time() - start
    _report(
        1,
        mismatches == 0 and elapsed <= 60.0,
        f"{comparisons} comparisons, {len(structures)} structures, "
        f"{len(pack)} formulas, {mismatches} mismatches, {elapsed:.1f}s",
    )


# -------------------------------------------------------------------------
# 2. hull soundness and determinism


def _hull_batch(master_seed: int):
    rng = seeded(master_seed)
    dumps = []
    sound = 0
    for _ in range(100):
        n = rng.randint(4, 16)
        N = random_structure(n, rng, rng.uniform(0.1, 0.5))
        base = tuple(
            random_formula(rng, rng.randint(1, 2), variables=("x",), max_nodes=10)
            for _ in range(rng.randint(1, 3))
        )
        pack = subformula_closure(FormulaPack("rnd", base))
        while len(pack) > 8:
            base = base[:-1]
            pack = subformula_closure(FormulaPack("rnd", base))
        seed = frozenset(e for e in range(n) if rng.random() < 0.25)
        h = hull(N, pack, seed)
        if is_sigma_elementary(h.carrier, N, pack).ok:
            sound += 1
        dumps.append(
            canonical_dumps(
                {
                    "structure": structure_to_json(N),
                    "pack": [render(f) for f in pack],
                    "seed": sorted(seed),
                    "carrier": sorted(h.carrier),
                    "trace": [
                        [render(s.formula), sorted(s.valuation), s.witness]
                        for s in h.trace
                    ],
                }
            )
        )
    return sound, "".join(dumps)


def test_criterion_2_hull_soundness_and_determinism():
    sound_a, bytes_a = _hull_batch(424242)
    sound_b, bytes_b = _hull_batch(424242)
    _report(
        2,
        sound_a == 100 and bytes_a == bytes_b,
        f"{sound_a}/100 sound, reruns byte-identical: {bytes_a == bytes_b}",
    )


# -------------------------------------------------------------------------
# 3. hierarchy construction and the set operations


def _decode(code: int):
    return frozenset(_decode(i) for i in range(code.bit_length()) if code >> i & 1)


def _encode(s) -> int:
    return sum(1 << _encode(m) for m in s)


def _pair_of(s):
    """Interpret a nested frozenset as a Kuratowski pair, or None."""
    members = list(s)
    if len(members) == 1:
        inner = list(members[0])
        return (inner[0], inner[0]) if len(inner) == 1 else None
    if len(members) == 2:
        first, second = sorted(members, key=len)
        if len(first) == 1 and 1 <= len(second) <= 2:
            a = next(iter(first))
            if a in second:
                rest = [b for b in second if b != a]
                return (a, rest[0] if rest else a)
    return None


def _apply_oracle(g: int, x: int):
    """Value of g at x through pure set decoding, or None on error."""
    target = _decode(x)
    values = set()
    for member in _decode(g):
        pair = _pair_of(member)
        if pair is None:
            return None
        if pair[0] == target:
            values.add(pair[1])
    if len(values) != 1:
        return None
    return _encode(values.pop())


def test_criterion_3_hierarchy_and_set_operations():
    from finmodel.universe import hf_apply

    sizes_ok = [build_hierarchy(n).size for n in range(5)] == [0, 1, 2, 4, 16]

    op_failures = 0
    for x in range(16):
        dx = _decode(x)
        for g in range(16):
            if _decode(hf_pair(g, x)) != frozenset({_decode(g), dx}):
                op_failures += 1
            expected = _apply_oracle(g, x)
            try:
                got = hf_apply(g, x)
            except ValueError:
                got = None
            if got != expected:
                op_failures += 1
        union = frozenset().union(*dx) if dx else frozenset()
        if _decode(hf_union(x)) != union:
            op_failures += 1
        if _decode(hf_succ(x)) != dx | {dx}:
            op_failures += 1
        if hf_rank(x) != _rank_of(dx):
            op_failures += 1

    t0 = time.time()
    h5 = build_hierarchy(5, allow_rank5=True)
    build_time = time.time() - t0
    _report(
        3,
        sizes_ok and op_failures == 0 and h5.size == HIERARCHY_SIZES[5] and build_time <= 10.0,
        f"sizes {sizes_ok}, {op_failures} op disagreements, rank-5 build {build_time:.2f}s",
    )


def _rank_of(s) -> int:
    return 1 + max(map(_rank_of, s)) if s else 0


# -------------------------------------------------------------------------
# 4. bond recognition against the minimal-cut definition


def test_criterion_4_bond_machinery():
    disagreements = 0
    comparisons = 0
    # every connected labelled host on up to 5 vertices, exhaustively;
    # the 2**15 six-vertex edge subsets sampled on a fixed stride
    hosts = [G for n in range(1, 6) for G in _connected_hosts(n)]
    hosts += [
        G
        for mask in range(0, 1 << 15, 31)
        if _connected(G := random_bitmask_graph(6, mask))
    ]
    cut_failures = 0
    cuts_checked = 0
    for G in hosts:
        cuts = all_cuts(G)
        nonempty = [c for c in cuts if c]
        edges = sorted(G.edges)
        for size in range(min(4, len(edges)) + 1):
            for F in itertools.combinations(edges, size):
                fs = frozenset(F)
                oracle = bool(fs) and fs in cuts and not any(c < fs for c in nonempty)
                comparisons += 1
                if is_bond(G, F) != oracle:
                    disagreements += 1
        if len(G.vertices) <= 5:
            for cut in nonempty:
                parts = cut_to_bonds(G, cut)
                cuts_checked += 1
                ok = (
                    frozenset().union(*parts) == cut
                    and sum(len(p) for p in parts) == len(cut)
                    and all(is_bond(G, p) for p in parts)
                )
                if not ok:
                    cut_failures += 1
    _report(
        4,
        disagreements == 0 and cut_failures == 0,
        f"{comparisons} bond comparisons over {len(hosts)} hosts, "
        f"{disagreements} disagreements; {cuts_checked} cuts split, {cut_failures} bad",
    )


# -------------------------------------------------------------------------
# 5. finite no-odd-cut equivalences


def test_criterion_5_parity_three_way_agreement():
    rng = seeded(99)
    failures = 0
    for _ in range(1000):
        n = rng.randint(2, 12)
        G = random_bitmask_graph(n, rng.randrange(1 << edge_slot_count(n)))
        odd_degree = any(G.degree(v) % 2 for v in G.vertices)
        odd_cut = odd_cut_witness(G, mode="exhaustive") is not None
        peel = veblen_decomposition(G)
        if not (odd_degree == odd_cut == (not peel.ok)):
            failures += 1
            continue
        if peel.ok:
            parts = peel.decomposition.parts
            if not (is_decomposition(G, parts) and all(is_cycle(p) for p in parts)):
                failures += 1
    _report(5, failures == 0, f"1000 random graphs up to 12 vertices, {failures} failures")


# -------------------------------------------------------------------------
# 6. subgraph bonds never contradict the confinement fact


def test_criterion_6_bond_inheritance_never_fatal():
    fatal = 0
    triples = 0
    # exhaustive on up to 4 vertices: every host, every subgraph, every bond
    for n in range(1, 5):
        for mask in range(1 << edge_slot_count(n)):
            G = random_bitmask_graph(n, mask)
            gedges = sorted(G.edges)
            for k in range(n + 1):
                for vh in itertools.combinations(range(n), k):
                    avail = [e for e in gedges if e[0] in vh and e[1] in vh]
                    for r in range(len(avail) + 1):
                        for eh in itertools.combinations(avail, r):
                            H = make_graph(vh, eh)
                            for F in enumerate_bonds(H):
                                triples += 1
                                if check_bond_inheritance(G, H, F).kind == "violation":
                                    fatal += 1
    # five vertices: connected hosts, induced subgraphs everywhere and
    # spanning subgraphs on hosts with at most 7 edges
    for G in _connected_hosts(5):
        gedges = sorted(G.edges)
        hs = []
        for k in range(1, 6):
            for vh in itertools.combinations(range(5), k):
                hs.append(make_graph(vh, [e for e in gedges if e[0] in vh and e[1] in vh]))
        if len(gedges) <= 7:
            for r in range(len(gedges) + 1):
                for eh in itertools.combinations(gedges, r):
                    hs.append(make_graph(range(5), eh))
        for H in hs:
            for F in enumerate_bonds(H):
                triples += 1
                if check_bond_inheritance(G, H, F).kind == "violation":
                    fatal += 1
    # random sweep on up to 8 vertices
    rng = seeded(606)
    randoms = 0
    while randoms < 1000:
        n = rng.randint(2, 8)
        G = random_bitmask_graph(n, rng.randrange(1 << edge_slot_count(n)))
        vh = tuple(v for v in range(n) if rng.random() < 0.75)
        avail = [e for e in sorted(G.edges) if e[0] in vh and e[1] in vh]
        eh = [e for e in avail if rng.random() < 0.75]
        H = make_graph(vh, eh)
        bonds = enumerate_bonds(H, max_size=4)
        if not bonds:
            continue
        F = bonds[rng.randrange(len(bonds))]
        triples += 1
        randoms += 1
        if check_bond_inheritance(G, H, F).kind == "violation":
            fatal += 1
    _report(6, fatal == 0, f"{triples} (host, subgraph, bond) triples, {fatal} fatal")


# -------------------------------------------------------------------------
# 7. coherent covering chains slice into edge partitions


def test_criterion_7_chain_slices_partition():
    rng = seeded(777)
    pack = get_pack("pairing,members")
    failures = 0
    exceptions = 0
    for _ in range(200):
        n = rng.randint(2, 6)
        G = random_bitmask_graph(n, rng.randrange(1 << edge_slot_count(n)))
        try:
            coded, codes = recode_graph(G)
            ambient = membership_structure(codes.all_codes())
            index = {c: i for i, c in enumerate(ambient.codes)}
            cover = frozenset(index[c] for c in codes.all_codes())
            ch = chain(ambient, pack, frozenset(), cover)
            sliced = slices_from_chain(coded, ambient, ch)
            ok = (
                ch.coherent is True
                and sliced.all_coherent
                and sliced.covers_host
                and slice_partition_check(sliced)
            )
            if not ok:
                failures += 1
        except Exception:
            exceptions += 1
    _report(
        7,
        failures == 0 and exceptions == 0,
        f"200 encoded graphs, {failures} partition failures, {exceptions} exceptions",
    )


# -------------------------------------------------------------------------
# 8. the probe discriminates: the triangle yields a counterexample


def test_criterion_8_probe_finds_triangle_counterexample():
    report = well_reflecting_probe([cycle_graph(3)], get_pack("path-existence"), "nw")
    inst = report.instances[0]
    ran = inst.status == "ok" and inst.candidates_tested > 0
    slice_hits = [c for c in inst.counterexamples if c.piece.startswith("slice")]
    _report(
        8,
        ran and report.counterexample_count >= 1 and len(slice_hits) >= 1,
        f"status {inst.status}, {inst.candidates_tested} pieces tested, "
        f"{report.counterexample_count} counterexamples, "
        f"{len(slice_hits)} on slices",
    )


# -------------------------------------------------------------------------
# 9. bond-faithfulness checker against the definitional oracle


def _edge_partitions_upto3(items):
    def rec(i, blocks):
        if i == len(items):
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(items[i])
            yield from rec(i + 1, blocks)
            b.pop()
        if len(blocks) < 3:
            blocks.append([items[i]])
            yield from rec(i + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


def test_criterion_9_bond_faithful_checker_vs_oracle():
    disagreements = 0
    checks = 0
    hosts = []
    # gated instance generator: every host on up to 4 vertices, plus
    # strided connected hosts on 5 and 6 vertices with at most 6 edges
    for n in range(2, 5):
        for mask in range(1, 1 << edge_slot_count(n)):
            hosts.append(random_bitmask_graph(n, mask))
    for n, stride in ((5, 37), (6, 1201)):
        for mask in range(1, 1 << edge_slot_count(n), stride):
            G = random_bitmask_graph(n, mask)
            if _connected(G) and len(G.edges) <= 6:
                hosts.append(G)
    for G in hosts:
        edges = sorted(G.edges)
        for blocks in _edge_partitions_upto3(edges):
            parts = [make_graph({v for e in b for v in e}, b) for b in blocks]
            for kappa in (1, 2, 3):
                rep = check_bond_faithful(G, parts, kappa)
                checks += 1
                if rep.verdict != bond_faithful_by_definition(G, parts, kappa):
                    disagreements += 1

    search_failures = 0
    rng = seeded(31337)
    for _ in range(30):
        n = rng.randint(2, 6)
        G = random_bitmask_graph(n, rng.randrange(1 << edge_slot_count(n)))
        kappa = rng.randint(1, 4)
        out = search_bond_faithful(G, kappa)
        if out.status == "found":
            if not check_bond_faithful(G, out.decomposition.parts, kappa).verdict:
                search_failures += 1
    _report(
        9,
        disagreements == 0 and search_failures == 0,
        f"{checks} checker/oracle comparisons over {len(hosts)} hosts, "
        f"{disagreements} disagreements; {search_failures} unvalidated searches",
    )


# -------------------------------------------------------------------------
# 10. sunflower extraction and the exhaustive maximum


def test_criterion_10_sunflowers():
    rng = seeded(5150)
    trace_failures = 0
    oracle_failures = 0
    oracle_checked = 0
    for _ in range(10_000):
        ground = range(rng.randint(1, 15))
        fam = make_family(
            [
                rng.sample(ground, rng.randint(0, min(4, len(ground))))
                for _ in range(rng.randint(1, 10))
            ]
        )
        m: set = {x for x in ground if rng.random() < 0.4}
        m |= {s for s in fam.sets if rng.random() < 0.5}
        if all(s in m for s in fam.sets):
            m.discard(fam.sets[0])
        system = trace_kernel_sunflower(fam, m)
        if len(system.members) >= 2:
            if is_delta_system(system.members) != system.kernel:
                trace_failures += 1
        elif not all(system.kernel <= s for s in system.members):
            trace_failures += 1
        if not is_maximal_for_kernel(fam, system):
            trace_failures += 1
        if len(fam) <= 8:
            oracle_checked += 1
            ours = max_sunflower(fam)
            other = max_sunflower_by_kernels(fam)
            if ours.indices != other.indices or ours.kernel != other.kernel:
                oracle_failures += 1
    _report(
        10,
        trace_failures == 0 and oracle_failures == 0,
        f"10000 trace extractions, {trace_failures} invalid; "
        f"{oracle_checked} maximum comparisons, {oracle_failures} disagreements",
    )


# -------------------------------------------------------------------------
# 11. command-line determinism and the exit-code contract


def test_criterion_11_cli_determinism_and_exit_codes(tmp_path):
    (tmp_path / "v3.json").write_text(
        json.dumps(structure_to_json(build_hierarchy(3).structure))
    )
    (tmp_path / "v4.json").write_text(
        json.dumps(structure_to_json(build_hierarchy(4).structure))
    )
    (tmp_path / "c3.json").write_text(json.dumps(graph_to_json(cycle_graph(3))))
    (tmp_path / "c4.json").write_text(json.dumps(graph_to_json(cycle_graph(4))))
    (tmp_path / "pack.json").write_text(
        json.dumps({"name": "empty-set", "formulas": ["Ex Ay ~(y in x)"]})
    )
    (tmp_path / "parts.json").write_text(
        json.dumps(
            [
                graph_to_json(make_graph(range(4), [(0, 1), (2, 3)])),
                graph_to_json(make_graph(range(4), [(1, 2), (0, 3)])),
            ]
        )
    )
    (tmp_path / "stages.json").write_text(
        json.dumps([[], [0, 1, 3], [0, 1, 2, 3, 5, 6]])
    )
    (tmp_path / "family.json").write_text(json.dumps([[1, 2], [1, 3], [1, 4]]))
    (tmp_path / "map.json").write_text(json.dumps({"1": [2], "2": []}))
    (tmp_path / "corpus.json").write_text(
        json.dumps({"generator": {"model": "gnp", "n": 3, "p": 0.5, "count": 3}, "seed": 5})
    )

    subcommands = [
        ["parse", "--formula", "Ex Ay ~(y in x)"],
        ["eval", "--structure", "v3.json", "--formula", "Ex Ay ~(y in x)"],
        ["relativize", "--formula", "Ex (x = x)"],
        ["universe", "dump", "--rank", "3"],
        ["hull", "--structure", "v4.json", "--pack", "pack.json", "--seed-elems", "0,1"],
        ["chain", "--structure", "v4.json", "--pack", "pairing,members",
         "--seed-elems", "", "--cover-elems", "0,1,2,3,5,6"],
        ["slice", "--graph", "c3.json", "--stages", "stages.json"],
        ["probe", "--graph", "c3.json", "--pack", "path-existence", "--property", "nw"],
        ["graph", "bonds", "--graph", "c4.json"],
        ["graph", "gamma", "--graph", "c4.json", "--x", "0", "--y", "2"],
        ["graph", "nw", "--graph", "c4.json"],
        ["graph", "veblen", "--graph", "c4.json"],
        ["graph", "bridges", "--graph", "c4.json"],
        ["graph", "dcc", "--graph", "c3.json"],
        ["bondfaithful", "check", "--graph", "c4.json", "--parts", "parts.json", "--kappa", "2"],
        ["bondfaithful", "search", "--graph", "c4.json", "--kappa", "1"],
        ["sunflower", "find", "--family", "family.json"],
        ["sunflower", "max", "--family", "family.json"],
        ["sunflower", "trace", "--family", "family.json"],
        ["freeset", "--map", "map.json"],
        ["corpus", "gen", "--spec", "corpus.json"],
    ]
    nondeterministic = 0
    for cmd in subcommands:
        first = run_fm(cmd, tmp_path)
        second = run_fm(cmd, tmp_path)
        if not first.stdout or first.stdout != second.stdout:
            nondeterministic += 1

    runs = {
        0: run_fm(["eval", "--structure", "v3.json", "--formula", "Ex (x = x)"], tmp_path),
        1: run_fm(
            ["bondfaithful", "check", "--graph", "c4.json", "--parts", "parts.json", "--kappa", "2"],
            tmp_path,
        ),
        2: run_fm(["eval", "--structure", "absent.json", "--formula", "x = x"], tmp_path),
        3: run_fm(
            ["eval", "--structure", "v4.json", "--formula", "Ex Ey ((x in y) | (y in x))"],
            tmp_path,
            env_extra={"FM_EVAL_BUDGET": "5"},
        ),
    }
    codes = {want: proc.returncode for want, proc in runs.items()}
    contract_ok = all(code == want for want, code in codes.items())
    # An interpreter that cannot import finmodel also exits 1, so these
    # codes count only with fm's own report or error line.
    from_fm = (
        is_fm_report(runs[0].stdout)
        and is_fm_report(runs[1].stdout)
        and runs[2].stderr.startswith("fm: error:")
    )
    _report(
        11,
        nondeterministic == 0 and contract_ok and from_fm,
        f"{len(subcommands)} subcommands byte-stable ({nondeterministic} unstable), "
        f"exit codes {codes}" + ("" if from_fm else ", not all from fm"),
    )
