"""The ``fm`` command line tool.

One binary, many subcommands; every run writes a JSON report to stdout
(sorted keys, no timestamps) so identical invocations produce identical
bytes.  Exit codes: 0 success, 1 a property violation or counterexample
was found, 2 usage or input error, 3 a work budget ran out.  Bond-faithful
checks and searches are exact, so they never exit 3.  An input error is
an :class:`~finmodel.errors.InputError`, raised where the input is read
or checked; any other exception is a fault and ends in a traceback.

The evaluation budget can be overridden with the ``FM_EVAL_BUDGET``
environment variable or, per run, the ``--budget`` flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Iterable

from .combinatorics import (
    free_set,
    is_delta_system,
    is_free,
    is_maximal_for_kernel,
    make_family,
    max_sunflower,
    trace_kernel_sunflower,
)
from .corpus import generate_corpus
from .errors import InputError, read_int
from .decompose import (
    PROPERTIES,
    chain_slices,
    check_bond_faithful,
    search_bond_faithful,
    slice_partition_check,
    well_reflecting_probe,
)
from .graph import (
    bridges,
    cycle_double_cover_search,
    edge_connectivity,
    edge_disjoint_paths,
    enumerate_bonds,
    is_cycle,
    is_decomposition,
    odd_cut_witness,
    veblen_decomposition,
)
from .hull import PACKS, chain as build_chain, get_pack, hull as build_hull, verify_hull
from .oracles import (
    bond_faithful_by_definition,
    bonds_by_definition,
    bridges_by_deletion,
    double_cover_by_multisets,
    edge_connectivity_brute,
    first_bond_faithful_partition,
    is_double_cover,
    max_sunflower_by_kernels,
)
from .formula import (
    formula_to_json,
    free_vars,
    pack_from_json,
    parse,
    relativize,
    render,
    subformula_closure,
)
from .serialize import (
    canonical_dumps,
    graph_from_edge_list,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    structure_from_json,
    structure_from_matrix,
)
from .structure import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    eval_formula,
    eval_relativized,
    is_sigma_elementary,
)
from .universe import build_hierarchy, hf_rank, hf_repr

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

SCHEMA = "fm-report/1"


def _budget(args) -> int:
    if args.budget is not None:
        return int(args.budget)
    env = os.environ.get("FM_EVAL_BUDGET")
    return _read(int, env) if env else DEFAULT_BUDGET


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")


def _read(convert, obj):
    """``convert(obj)`` for input *obj*; a ValueError there is an input
    error, with the same message."""
    try:
        return convert(obj)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _json_input(source: str, text: str, convert):
    """``convert`` of the JSON *text* read from *source*, as by
    :func:`_read`.  Text that is not JSON, and JSON of the wrong shape (a
    KeyError, TypeError, AttributeError or IndexError in convert), are
    input errors naming source, not tracebacks."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON in {source}: {exc}") from None
    try:
        return _read(convert, obj)
    except KeyError as exc:
        raise InputError(f"wrong JSON shape in {source}: no key {exc}") from None
    except (TypeError, AttributeError, IndexError) as exc:
        raise InputError(f"wrong JSON shape in {source}: {exc}") from None


def _load_json(path: str, convert):
    return _json_input(path, _read_text(path), convert)


def _load_structure(path: str):
    if path.endswith(".txt"):
        return _read(structure_from_matrix, _read_text(path))
    return _load_json(path, structure_from_json)


def _load_graph(path: str):
    if path.endswith(".txt"):
        return _read(graph_from_edge_list, _read_text(path))
    return _load_json(path, graph_from_json)


def _load_pack(spec: str):
    """A comma-separated list of shipped pack names, or a JSON file."""
    names = [n.strip() for n in spec.split(",") if n.strip()]
    if names and all(n in PACKS for n in names):
        return get_pack(names)
    pack = _load_json(spec, pack_from_json)
    if not pack.closed_under_subformulas:
        pack = subformula_closure(pack)
    return pack


def _ints(text: str) -> list[int]:
    if not text:
        return []
    return [_read(int, part) for part in text.split(",") if part != ""]


def _valuation(text: str | None) -> dict[str, int]:
    values = lambda obj: {str(k): read_int(v, f"--valuation of {k!r}") for k, v in obj.items()}
    return _json_input("--valuation", text, values) if text else {}


def _edges_json(edges) -> list[list[int]]:
    return sorted([u, v] for u, v in edges)


# ---------------------------------------------------------------------------
# handlers: each returns (exit_code, result dict, *answer); a handler
# with an oracle route or a drawing puts its fast answer after the
# result, for main to judge by :data:`ROUTES`, where "validated": false
# exits 1, and to draw by :data:`DRAWINGS`


def cmd_parse(args):
    phi = parse(args.formula)
    return EXIT_OK, {
        "formula": formula_to_json(phi),
        "rendered": render(phi),
        "free_vars": free_vars(phi),
    }


def cmd_eval(args):
    N = _load_structure(args.structure)
    phi = parse(args.formula)
    valuation = _valuation(args.valuation)
    if args.relativize_to is not None:
        subset = _ints(args.relativize_to)
        value = eval_relativized(N, subset, relativize(phi), valuation, _budget(args))
    else:
        value = eval_formula(N, phi, valuation, _budget(args))
    return EXIT_OK, {"value": value}


def cmd_relativize(args):
    phi = relativize(parse(args.formula))
    return EXIT_OK, {"formula": formula_to_json(phi), "rendered": render(phi)}


def cmd_universe_dump(args):
    h = build_hierarchy(args.rank, allow_rank5=args.allow_rank5)
    limit = args.limit if args.limit is not None else h.size
    rows = [
        {"code": str(code), "rank": hf_rank(code), "set": hf_repr(code)}
        for code in range(min(limit, h.size))
    ]
    return EXIT_OK, {"rank": args.rank, "size": h.size, "elements": rows}


def _hull_json(h):
    return {
        "seed": sorted(h.seed),
        "carrier": sorted(h.carrier),
        "trace": [
            {
                "formula": render(step.formula),
                "valuation": {k: v for k, v in step.valuation},
                "witness": step.witness,
            }
            for step in h.trace
        ],
        "stats": {
            "seed_size": len(h.seed),
            "carrier_size": len(h.carrier),
            "growth": len(h.carrier) - len(h.seed),
        },
    }


def cmd_hull(args):
    N = _load_structure(args.structure)
    pack = _load_pack(args.pack)
    h = build_hull(N, pack, _ints(args.seed_elems), _budget(args))
    return EXIT_OK, _hull_json(h), N, pack, h


def cmd_chain(args):
    N = _load_structure(args.structure)
    pack = _load_pack(args.pack)
    cover = list(range(N.size)) if args.cover_elems == "all" else _ints(args.cover_elems)
    ch = build_chain(N, pack, _ints(args.seed_elems), cover, _budget(args))
    result = {
        "stages": [sorted(s) for s in ch.stages],
        "records": [
            {
                "added_cover_element": r.added_cover_element,
                "self_encoding": r.self_encoding,
                "witnesses_added": len(r.trace),
            }
            for r in ch.records
        ],
        "coherent": ch.coherent,
    }
    return EXIT_OK, result, N, pack, ch


def cmd_slice(args):
    G = _load_graph(args.graph)
    stages = _load_json(args.stages, lambda obj: [{read_int(x, f"stage {i}") for x in s} for i, s in enumerate(obj)])
    sliced = chain_slices(G, stages)
    partition = slice_partition_check(sliced)
    result = {
        "slices": [graph_to_json(s) for s in sliced.slices],
        "stage_coherent": list(sliced.stage_coherent),
        "covers_host": sliced.covers_host,
        "partition": partition,
    }
    code = EXIT_OK
    if sliced.all_coherent and sliced.covers_host and not partition:
        code = EXIT_VIOLATION
    return code, result, G, sliced


def cmd_probe(args):
    if args.corpus:
        graphs = _load_json(args.corpus, generate_corpus)
    elif args.graph:
        graphs = [_load_graph(args.graph)]
    else:
        raise InputError("probe needs --corpus or --graph")
    pack = _load_pack(args.pack)
    report = well_reflecting_probe(
        graphs, pack, args.property,
        allow_rank5=args.allow_rank5, budget=_budget(args), workers=args.workers,
    )
    result = {
        "property": report.property_name,
        "pack": report.pack_name,
        "instances": [
            {
                "index": inst.index,
                "status": inst.status,
                "pass": inst.clean,
                "rank": inst.rank,
                "candidates_tested": inst.candidates_tested,
                "counterexamples": [
                    {
                        "subset": list(c.subset),
                        "piece": c.piece,
                        "witness": c.witness,
                    }
                    for c in inst.counterexamples
                ],
            }
            for inst in report.instances
        ],
        "counterexample_count": report.counterexample_count,
    }
    code = EXIT_VIOLATION if report.counterexample_count else EXIT_OK
    return code, result


def cmd_graph_bonds(args):
    G = _load_graph(args.graph)
    bonds = enumerate_bonds(G, max_size=args.max_size)
    return EXIT_OK, {"bonds": [_edges_json(b) for b in bonds]}, G, bonds


def cmd_graph_gamma(args):
    G = _load_graph(args.graph)
    value = edge_connectivity(G, args.x, args.y)
    result = {"gamma": value}
    if args.paths:
        result["paths"] = edge_disjoint_paths(G, args.x, args.y, args.paths)
    return EXIT_OK, result, G, value, result.get("paths", [])


def cmd_graph_nw(args):
    G = _load_graph(args.graph)
    witness = odd_cut_witness(G)
    if witness is None:
        return EXIT_OK, {"nw": True, "odd_cut": None}
    return EXIT_VIOLATION, {
        "nw": False,
        "odd_cut": {"side": sorted(witness.side), "edges": _edges_json(witness.edges)},
    }


def cmd_graph_veblen(args):
    G = _load_graph(args.graph)
    outcome = veblen_decomposition(G)
    if not outcome.ok:
        return EXIT_VIOLATION, {"decomposable": False, "odd_vertex": outcome.odd_vertex}
    parts = outcome.decomposition.parts
    return EXIT_OK, {"decomposable": True, "cycles": [_edges_json(p.edges) for p in parts]}, G, parts


def cmd_graph_bridges(args):
    G = _load_graph(args.graph)
    found = bridges(G)
    return EXIT_OK, {"bridges": [_edges_json([e])[0] for e in found]}, G, found


def cmd_graph_dcc(args):
    G = _load_graph(args.graph)
    outcome = cycle_double_cover_search(G, budget=args.search_budget)
    result = {"status": outcome.status}
    if outcome.status == "found":
        result["cycles"] = [_edges_json(c) for c in outcome.cycles]
    if outcome.status == "budget-exhausted":
        return EXIT_BUDGET, result
    return (EXIT_OK if outcome.status == "found" else EXIT_VIOLATION), result, G, outcome


def cmd_bondfaithful_check(args):
    G = _load_graph(args.graph)
    parts = _load_json(args.parts, lambda obj: [graph_from_json(p) for p in obj])
    report = check_bond_faithful(G, parts, args.kappa)
    return (EXIT_OK if report.verdict else EXIT_VIOLATION), _bond_report_json(report), G, parts, report


def _bond_report_json(report):
    return {
        "kappa": report.kappa,
        "verdict": report.verdict,
        "size_ok": report.size_ok,
        "containment_ok": report.containment_ok,
        "bond_preservation_ok": report.bond_preservation_ok,
        "oversized_members": list(report.oversized_members),
        "split_bonds": [_edges_json(b) for b in report.split_bonds],
        "foreign_bonds": [
            {"member": i, "bond": _edges_json(b)} for i, b in report.foreign_bonds
        ],
        "sampled": report.sampled,
    }


def cmd_bondfaithful_search(args):
    G = _load_graph(args.graph)
    outcome = search_bond_faithful(G, args.kappa)
    result = {"status": outcome.status}
    if outcome.decomposition is not None:
        result["parts"] = [graph_to_json(p) for p in outcome.decomposition.parts]
        result["report"] = _bond_report_json(outcome.report)
        return EXIT_OK, result, G, outcome
    return EXIT_VIOLATION, result, G, outcome


def cmd_sunflower(args):
    family = _load_json(args.family, make_family)
    if args.action == "find":
        kernel = is_delta_system(family)
        return EXIT_OK, {
            "is_delta_system": kernel is not None,
            "kernel": sorted(kernel) if kernel is not None else None,
        }
    if args.action == "max":
        system = max_sunflower(family, args.petals)
        if system is None:
            return EXIT_VIOLATION, {"found": False}
    else:
        mset = _load_json(args.m, lambda obj: _kernel_set(family, obj)) if args.m else set()
        system = trace_kernel_sunflower(family, mset)
    return EXIT_OK, _system_json(system), family, system


def _kernel_set(family, obj) -> set:
    """The --m file's elements, and the family members it names by index."""
    mset = {read_int(x, "the elements list") for x in obj.get("elements", [])}
    for idx in obj.get("members", []):
        idx = read_int(idx, "the members list")
        if not 0 <= idx < len(family.sets):
            raise IndexError(f"no member {idx} in a family of {len(family.sets)} sets")
        mset.add(family.sets[idx])
    return mset


def _system_json(system):
    return {
        "indices": list(system.indices),
        "members": [sorted(m) for m in system.members],
        "kernel": sorted(system.kernel),
        "degenerate": system.degenerate,
    }


def cmd_freeset(args):
    mapping = _load_json(args.map, lambda obj: {
        read_int(k, "the map"): frozenset(read_int(x, f"image of {k!r}") for x in v) for k, v in obj.items()
    })
    ground = _ints(args.ground) if args.ground else sorted(mapping)
    for x in ground:
        if x not in mapping:
            raise InputError(f"--ground element {x} is not a key of --map {args.map}")
    report = free_set(ground, mapping)
    result = {
        "chosen": sorted(report.chosen),
        "size": len(report.chosen),
        "maximum_size": report.maximum_size,
    }
    return EXIT_OK, result, report.chosen, mapping


def cmd_corpus_gen(args):
    if args.spec:
        spec, graphs = _load_json(args.spec, lambda spec: (spec, generate_corpus(spec)))
    else:
        generator = {"model": args.model, "n": args.n, "count": args.count}
        for key in ("p", "d", "cycles"):
            if getattr(args, key) is not None:
                generator[key] = getattr(args, key)
        spec = {"generator": generator, "seed": args.seed}
        graphs = generate_corpus(spec)
    return EXIT_OK, {"spec": spec, "graphs": [graph_to_json(g) for g in graphs]}


# ---------------------------------------------------------------------------
# oracle routes: ``fm <command> --validate`` sets ``"validated"`` to the
# route's verdict on the handler's fast answer; a route reads its oracles
# from this module's names when it runs


def _bonds_route(args, G, bonds) -> bool:
    expected = bonds_by_definition(G)
    if args.max_size is not None:
        expected = [b for b in expected if len(b) <= args.max_size]
    want = sorted(sorted(map(list, b)) for b in expected)
    return want == sorted(sorted(map(list, b)) for b in bonds)


def _dcc_route(args, G, outcome) -> bool:
    exists = double_cover_by_multisets(G) is not None
    return exists == (outcome.status == "found") and (
        not exists or is_double_cover(G, outcome.cycles)
    )


def _gamma_route(args, G, value, paths) -> bool:
    """γ by brute force, and the paths asked for: that many x-y walks
    along edges of G, no edge used twice."""
    steps = [(min(u, v), max(u, v)) for path in paths for u, v in zip(path, path[1:])]
    return (
        value == edge_connectivity_brute(G, args.x, args.y)
        and len(paths) == (args.paths or 0)
        and all(path[:1] == [args.x] and path[-1:] == [args.y] for path in paths)
        and set(steps) <= G.edges
        and len(set(steps)) == len(steps)
    )


def _sunflower_route(args, family, system) -> bool:
    if args.action == "max":
        return max_sunflower_by_kernels(family).indices == system.indices
    ok = is_delta_system(system.members) is not None or len(system.members) < 2
    return ok and is_maximal_for_kernel(family, system)


ROUTES = {
    "hull": lambda args, N, pack, h: verify_hull(N, pack, h, _budget(args)),
    "chain": lambda args, N, pack, ch: all(
        [bool(is_sigma_elementary(stage, N, pack, _budget(args))) for stage in ch.stages]
    ),
    "graph bonds": _bonds_route,
    "graph gamma": _gamma_route,
    "graph veblen": lambda args, G, parts: is_decomposition(G, parts) and all(map(is_cycle, parts)),
    "graph bridges": lambda args, G, found: found == bridges_by_deletion(G),
    "graph dcc": _dcc_route,
    "bondfaithful check": lambda args, G, parts, report: (
        report.verdict == bond_faithful_by_definition(G, parts, args.kappa)
    ),
    "bondfaithful search": lambda args, G, outcome: (
        (first_bond_faithful_partition(G, args.kappa) is None) == (outcome.status == "proven-absent")
        and (outcome.decomposition is None
             or bond_faithful_by_definition(G, outcome.decomposition.parts, args.kappa))
    ),
    "sunflower": _sunflower_route,
    "freeset": lambda args, chosen, mapping: is_free(chosen, mapping),
}

# ``fm --format dot`` draws these leaves' answers, as a graph and its
# parts, where there are parts and they validate; any other answer of
# theirs prints as its report, and any other leaf is a usage error
DRAWINGS = {
    "slice": lambda G, sliced: (G, sliced.slices),
    "graph veblen": lambda G, parts: (G, parts),
    "bondfaithful search": lambda G, outcome: outcome.decomposition and (G, outcome.decomposition.parts),
}


# ---------------------------------------------------------------------------
# argument wiring


# The subcommands in the order help lists them.  A group is its help and
# the table of its own subcommands; a leaf is its help (None lists it
# without one), its handler and its options in order, each a flag with
# the keywords of ``add_argument``.  A leaf whose full name is in
# :data:`ROUTES` also takes ``--validate``, as its last option.
_SUBCOMMANDS: dict = {
    "parse": ("parse a formula", cmd_parse, ("--formula", dict(required=True))),
    "eval": ("evaluate a formula over a structure", cmd_eval,
        ("--structure", dict(required=True)),
        ("--formula", dict(required=True)),
        ("--valuation", dict(help='JSON object, e.g. {"x": 0}')),
        ("--relativize-to", dict(help="comma list of elements; relativize and bound quantifiers to it"))),
    "relativize": ("bound every quantifier to the distinguished subset", cmd_relativize,
        ("--formula", dict(required=True))),
    "universe": ("hereditarily finite universe views", {
        "dump": ("list rank / code / set notation", cmd_universe_dump,
            ("--rank", dict(type=int, required=True)),
            ("--limit", dict(type=int)),
            ("--allow-rank5", dict(action="store_true"))),
    }),
    "hull": ("witness-closure hull of a seed", cmd_hull,
        ("--structure", dict(required=True)),
        ("--pack", dict(required=True)),
        ("--seed-elems", dict(default=""))),
    "chain": ("increasing hull chain reaching a cover", cmd_chain,
        ("--structure", dict(required=True)),
        ("--pack", dict(required=True)),
        ("--seed-elems", dict(default="")),
        ("--cover-elems", dict(default="all"))),
    "slice": ("slice a code-labelled graph along stages", cmd_slice,
        ("--graph", dict(required=True)),
        ("--stages", dict(required=True, help="JSON file: list of code lists"))),
    "probe": ("reflection probe over a corpus", cmd_probe,
        ("--corpus", dict(help="corpus spec JSON file")),
        ("--graph", dict(help="single graph file instead of a corpus")),
        ("--pack", dict(required=True)),
        ("--property", dict(required=True, choices=sorted(PROPERTIES))),
        ("--allow-rank5", dict(action="store_true")),
        ("--workers", dict(type=int, default=1))),
    "graph": ("graph analysis", {
        "bonds": (None, cmd_graph_bonds,
            ("--graph", dict(required=True)),
            ("--max-size", dict(type=int))),
        "gamma": (None, cmd_graph_gamma,
            ("--graph", dict(required=True)),
            ("--x", dict(type=int, required=True)),
            ("--y", dict(type=int, required=True)),
            ("--paths", dict(type=int))),
        "nw": (None, cmd_graph_nw,
            ("--graph", dict(required=True)),
            # both modes answer alike, by degree parity; the flag is kept
            # because the benchmark's fm-cli workload passes --mode exhaustive
            ("--mode", dict(choices=["fast", "exhaustive"], default="fast"))),
        "veblen": (None, cmd_graph_veblen, ("--graph", dict(required=True))),
        "bridges": (None, cmd_graph_bridges, ("--graph", dict(required=True))),
        "dcc": (None, cmd_graph_dcc,
            ("--graph", dict(required=True)),
            ("--search-budget", dict(type=int, default=200_000))),
    }),
    "bondfaithful": ("bond-faithful decompositions", {
        "check": (None, cmd_bondfaithful_check,
            ("--graph", dict(required=True)),
            ("--parts", dict(required=True, help="JSON file: list of graph objects")),
            ("--kappa", dict(type=int, required=True))),
        "search": (None, cmd_bondfaithful_search,
            ("--graph", dict(required=True)),
            ("--kappa", dict(type=int, required=True))),
    }),
    "sunflower": ("delta-system finders", cmd_sunflower,
        ("action", dict(choices=["find", "max", "trace"])),
        ("--family", dict(required=True, help="JSON file: list of element lists")),
        ("--petals", dict(type=int)),
        ("--m", dict(help="JSON file: {elements: [...], members: [indices]}"))),
    "freeset": ("greedy free set for a set mapping", cmd_freeset,
        ("--map", dict(required=True, help="JSON file: {element: [image...]}")),
        ("--ground", dict(help="comma list; defaults to the mapping keys"))),
    "corpus": ("corpus generation", {
        "gen": (None, cmd_corpus_gen,
            ("--spec", dict(help="corpus spec JSON file")),
            ("--model", dict(choices=["gnp", "regular", "union-of-cycles"], default="gnp")),
            ("--n", dict(type=int, default=6)),
            ("--count", dict(type=int, default=1)),
            ("--p", dict(type=float)),
            ("--d", dict(type=int)),
            ("--cycles", dict(type=int)),
            ("--seed", dict(type=int, default=0))),
    }),
}


def _parser(built: bool = True, **kwargs) -> argparse.ArgumentParser | None:
    # a subcommand the command line does not name is listed, but its
    # parser is never made: argparse reads the parser of a name only
    # when it runs that name
    return argparse.ArgumentParser(**kwargs) if built else None


def _add_subcommands(parser, table: dict, dest: str, words, group: str = "") -> None:
    sub = parser.add_subparsers(dest=dest, required=True, parser_class=_parser)
    for name, (text, body, *options) in table.items():
        listed = {} if text is None else {"help": text}
        p = sub.add_parser(name, built=words is None or name in words, **listed)
        if p is None:
            continue
        if isinstance(body, dict):
            _add_subcommands(p, body, "action", words, f"{name} ")
            continue
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        if group + name in ROUTES:
            p.add_argument("--validate", action="store_true")
        p.set_defaults(handler=body, route=group + name, validate=False)


def build_parser(words: Iterable[str] | None = None) -> argparse.ArgumentParser:
    """The parser of ``fm``.  Given the command line *words*, only the
    subcommands named among them are built, which includes the one it
    runs; the others are listed, so every help and usage message is the
    same as the full parser's, which is built without *words*."""
    top = argparse.ArgumentParser(
        prog="fm",
        description="workbench for finite structures, hulls and graph decomposition",
    )
    top.add_argument("--budget", type=int, help="evaluation step budget")
    top.add_argument("--format", choices=["json", "dot", "text"], default="json")
    _add_subcommands(top, _SUBCOMMANDS, "command", None if words is None else set(words))
    return top


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches the contract
        return int(exc.code or 0)
    if args.format == "dot" and args.route not in DRAWINGS:
        print(f"fm: error: --format dot draws only {', '.join(DRAWINGS)}, not {args.route}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code, result, *answer = args.handler(args)
        if answer and args.validate:
            result["validated"] = ROUTES[args.route](args, *answer)
    except BudgetExceededError as exc:
        print(f"fm: budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InputError as exc:  # ParseError and EvalError among them
        print(f"fm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    drawn = args.format == "dot" and answer and DRAWINGS[args.route](*answer)
    if not result.get("validated", True):
        code = EXIT_VIOLATION
    elif drawn:
        sys.stdout.write(graph_to_dot(*drawn))
        return code
    report = {"schema": SCHEMA, "command": args.command, "result": result}
    try:  # both writers recurse once per nesting level of the report
        text = _to_text(report) + "\n" if args.format == "text" else canonical_dumps(report)
    except RecursionError:
        limit = sys.getrecursionlimit()
        print(f"fm: error: the report nests past the recursion limit of {limit}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(text)
    return code


def _to_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, (dict, list)):
        if isinstance(obj, dict):
            items = [(f"{key}:", obj[key]) for key in sorted(obj)]
        else:
            items = [("-", value) for value in obj]
        lines = []
        for label, value in items:
            if isinstance(value, (dict, list)) and value:
                lines += [pad + label, _to_text(value, indent + 1)]
            else:
                lines.append(f"{pad}{label} {_scalar(value)}")
        return "\n".join(lines)
    return f"{pad}{_scalar(obj)}"


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return str(value)


if __name__ == "__main__":
    raise SystemExit(main())
