"""Spans around calls into finmodel's public functions, and the
per-layer metrics made from them.

:class:`Tracer` replaces every public function of every finmodel module
with a wrapper, wherever a finmodel module holds a reference to it: in
its home module, in modules that import it (``is_bond`` as
``finmodel.decompose`` sees it), under an alias (``chain`` as
``build_chain`` in the CLI) and in the package namespace.  Each call
then records a span: id, parent span, name, start, end and the item it
belongs to.  Spans stay in memory until the run ends.

Not wrapped: private functions (``structure._compile``), classes and
their methods, generator functions (a span would end before the work),
and the leaf helpers in ``SKIP``, which run in well under a microsecond
and would mostly time the wrapper.  A recursive call of a function
already on the span stack records no span of its own.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time
from collections import defaultdict

MODULES = (
    "formula", "structure", "universe", "hull", "graph", "decompose",
    "combinatorics", "oracles", "corpus", "serialize", "cli",
)
SKIP = {
    "graph.edge", "universe.hf_members", "universe.hf_contains",
    "universe.hf_encode", "universe.hf_pair", "universe.hf_rank",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = [0]
        self.active: dict[str, int] = defaultdict(int)
        self.ids = itertools.count(1)
        self.item = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.wrapped: set[str] = set()
        self._restore: list[tuple] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        modules = [sys.modules["finmodel"]] + [sys.modules[f"finmodel.{m}"] for m in MODULES]
        originals = {}
        for mod in modules[1:]:
            for obj in vars(mod).values():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not obj.__name__.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    name = f"{mod.__name__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    if name not in SKIP:
                        originals[id(obj)] = (obj, name)
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in originals.items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and originals[id(obj)][0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        self.wrapped = {name for _, name in originals.values()}

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def _wrap(self, fn, name):
        post = POST.get(name)
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter
        ids = self.ids
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[name]:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                spans.append((sid, parent, name, start, end, tracer.item))
            if post is not None:
                post(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- summaries --------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """Per function: calls, busy seconds (inclusive) and self seconds
        (the span minus the time its child spans cover)."""
        child = defaultdict(float)
        for sid, parent, name, start, end, item in self.spans:
            child[parent] += end - start
        rows: dict[str, dict[str, float]] = {}
        for sid, parent, name, start, end, item in self.spans:
            row = rows.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child[sid]
        return rows


# ---------------------------------------------------------------------------
# counts taken from arguments and results at layer boundaries


def _nodes(phi) -> int:
    total, todo = 0, [phi]
    while todo:
        node = todo.pop()
        total += 1
        for attr in ("body", "left", "right"):
            sub = getattr(node, attr, None)
            if sub is not None and type(sub).__name__ not in ("Var", "Const"):
                todo.append(sub)
    return total


def _count(key, fn):
    def post(tracer, args, kwargs, result):
        tracer.counts[key] += fn(args, kwargs, result)
    return post


def _valuations_tried(args, kwargs, result):
    """is_absolute tries valuations in lexicographic order up to the
    first disagreement."""
    M, N, phi = args[:3]
    members = sorted(set(M))
    free_vars = sys.modules["finmodel.formula"].free_vars
    names = getattr(free_vars, "__wrapped__", free_vars)(phi)
    if result.ok:
        return len(members) ** len(names)
    position = {m: i for i, m in enumerate(members)}
    index = 0
    for name in names:
        index = index * len(members) + position[result.counterexample[name]]
    return index + 1


def _in_search(tracer, args, kwargs, result):
    if tracer.active["decompose.search_bond_faithful"]:
        tracer.counts["search.checks"] += 1


def _chain_counts(tracer, args, kwargs, result):
    tracer.counts["trace_steps"] += sum(len(r.trace) for r in result.records)
    tracer.counts["chain_stages"] += len(result.stages)


def _search_status(tracer, args, kwargs, result):
    tracer.counts[f"search.{result.status}"] += 1


POST = {
    "formula.parse": _count("parse.nodes", lambda a, k, r: _nodes(r)),
    "structure.is_absolute": _count("valuations", _valuations_tried),
    "structure.eval_relativized": _count("valuations", lambda a, k, r: 1),
    "structure.eval_formula": _count("valuations", lambda a, k, r: 1),
    "universe.membership_structure": _count("ambient_elements", lambda a, k, r: r.size),
    "hull.hull": _count("trace_steps", lambda a, k, r: len(r.trace)),
    "hull.chain": _chain_counts,
    "graph.enumerate_bonds": _count("bonds_found", lambda a, k, r: len(r)),
    "decompose.check_bond_faithful": _in_search,
    "decompose.search_bond_faithful": _search_status,
    "serialize.canonical_dumps": _count("report_bytes", lambda a, k, r: len(r.encode())),
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tracer: Tracer, extra: dict[str, float]) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Every per-layer metric as (value, unit), and the names of the
    functions the metrics refer to that this finmodel does not have."""
    rows = tracer.table()
    counts = tracer.counts
    absent = []

    def row(name):
        if name not in tracer.wrapped:
            absent.append(name)
        return rows.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})

    def calls(name):
        return (float(row(name)["calls"]), "count")

    def busy(name):
        return (row(name)["busy_s"], "s")

    eval_busy = sum(row(n)["busy_s"] for n in ("structure.is_absolute", "structure.eval_relativized", "structure.eval_formula"))
    hull_busy = row("hull.hull")["busy_s"] + row("hull.chain")["busy_s"]
    searches = row("decompose.search_bond_faithful")["calls"]
    m: dict[str, tuple[float, str]] = {
        "formula.parse.calls": calls("formula.parse"),
        "formula.parse.busy_s": busy("formula.parse"),
        "formula.parse.nodes_per_s": (_ratio(counts["parse.nodes"], row("formula.parse")["busy_s"]), "1/s"),
        "formula.relativize.busy_s": busy("formula.relativize"),
        "formula.subformula_closure.busy_s": busy("formula.subformula_closure"),
        "structure.is_absolute.calls": calls("structure.is_absolute"),
        "structure.is_absolute.busy_s": busy("structure.is_absolute"),
        "structure.eval_relativized.calls": calls("structure.eval_relativized"),
        "structure.eval_relativized.busy_s": busy("structure.eval_relativized"),
        "structure.is_sigma_elementary.busy_s": busy("structure.is_sigma_elementary"),
        "structure.valuations": (counts["valuations"], "count"),
        "structure.valuations_per_s": (_ratio(counts["valuations"], eval_busy), "1/s"),
        "universe.recode_graph.busy_s": busy("universe.recode_graph"),
        "universe.membership_structure.busy_s": busy("universe.membership_structure"),
        "universe.ambient_elements": (counts["ambient_elements"], "count"),
        "hull.hull.calls": calls("hull.hull"),
        "hull.hull.busy_s": busy("hull.hull"),
        "hull.chain.calls": calls("hull.chain"),
        "hull.chain.busy_s": busy("hull.chain"),
        "hull.verify_hull.busy_s": busy("hull.verify_hull"),
        "hull.trace_steps": (counts["trace_steps"], "count"),
        "hull.chain_stages": (counts["chain_stages"], "count"),
        "hull.trace_steps_per_s": (_ratio(counts["trace_steps"], hull_busy), "1/s"),
        "graph.enumerate_bonds.calls": calls("graph.enumerate_bonds"),
        "graph.enumerate_bonds.busy_s": busy("graph.enumerate_bonds"),
        "graph.bonds_found": (counts["bonds_found"], "count"),
        "graph.us_per_bond": (1e6 * _ratio(row("graph.enumerate_bonds")["busy_s"], counts["bonds_found"]), "us"),
        "graph.is_bond.calls": calls("graph.is_bond"),
        "graph.is_bond.busy_s": busy("graph.is_bond"),
        "graph.restrict.busy_s": busy("graph.restrict"),
        "graph.delete_edges.busy_s": busy("graph.delete_edges"),
        "decompose.check_bond_faithful.calls": calls("decompose.check_bond_faithful"),
        "decompose.check_bond_faithful.busy_s": busy("decompose.check_bond_faithful"),
        "decompose.search_bond_faithful.calls": calls("decompose.search_bond_faithful"),
        "decompose.search_bond_faithful.busy_s": busy("decompose.search_bond_faithful"),
        "decompose.search.checks_per_search": (_ratio(counts["search.checks"], searches), "ratio"),
        "decompose.search.found": (counts["search.found"], "count"),
        "decompose.search.proven_absent": (counts["search.proven-absent"], "count"),
        "decompose.slices_from_chain.busy_s": busy("decompose.slices_from_chain"),
        "cli.interpreter_s": (extra.get("cli.interpreter_s", 0.0), "s"),
        "cli.import_s": (extra.get("cli.import_s", 0.0), "s"),
        "cli.main.busy_s": busy("cli.main"),
        "cli.process_s": (extra.get("cli.process_s", 0.0), "s"),
        "serialize.canonical_dumps.busy_s": busy("serialize.canonical_dumps"),
        "serialize.report_bytes": (counts["report_bytes"], "bytes"),
    }
    for module in MODULES:
        m[f"{module}.self_s"] = (sum(r["self_s"] for n, r in rows.items() if n.split(".")[0] == module), "s")
    for key in ("trace.untraced_s", "trace.traced_s", "trace.overhead_pct"):
        m[key] = (extra.get(key, 0.0), "%" if key.endswith("pct") else "s")
    m["host.kernel_ms"] = (extra.get("host.kernel_ms", 0.0), "ms")
    return m, sorted(set(absent))
