"""Witness-closure hulls and increasing chains of them.

A hull is the least superset of a seed that is closed under the witness
step: whenever an existential formula from the pack holds in the host
with parameters from the current set, the smallest witness joins the
set.  For a subformula-closed pack this certifies elementarity of the
carrier for every pack member (the Tarski-Vaught argument), which the
tests re-verify by brute enumeration.

The closure is semi-naive (Bancilhon and Ramakrishnan, "An Amateur's
Introduction to Recursive Query Processing Strategies", SIGMOD 1986).
Each round sweeps the pack's existentials in order, each over the
valuations of its free variables into the current set in lexicographic
order, and a sweep enumerates only the valuations that touch an element
added since the existential's previous sweep, in the order a full sweep
would reach them.  That is exact: every valuation it skips was searched
in an earlier sweep, against the same host, and its witness joined the
set then, so a full sweep would add nothing there.  The trace, the
carrier and the steps charged are those of a closure that sweeps every
valuation each round and searches each one only the first time.  The
memory of the sweeps lasts a whole chain, whose every stage starts from
a superset of the previous one, so each (formula, valuation) pair is
searched at most once per hull or chain.

A sweep is one call of the existential's batched witness search over
all its fresh valuations.  The search returns the valuations at which
the existential holds, in order, with their smallest witnesses; those
not yet in the set join it, and the trace, in that order, as they would
had each valuation been searched alone, since a witness joining the set
changes neither the host nor the valuations of the sweep under way.

The closure is bounded.  A search of an existential phi with k free
variables charges at most ``B(phi, |N|)`` steps per valuation (see
:mod:`finmodel.structure`), and a hull or chain searches each of its
``|N|**k`` valuations at most once, so it charges at most the sum over
the pack's existentials of ``|N|**k * B(phi, |N|)``.  Where that fits
the budget, the searches run unmetered for the whole call.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, NamedTuple, Union

from .errors import InputError
from .formula import (
    Exists,
    Formula,
    FormulaPack,
    is_subformula_closed,
    parse,
    subformula_closure,
)
from .structure import (
    DEFAULT_BUDGET,
    Budget,
    EvalError,
    FinStructure,
    _record,
    is_sigma_elementary,
)
from .universe import Hierarchy, hf_encode


class TraceStep(NamedTuple):
    """One element added during closure: which existential fired, under
    which valuation, and which witness was chosen."""

    formula: Formula
    valuation: tuple[tuple[str, int], ...]
    witness: int


class Hull(NamedTuple):
    seed: frozenset[int]
    carrier: frozenset[int]
    trace: tuple[TraceStep, ...]


class StageRecord(NamedTuple):
    added_cover_element: int | None
    self_encoding: str  # added | overflow | not-hierarchy | initial
    seed: frozenset[int]
    trace: tuple[TraceStep, ...]


class Chain(NamedTuple):
    stages: tuple[frozenset[int], ...]
    pack: FormulaPack
    records: tuple[StageRecord, ...]
    coherent: bool | None  # None when the ambient carries no set codes


def _ambient(N: Union[FinStructure, Hierarchy]) -> FinStructure:
    return N.structure if isinstance(N, Hierarchy) else N


class _WitnessOracle:
    """The pack's existentials over one host: each one's witness search,
    from its compiled-formula record, and the sorted elements its last
    sweep drew valuations from (None before its first sweep).  That
    memory makes :func:`_close` semi-naive; a chain shares one oracle
    between its stages."""

    def __init__(self, N: FinStructure, pack: FormulaPack, budget: int):
        self.N = N
        self.budget = Budget(budget)
        self.exists = [phi for phi in pack.formulas if isinstance(phi, Exists)]
        records = [_record(phi) for phi in self.exists]
        self.names = [cf.free_vars for cf in records]
        for cf in records:
            cf.require_scope(None)  # a relativized formula has no search
            for c in cf.constants:
                if not (0 <= c < N.size):
                    raise EvalError(f"dangling constant #{c}")
        m = N.size  # the closure bound: each valuation is searched once
        covered = sum(m ** len(cf.free_vars) * cf.bound(m) for cf in records) <= budget
        # each search(N, budget, valuations), bound once to its constants
        self.searches = [functools.partial(cf.variant("search", not covered), cf.constants) for cf in records]
        self.swept: list[list[int] | None] = [None] * len(self.exists)


def _fresh_valuations(ordered: list[int], new: set[int], k: int) -> Iterable[tuple[int, ...]]:
    """The k-tuples over *ordered* that hold an element of *new*, in the
    order ``itertools.product(ordered, repeat=k)`` yields them: after an
    old first element the rest must hold a new one, after a new one the
    rest is free.

    They come in runs, each the product of a few pools: one element per
    position of an old prefix, then a new element and free positions, or
    the new elements last.  The runs for the rests of each length are
    listed once, from those one shorter, and the tuples are made by
    ``itertools.product`` as they are read."""
    if k == 0:
        return ()
    runs = [([a for a in ordered if a in new],)]
    for length in range(1, k):
        free = (ordered,) * length
        runs = [((a,), *run) for a in ordered for run in ([free] if a in new else runs)]
    return itertools.chain.from_iterable(itertools.starmap(itertools.product, runs))


def _close(
    seed: frozenset[int],
    oracle: _WitnessOracle,
    trace: list[TraceStep],
) -> frozenset[int]:
    current = set(seed)
    N, budget = oracle.N, oracle.budget
    changed = True
    while changed:
        changed = False
        for idx, (phi, names, search) in enumerate(zip(oracle.exists, oracle.names, oracle.searches)):
            swept = oracle.swept[idx]
            if swept is not None:
                new = current.difference(swept)
                if not new:
                    continue
            ordered = oracle.swept[idx] = sorted(current)
            if swept is None:
                valuations = itertools.product(ordered, repeat=len(names))
            else:
                valuations = _fresh_valuations(ordered, new, len(names))
            # one search per sweep; its witnesses join in valuation order
            for values, w in search(N, budget, valuations):
                if w not in current:
                    current.add(w)
                    trace.append(TraceStep(phi, tuple(zip(names, values)), w))
                    changed = True
    return frozenset(current)


def hull(
    N: Union[FinStructure, Hierarchy],
    pack: FormulaPack,
    seed: Iterable[int],
    budget: int = DEFAULT_BUDGET,
) -> Hull:
    """Least witness-closed superset of the seed: the first stage of
    :func:`chain` with an empty cover.

    Deterministic (smallest-identifier witnesses), monotone in the seed,
    and sound: the carrier is elementary in the host for every formula
    of the pack.
    """
    stages, records = _stages(N, pack, seed, (), budget)
    return Hull(records[0].seed, stages[0], records[0].trace)


def verify_hull(
    N: Union[FinStructure, Hierarchy],
    pack: FormulaPack,
    h: Hull,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Independent re-check: trace replay rebuilds the carrier and the
    carrier is elementary for the whole pack."""
    structure = _ambient(N)
    rebuilt = set(h.seed)
    for step in h.trace:
        if any(v not in rebuilt for _, v in step.valuation):
            return False
        rebuilt.add(step.witness)
    if frozenset(rebuilt) != h.carrier:
        return False
    return bool(is_sigma_elementary(h.carrier, structure, pack, budget))


def chain(
    N: Union[FinStructure, Hierarchy],
    pack: FormulaPack,
    seed: Iterable[int],
    cover: Iterable[int],
    budget: int = DEFAULT_BUDGET,
) -> Chain:
    """Strictly increasing hulls whose last stage contains the cover.

    Each step seeds the next hull with the previous stage, the smallest
    cover element still missing, and (over a hierarchy, when it fits in
    rank) the code of the previous stage itself, so a stage is an
    element of its successor whenever the finite universe allows it.
    """
    stages, records = _stages(N, pack, seed, cover, budget)
    return Chain(tuple(stages), pack, tuple(records), _chain_coherent(_ambient(N), stages))


def _stages(N, pack, seed, cover, budget) -> tuple[list[frozenset[int]], list[StageRecord]]:
    """The stages of :func:`chain`, from its arguments, and their records."""
    structure = _ambient(N)
    if not pack.closed_under_subformulas or not is_subformula_closed(pack):
        raise InputError("pack must be closed under subformulas; call subformula_closure first")
    seed_set, cover_set = frozenset(seed), frozenset(cover)
    for kind, elements in (("seed", seed_set), ("cover", cover_set)):
        for c in elements:
            if not (0 <= c < structure.size):
                raise InputError(f"{kind} element {c} outside the universe")
    oracle = _WitnessOracle(structure, pack, budget)
    trace: list[TraceStep] = []
    stages = [_close(seed_set, oracle, trace)]
    records = [StageRecord(None, "initial", seed_set, tuple(trace))]
    while not cover_set <= stages[-1]:
        previous = stages[-1]
        nxt = min(cover_set - previous)
        seed_next = set(previous) | {nxt}
        encoding = "not-hierarchy"
        if isinstance(N, Hierarchy):
            code = hf_encode(previous)
            if code < structure.size:
                seed_next.add(code)
                encoding = "added"
            else:
                encoding = "overflow"
        trace = []
        frozen_seed = frozenset(seed_next)
        stage = _close(frozen_seed, oracle, trace)
        stages.append(stage)
        records.append(StageRecord(nxt, encoding, frozen_seed, tuple(trace)))
    return stages, records


def _chain_coherent(structure: FinStructure, stages: list[frozenset[int]]) -> bool | None:
    """Two-element-set coherence of every stage, judged through the
    ambient codes: a pair object belongs to a stage exactly when both of
    its members do.  None when the ambient carries no codes."""
    if structure.codes is None:
        return None
    index = {c: i for i, c in enumerate(structure.codes)}
    pair_objects = []
    for i, code in enumerate(structure.codes):
        if bin(code).count("1") == 2:
            high = code.bit_length() - 1
            low = (code & -code).bit_length() - 1
            if high in index and low in index:
                pair_objects.append((i, index[low], index[high]))
    for stage in stages:
        for obj, a, b in pair_objects:
            if (obj in stage) != (a in stage and b in stage):
                return False
    return True


# ---------------------------------------------------------------------------
# shipped packs

_SINGLETON = "(Aq ((q in w) -> (q = x)) & (x in w))"
_DOUBLETON = "(Aq ((q in w) -> ((q = x) | (q = y))) & ((x in w) & (y in w)))"
_IS_PAIR_OF = f"((Aw ((w in p) -> ({_SINGLETON} | {_DOUBLETON}))) & ((Ew ({_SINGLETON} & (w in p))) & (Ew ({_DOUBLETON} & (w in p)))))"

PACKS: dict[str, tuple[str, ...]] = {
    # smallest set containing two given elements; over set codes the
    # witness for two vertices is exactly the pair object joining them
    "pairing": ("Ez ((x in z) & (y in z))",),
    # two distinct members of a set; pulls both endpoints out of an edge
    "members": ("Eu (Ev (((u in s) & (v in s)) & ~(u = v)))",),
    # the exact union of a set's members
    "union": (
        "Eu (Aw (((w in u) -> (Et ((t in z) & (w in t)))) & ((Et ((t in z) & (w in t))) -> (w in u))))",
    ),
    # the exact successor x | {x}
    "successor": (
        "Ey (Aw (((w in y) -> ((w in x) | (w = x))) & (((w in x) | (w = x)) -> (w in y))))",
    ),
    # value of a set-of-ordered-pairs function at a point
    "evaluation": (f"Ey (Ep ((p in g) & {_IS_PAIR_OF}))",),
    # a two-step connection through shared containers, plus the
    # endpoint extractor; the workhorse for slicing experiments
    "path-existence": (
        "Ew ((Ee ((x in e) & (w in e))) & (Ed ((w in d) & (y in d))))",
        "Eu (Ev (((u in s) & (v in s)) & ~(u = v)))",
    ),
    # something with no member exists
    "empty-set": ("Ex (Ay ~(y in x))",),
}


def get_pack(names: str | Iterable[str]) -> FormulaPack:
    """Build a subformula-closed pack from shipped pack names.

    Accepts a single name, a comma-separated string, or an iterable of
    names; formulas keep the order the names were given in.  Each list
    of names is parsed and closed once; the frozen pack is shared.
    """
    if isinstance(names, str):
        names = [n.strip() for n in names.split(",") if n.strip()]
    return _shipped_pack(tuple(names))


@functools.lru_cache(maxsize=None)
def _shipped_pack(names: tuple[str, ...]) -> FormulaPack:
    formulas = []
    for name in names:
        if name not in PACKS:
            raise KeyError(f"unknown pack {name!r}; available: {sorted(PACKS)}")
        formulas.extend(parse(text) for text in PACKS[name])
    pack = FormulaPack("+".join(names) or "empty", tuple(formulas))
    return subformula_closure(pack)
