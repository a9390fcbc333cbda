"""Golden digest for witness-closure hulls and chains.

Every shipped pack, and the ``pairing,members`` pack the slicing
experiments use, is closed over seeded membership ambients of graphs on
2-5 vertices, the hierarchies V_3 and V_4 and random structures, at
each budget from 0 to 80 steps and at the default budget.  The outcome
of each ``hull`` and ``chain`` call (carrier, trace, stages, stage
records and coherence, or the exception class and message) goes into
one SHA-256 digest, recorded from the closure that enumerated every
valuation in every round and answered repeats from a cache.  A change
to the order in which witnesses join, or to the steps a closure spends,
changes the digest.  Only public names are used, so the test runs
against any version of the closure.
"""

import hashlib
import json

from finmodel.corpus import gnp_graph, random_structure
from finmodel.errors import InputError
from finmodel.formula import render
from finmodel.hull import PACKS, chain, get_pack, hull
from finmodel.structure import BudgetExceededError
from finmodel.universe import build_hierarchy, membership_structure, recode_graph

from conftest import seeded

BUDGETS = list(range(81)) + [None]
PACK_NAMES = sorted(PACKS) + ["pairing,members"]


def _cases():
    """(label, host, seed, cover) with host a structure or a hierarchy."""
    rng = seeded(1729)
    for n in (2, 3, 4, 5):
        for _ in range(2):
            _, codes = recode_graph(gnp_graph(n, 0.6, rng))
            N = membership_structure(codes.all_codes())
            index = {c: i for i, c in enumerate(N.codes)}
            cover = sorted(index[c] for c in codes.all_codes())
            yield f"graph-{n}", N, rng.sample(cover, min(2, len(cover))), cover
    for rank in (3, 4):
        V = build_hierarchy(rank)
        elements = range(V.size)
        yield f"V{rank}", V, rng.sample(elements, 2), sorted(rng.sample(elements, 3))
    for _ in range(6):
        n = rng.randint(2, 6)
        N = random_structure(n, rng, rng.uniform(0.2, 0.6))
        elements = range(n)
        yield f"random-{n}", N, rng.sample(elements, 1), sorted(rng.sample(elements, 2))


def _trace(trace):
    return [[render(s.formula), list(s.valuation), s.witness] for s in trace]


def _outcome(fn, *args, budget):
    kwargs = {} if budget is None else {"budget": budget}
    try:
        return fn(*args, **kwargs)
    except (BudgetExceededError, InputError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _hull(N, pack, seed, **budget):
    h = hull(N, pack, seed, **budget)
    return [sorted(h.seed), sorted(h.carrier), _trace(h.trace)]


def _chain(N, pack, seed, cover, **budget):
    ch = chain(N, pack, seed, cover, **budget)
    records = [
        [r.added_cover_element, r.self_encoding, sorted(r.seed), _trace(r.trace)] for r in ch.records
    ]
    return [[sorted(s) for s in ch.stages], records, ch.coherent]


def _records():
    for label, N, seed, cover in _cases():
        for name in PACK_NAMES:
            pack = get_pack(name)
            for budget in BUDGETS:
                yield [
                    label,
                    name,
                    budget,
                    _outcome(_hull, N, pack, seed, budget=budget),
                    _outcome(_chain, N, pack, seed, cover, budget=budget),
                ]


def test_hull_and_chain_outcomes_match_recorded_digest():
    digest = hashlib.sha256()
    count = 0
    for record in _records():
        digest.update(json.dumps(record).encode())
        count += 1
    assert count == 16 * len(PACK_NAMES) * len(BUDGETS)
    assert digest.hexdigest() == (
        "152c486589f90596384423453c1393167b832d719e58bce95d36eb0910d228a6"
    )
