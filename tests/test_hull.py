import itertools
import sys

import pytest

from finmodel.corpus import gnp_graph, random_formula, random_structure
from finmodel.formula import Exists, FormulaPack, free_vars, parse, subformula_closure
from finmodel.hull import PACKS, Hull, TraceStep, _fresh_valuations, chain, get_pack, hull, verify_hull
from finmodel.oracles import satisfies
from finmodel.structure import EvalError, FinStructure, is_sigma_elementary
from finmodel.universe import build_hierarchy, hf_encode, membership_structure, recode_graph

from conftest import seeded

V3 = build_hierarchy(3)
V4 = build_hierarchy(4)

EMPTY_PACK = subformula_closure(FormulaPack("none", ()))
EMPTY_SET_PACK = subformula_closure(
    FormulaPack("empty-set", (parse("Ex Ay ~(y in x)"),))
)


def test_hull_empty_pack_returns_seed():
    h = hull(V3, EMPTY_PACK, {1, 2})
    assert h.carrier == frozenset({1, 2})
    assert h.trace == ()


def test_hull_pulls_empty_set_witness():
    h = hull(V3, EMPTY_SET_PACK, frozenset())
    assert h.carrier == frozenset({0})
    assert [s.witness for s in h.trace] == [0]
    assert is_sigma_elementary(h.carrier, V3.structure, EMPTY_SET_PACK).ok


def test_hull_full_seed_is_fixed_point():
    h = hull(V3, EMPTY_SET_PACK, range(V3.size))
    assert h.carrier == frozenset(range(V3.size))


def test_hull_requires_closed_pack():
    open_pack = FormulaPack("open", (parse("Ex (x in y)"),))
    with pytest.raises(ValueError):
        hull(V3, open_pack, set())
    lying = FormulaPack("lying", (parse("Ex (x in y)"),), closed_under_subformulas=True)
    with pytest.raises(ValueError):
        hull(V3, lying, set())


def test_hull_rejects_bad_seed():
    with pytest.raises(ValueError):
        hull(V3, EMPTY_PACK, {99})


def test_hull_rejects_a_dangling_constant():
    pack = subformula_closure(FormulaPack("far", (parse("Ex (x in #99)"),)))
    with pytest.raises(EvalError, match="dangling constant #99"):
        hull(V3, pack, set())


def test_fresh_valuations_are_the_product_tuples_touching_a_new_element():
    rng = seeded(1986)
    for k in range(4):
        for _ in range(25):
            ordered = sorted(rng.sample(range(10), rng.randint(0, 5)))
            news = [{a for a in ordered if rng.random() < 0.4}, set(), set(ordered)]
            news += [{a} for a in ordered]
            for new in news:
                want = [t for t in itertools.product(ordered, repeat=k) if new.intersection(t)]
                assert list(_fresh_valuations(ordered, new, k)) == want


def _coded_ambients(sizes, rng):
    """The membership ambients of coded gnp graphs, one per size."""
    ambients = []
    for n in sizes:
        coded, codes = recode_graph(gnp_graph(n, 0.5, rng))
        ambients.append(membership_structure(codes.all_codes()))
    return ambients


def test_a_chain_searches_each_valuation_once(monkeypatch):
    """The semi-naive closure hands each (existential, valuation) pair to
    a search at most once per chain, and by the end has searched every
    valuation into the last stage."""
    searched = []

    class Recording:
        """phi's record, whose searches, metered and the unmetered one
        hull runs under its bound, log the valuations they are handed."""

        def __init__(self, phi):
            self.phi, self.cf = phi, record(phi)

        def __getattr__(self, name):
            return getattr(self.cf, name)

        def variant(self, kind, metered):
            run, phi = self.cf.variant(kind, metered), self.phi

            def spy(consts, N, budget, valuations):
                valuations = list(valuations)
                searched.extend((phi, values) for values in valuations)
                return run(consts, N, budget, valuations)

            return spy

    module = sys.modules["finmodel.hull"]  # ``finmodel.hull`` names the function
    record = module._record
    rng = seeded(7)
    for N in [V4.structure, *_coded_ambients((5, 6, 7), rng)]:
        for name in ("pairing,members", "path-existence"):
            pack = get_pack(name)
            want = chain(N, pack, frozenset(), range(N.size))
            searched.clear()
            with monkeypatch.context() as patch:
                patch.setattr(module, "_record", Recording)
                got = chain(N, pack, frozenset(), range(N.size))
            assert got == want
            assert len(searched) == len(set(searched))
            last = sorted(got.stages[-1])
            every = {
                (phi, values)
                for phi in pack.formulas
                if isinstance(phi, Exists)
                for values in itertools.product(last, repeat=len(free_vars(phi)))
            }
            assert set(searched) == every


def _naive_hull(N, pack, seed):
    """The closure the hull module documents, read from Tarski's truth
    definition: each round sweeps the pack's existentials in order, each
    over every valuation of its free variables into the current set, in
    lexicographic order, and records a smallest witness when it first
    joins the set.  A valuation's smallest witness is kept once found,
    as the host does not change."""
    exists = [phi for phi in pack.formulas if isinstance(phi, Exists)]
    least = {}
    current, trace = set(seed), []
    changed = True
    while changed:
        changed = False
        for phi in exists:
            names = free_vars(phi)
            for values in itertools.product(sorted(current), repeat=len(names)):
                if (phi, values) not in least:
                    env = dict(zip(names, values))
                    least[phi, values] = next(
                        (e for e in range(N.size) if satisfies(N, phi.body, {**env, phi.var: e})), None
                    )
                w = least[phi, values]
                if w is not None and w not in current:
                    current.add(w)
                    trace.append(TraceStep(phi, tuple(zip(names, values)), w))
                    changed = True
    return frozenset(current), tuple(trace)


def test_hull_is_the_naive_closure_on_the_oracle():
    rng = seeded(2005)
    hosts = [V3.structure, V4.structure, *_coded_ambients((5, 6, 7), rng)]
    compared = 0
    for N in hosts:
        seeds = [set(), set(rng.sample(range(N.size), 2)), set(rng.sample(range(N.size), 3))]
        for name in ("pairing", "members", "path-existence"):
            pack = get_pack(name)
            for seed in seeds:
                h = hull(N, pack, seed)
                assert (h.carrier, h.trace) == _naive_hull(N, pack, seed), (N.size, name, seed)
                compared += len(h.trace)
    assert compared > 100


def test_hull_soundness_random():
    rng = seeded(101)
    for _ in range(30):
        N = random_structure(rng.randint(3, 8), rng)
        base = tuple(random_formula(rng, rng.randint(1, 2)) for _ in range(2))
        pack = subformula_closure(FormulaPack("rnd", base))
        seed = {e for e in range(N.size) if rng.random() < 0.3}
        h = hull(N, pack, seed)
        assert seed <= h.carrier
        assert is_sigma_elementary(h.carrier, N, pack).ok


def test_hull_determinism_and_monotonicity():
    rng = seeded(59)
    N = random_structure(8, rng)
    pack = get_pack("pairing")
    first = hull(N, pack, {0, 3})
    second = hull(N, pack, {0, 3})
    assert first == second
    bigger = hull(N, pack, {0, 3, 5})
    assert first.carrier <= bigger.carrier


def test_verify_hull_accepts_and_rejects():
    h = hull(V3, EMPTY_SET_PACK, frozenset())
    assert verify_hull(V3, EMPTY_SET_PACK, h)

    # deleting the witness breaks both replay and elementarity
    broken = Hull(h.seed, frozenset(), ())
    assert not verify_hull(V3, EMPTY_SET_PACK, broken)

    seed_only = hull(V3, EMPTY_PACK, {2})
    assert verify_hull(V3, EMPTY_PACK, seed_only)


def test_chain_single_stage_when_cover_inside_hull():
    ch = chain(V3, EMPTY_SET_PACK, frozenset(), {0})
    assert len(ch.stages) == 1
    assert ch.stages[0] == frozenset({0})


def test_chain_empty_cover():
    ch = chain(V3, EMPTY_PACK, {1}, frozenset())
    assert ch.stages == (frozenset({1}),)


def test_chain_strictly_increasing_and_covering():
    pack = get_pack("pairing")
    cover = frozenset({0, 1})  # the level-2 codes inside the level-4 universe
    ch = chain(V4, pack, frozenset(), cover)
    for a, b in zip(ch.stages, ch.stages[1:]):
        assert a < b
    assert cover <= ch.stages[-1]
    for stage in ch.stages:
        assert is_sigma_elementary(stage, V4.structure, pack).ok


def test_chain_self_encoding_over_hierarchy():
    pack = get_pack("pairing,members")
    ch = chain(V4, pack, frozenset(), frozenset({0, 1, 2, 3, 5, 6}))
    assert ch.records[0].self_encoding == "initial"
    for prev, record, stage in zip(ch.stages, ch.records[1:], ch.stages[1:]):
        code = hf_encode(prev)
        if record.self_encoding == "added":
            assert code < V4.size and code in stage
        else:
            assert record.self_encoding == "overflow" and code >= V4.size


def test_chain_self_encoding_skipped_off_hierarchy():
    N = FinStructure(4, frozenset({(0, 1), (1, 2)}))
    ch = chain(N, EMPTY_PACK, frozenset(), {0, 1, 2, 3})
    assert all(r.self_encoding == "not-hierarchy" for r in ch.records[1:])
    assert ch.coherent is None  # no codes to judge coherence through


def test_chain_coherence_with_pairing_members_pack():
    pack = get_pack("pairing,members")
    ch = chain(V4, pack, frozenset(), frozenset(range(V4.size)))
    assert ch.coherent is True


def test_chain_stages_are_closure_fixpoints():
    pack = get_pack("pairing,members")
    ch = chain(V4, pack, frozenset(), frozenset({0, 1, 2, 3, 5, 6}))
    for stage in ch.stages:
        assert hull(V4, pack, stage).carrier == stage


def test_shipped_packs_parse_and_close():
    for name in PACKS:
        pack = get_pack(name)
        assert pack.closed_under_subformulas
        assert len(pack) >= 1
    combined = get_pack("pairing,union")
    assert combined.name == "pairing+union"


def test_get_pack_unknown_name():
    with pytest.raises(KeyError):
        get_pack("no-such-pack")


def test_pairing_pack_closes_under_pairs():
    h = hull(V4, get_pack("pairing"), {1, 2})
    # the smallest set containing codes 1 and 2 is their pair, code 6
    assert 6 in h.carrier
    for x in h.carrier:
        for y in h.carrier:
            pair = (1 << x) | (1 << y)
            if pair < V4.size:
                assert pair in h.carrier


def test_successor_pack_generates_von_neumann_chain():
    # closing {0} under exact successor walks 0, 1, 3, 11 and stops when
    # the next successor no longer fits in the universe
    h = hull(V4, get_pack("successor"), {0})
    assert h.carrier == frozenset({0, 1, 3, 11})


def test_union_pack_collapses_nested_sets():
    h = hull(V4, get_pack("union"), {11})
    # union of {0,1,3} is 0|1|3 = 3, then union of 3 is 1, then 1
    assert {3, 1} <= h.carrier


def test_evaluation_pack_drives_function_application():
    # the function {<0,1>} lives at code 1024 in the level-5 universe,
    # too big for the default gate; check the formula on a tiny custom
    # membership world instead: g = {<0,1>} over the transitive closure
    from finmodel.universe import kuratowski_pair, membership_structure

    g = hf_encode([kuratowski_pair(0, 1)])
    N = membership_structure([g, 0, 1])
    index = {c: i for i, c in enumerate(N.codes)}
    pack = get_pack("evaluation")
    h = hull(N, pack, {index[g], index[0]})
    # the value 1 = g(0) must be pulled into the carrier
    assert index[1] in h.carrier
    assert is_sigma_elementary(h.carrier, N, pack).ok


def test_get_pack_builds_each_name_list_once():
    pack = get_pack("pairing, members")
    assert get_pack(["pairing", "members"]) is pack
    assert get_pack(("pairing", "members")) is pack
    assert get_pack("members,pairing") is not pack
    assert pack.name == "pairing+members" and pack.closed_under_subformulas
    with pytest.raises(KeyError):
        get_pack("pairing,nosuch")
