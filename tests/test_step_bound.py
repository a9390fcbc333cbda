"""The static step bound ``B(phi, m) = nodes(phi) * (m + 1) ** depth(phi)``
and the unmetered code that runs where it proves the budget suffices.

The metered evaluator, sweep and witness search are run with a budget
they cannot exhaust, and what they spend is checked against the bound
(per evaluation, twice per valuation for a sweep, once per valuation for
a search).  Their unmetered variants must give the same values,
counterexamples and witnesses, and both must agree with Tarski's truth
definition, :func:`oracles.satisfies`.  The routing tests check that the
entry points switch from metered to unmetered code exactly at the bound.
"""

import itertools

import pytest

from finmodel import structure
from finmodel.corpus import random_formula, random_structure
from finmodel.formula import Disjunction, Exists, Membership, Negation, Var, parse, relativize
from finmodel.hull import chain, get_pack
from finmodel.oracles import satisfies
from finmodel.structure import Budget, BudgetExceededError, eval_relativized, is_absolute
from finmodel.universe import build_hierarchy

from conftest import seeded, witness_search

PLENTY = 10**12


def _deep_formulas():
    """Formulas whose code is split into functions of their own: 14
    nested quantifiers, and a right-nested ``|`` of 16 quantifiers, scans
    and loops in turn."""
    nested = Membership(Var("x"), Var("v13"))
    for i in reversed(range(14)):
        nested = Exists(f"v{i}", nested)
    pieces = [parse("Ez ((x in z) & ~(z = y))"), parse("Ez ((z in x) | (z = y))")] * 8
    wide = pieces[-1]
    for piece in reversed(pieces[:-1]):
        wide = Disjunction(piece, wide)
    return [nested, Negation(wide), Exists("y", wide)]


def _cases():
    """(N, phi, scopes) triples: random formulas of quantifier depth 0-4,
    40% of them relativized, and the deep formulas, on structures of 0-6
    elements, each with an empty, a partial and a full scope."""
    rng = seeded(61)
    cases = []
    for _ in range(1500):
        N = random_structure(rng.randint(0, 6), rng, density=0.35)
        phi = random_formula(rng, rng.randint(0, 4), max_const=N.size or None, max_nodes=rng.choice((8, 16, 24)))
        cases.append((N, relativize(phi) if rng.random() < 0.4 else phi))
    for phi in _deep_formulas():
        cases += [(random_structure(n, rng, density=0.35), phi) for n in (0, 1, 2)]
    out = []
    for N, phi in cases:
        partial = tuple(e for e in range(N.size) if rng.random() < 0.5)
        out.append((N, phi, [(), partial, tuple(range(N.size))]))
    return rng, out


def _sample(rng, N, names, k):
    every = list(itertools.product(range(N.size), repeat=len(names)))
    return every if len(every) <= k else rng.sample(every, k)


def test_metered_spend_stays_within_the_bound_and_unmetered_code_agrees():
    rng, cases = _cases()
    worst, checked, kinds = 0.0, 0, set()
    disagreements = []
    for N, phi, scopes in cases:
        code = structure._record(phi)
        consts = code.constants
        names = code.free_vars
        bound = code.bound(N.size)
        if any(c >= N.size for c in consts):
            continue
        metered = code.variant("evaluator", True)
        unmetered = code.variant("evaluator", False)
        for values in _sample(rng, N, names, 3):
            env = dict(zip(names, values))
            for scope in scopes if code.relativized else [None]:
                held = Budget(PLENTY)
                got = metered(consts, N, scope, held, *values)
                spent = PLENTY - held.left
                assert spent <= bound, (phi, N, scope, values)
                worst = max(worst, spent / bound)
                want = satisfies(N, phi, env, scope)
                if not got == unmetered(consts, N, scope, None, *values) == want:
                    disagreements.append(("eval", phi, N, scope, values))
                checked += 1
                kinds.add(("relativized" if code.relativized else "plain", scope == () if scope is not None else None))
        if code.relativized:
            continue
        # the sweep over a random M holding the constants
        S = tuple(sorted({e for e in range(N.size) if rng.random() < 0.6} | set(consts)))
        held = Budget(PLENTY)
        found = code.variant("sweep", True)(S, N, consts, held)
        spent = PLENTY - held.left
        assert spent <= 2 * bound * len(S) ** len(names), (phi, N, S)
        want = next(
            (
                values
                for values in itertools.product(S, repeat=len(names))
                if satisfies(N, phi, dict(zip(names, values))) != satisfies(N, relativize(phi), dict(zip(names, values)), S)
            ),
            None,
        )
        if not found == code.variant("sweep", False)(S, N, consts, None) == want:
            disagreements.append(("sweep", phi, N, S))
        kinds.add(("sweep", want is None))
        # an existential's search over every valuation
        if isinstance(phi, Exists):
            valuations = list(itertools.product(range(N.size), repeat=len(names)))
            search = witness_search(phi)
            held = Budget(PLENTY)
            hits = search(N, held, valuations)
            assert PLENTY - held.left <= bound * len(valuations), (phi, N)
            want = []
            for values in valuations:
                env = dict(zip(names, values))
                least = next((e for e in range(N.size) if satisfies(N, phi.body, {**env, phi.var: e})), None)
                want += [(values, least)] * (least is not None)
            if not hits == witness_search(phi, metered=False)(N, None, valuations) == want:
                disagreements.append(("search", phi, N))
            kinds.add(("search", bool(want)))
    assert disagreements == []
    assert worst <= 1.0 and checked > 2000
    assert kinds >= {
        ("plain", None),
        ("relativized", True),
        ("relativized", False),
        ("sweep", True),
        ("sweep", False),
        ("search", True),
        ("search", False),
    }


def test_the_deep_formulas_are_split(monkeypatch):
    source = []

    def counting(text, *args):
        source.append(text)
        return compile(text, *args)

    monkeypatch.setattr(structure, "compile", counting, raising=False)
    for phi in _deep_formulas():
        for metered in (True, False):
            structure._Generator(phi).evaluator(phi, structure._record(phi).free_vars, metered)
            assert "def _f1(" in source[-1]
            assert ("left" in source[-1]) == metered


def _spy(monkeypatch, phi, kind, ran):
    """Replace phi's generated *kind*, metered and not, with wrappers that
    append to *ran* whether the metered one ran."""
    code = structure._record(phi)
    for metered in (True, False):
        run = code.variant(kind, metered)

        def spy(*args, run=run, metered=metered):
            ran.append(metered)
            return run(*args)

        monkeypatch.setitem(code.made, (kind, metered), spy)
    return code


def test_is_absolute_runs_unmetered_from_its_bound(monkeypatch):
    N = build_hierarchy(3).structure
    M = [0, 1, 3]
    for text in ("Ey ((y in x) & ~(y = x))", "Ey (Ez ((z in y) | (z = x)))"):
        phi = parse(text)
        ran = []
        code = _spy(monkeypatch, phi, "sweep", ran)
        bound = 2 * code.bound(N.size) * len(M) ** len(code.free_vars)
        want = is_absolute(M, N, phi, PLENTY)
        assert ran == [False]
        assert is_absolute(M, N, phi, bound) == want and ran[-1] is False
        assert is_absolute(M, N, phi, bound - 1) == want and ran[-1] is True


def test_eval_relativized_runs_unmetered_from_its_bound(monkeypatch):
    N = build_hierarchy(3).structure
    phi = relativize(parse("Ey ((y in x) & Ez ~(z in y))"))
    ran = []
    code = _spy(monkeypatch, phi, "evaluator", ran)
    bound = code.bound(N.size)
    for M in ([1, 2, 3], [2], list(range(N.size))):
        for x in M:
            want = eval_relativized(N, M, phi, {"x": x}, PLENTY)
            assert ran[-1] is False
            assert eval_relativized(N, M, phi, {"x": x}, bound) == want and ran[-1] is False
            assert eval_relativized(N, M, phi, {"x": x}, bound - 1) == want and ran[-1] is True
    # a budget below what the evaluation spends still runs out
    with pytest.raises(BudgetExceededError):
        eval_relativized(N, [1, 2, 3], phi, {"x": 1}, 1)
    assert ran[-1] is True


def test_chain_runs_unmetered_from_its_bound(monkeypatch):
    N = build_hierarchy(4).structure
    pack = get_pack("pairing,members")
    existentials = [phi for phi in pack.formulas if isinstance(phi, Exists)]
    ran = []
    bound = 0
    for phi in existentials:
        code = _spy(monkeypatch, phi, "search", ran)
        bound += N.size ** len(code.free_vars) * code.bound(N.size)
    want = chain(N, pack, frozenset(), [3, 9], PLENTY)
    assert ran and set(ran) == {False}
    ran.clear()
    assert chain(N, pack, frozenset(), [3, 9], bound) == want and set(ran) == {False}
    ran.clear()
    assert chain(N, pack, frozenset(), [3, 9], bound - 1) == want and set(ran) == {True}

