"""Set-at-a-time witness scans against Tarski's truth definition and the
documented charge rules.

An existential whose body is a conjunction of literals compiles to one
AND of masks.  Every answer here is checked twice: its truth value and
least witness against :func:`oracles.satisfies`, which reads the
relation's pairs and shares no code with the compiled evaluators, and
its step charge against :func:`_spend`, which follows the rules the
``structure`` module documents (one step per atom reached, ``|``
short-circuiting; a plain quantifier charges the size of its scan, a
relativized one its scope, and at least one step) by plain recursion.
The hulls' batched witness search is checked against the oracle's least
witnesses and against the compiled existential called at each valuation
in turn.
"""

import itertools

import pytest

from finmodel.corpus import random_structure
from finmodel.errors import InputError
from finmodel.formula import (
    Const,
    Disjunction,
    Equality,
    Exists,
    Membership,
    Negation,
    Var,
    _walk,
    constants,
    free_vars,
    parse,
    relativize,
)
from finmodel.hull import PACKS, get_pack
from finmodel.oracles import satisfies
from finmodel.structure import (
    Budget,
    BudgetExceededError,
    FinStructure,
    _conjuncts,
    compile_formula,
    is_absolute,
)
from finmodel.universe import build_hierarchy

from conftest import seeded, witness_search


def _spend(N, phi, env, scope, domain, charges):
    """phi's truth value, by the documented rules, appending each charge
    to *charges*: plain quantifiers scan *domain*, relativized ones
    *scope*."""
    kind = type(phi)
    if kind in (Membership, Equality):
        charges.append(1)
        a, b = (t.ident if type(t) is Const else env[t.name] for t in (phi.left, phi.right))
        return (a, b) in N.pairs if kind is Membership else a == b
    if kind is Negation:
        return not _spend(N, phi.body, env, scope, domain, charges)
    if kind is Disjunction:
        return _spend(N, phi.left, env, scope, domain, charges) or _spend(N, phi.right, env, scope, domain, charges)
    elements = domain if kind is Exists else scope
    charges.append(len(elements) if kind is Exists else len(elements) or 1)
    return any(_spend(N, phi.body, {**env, phi.var: e}, scope, domain, charges) for e in elements)


def _left(charges, budget):
    """What a budget holds after the charges, and whether it ran out:
    a charge that overdraws it ends the evaluation there."""
    for spent in itertools.accumulate(charges):
        if spent > budget:
            return budget - spent, True
    return budget - sum(charges), False


def _term(rng, z, nconst):
    pick = rng.random()
    if nconst and pick < 0.2:
        return Const(rng.randrange(nconst))
    return Var(z) if pick < 0.6 else Var(rng.choice("xy"))


def _literal(rng, z, nconst):
    atom = (Membership if rng.random() < 0.65 else Equality)(_term(rng, z, nconst), _term(rng, z, nconst))
    literal = Negation(atom) if rng.random() < 0.5 else atom
    return Negation(Negation(literal)) if rng.random() < 0.15 else literal


def _conjunction(rng, literals):
    """The literals joined by ``&`` as the parser joins them, in a random
    association."""
    if len(literals) == 1:
        return literals[0]
    k = rng.randrange(1, len(literals))
    left, right = _conjunction(rng, literals[:k]), _conjunction(rng, literals[k:])
    return Negation(Disjunction(Negation(left), Negation(right)))


# every literal shape: z against itself, against a variable and a
# constant on either side, and atoms without z
_SHAPES = [
    "Ez (z in z)",
    "Ez ~(z in z)",
    "Ez (z = z)",
    "Ez ~(z = z)",
    "Ez (z in x)",
    "Ez (x in z)",
    "Ez (z = x)",
    "Ez (x = z)",
    "Ez ~(z = x)",
    "Ez (z in #1)",
    "Ez (#1 in z)",
    "Ez ~(z = #0)",
    "Ez ((x in y) & (z in y))",
    "Ez ((x = y) & (x in z))",
    "Ez ((~(#0 in #1)) & (~(z in x)))",
    "Ez (((z in z) & (x in z)) & (~(z = x) & (z in y)))",
    "Eu (Ev (((u in s) & (v in s)) & ~(u = v)))",
]


def _cases():
    rng = seeded(41)
    structures = [build_hierarchy(4).structure, FinStructure(3, frozenset({(0, 0), (1, 2), (2, 2), (0, 2)}))]
    structures += [random_structure(n, rng, density=0.35) for n in (2, 4, 6, 7)]
    cases = [(N, parse(text)) for text in _SHAPES for N in structures]
    for _ in range(220):
        N = random_structure(rng.randint(1, 7), rng, density=0.35)
        nconst = N.size if rng.random() < 0.4 else 0
        phi = Exists("z", _conjunction(rng, [_literal(rng, "z", nconst) for _ in range(rng.randint(1, 4))]))
        wrap = rng.random()
        if wrap < 0.25:
            phi = Exists("x", phi)
        elif wrap < 0.5:
            phi = Negation(Exists("y", phi))
        cases.append((N, phi))
    return rng, cases


def _valuations(rng, N, names, k=3):
    every = list(itertools.product(range(N.size), repeat=len(names)))
    return every if len(every) <= k else rng.sample(every, k)


def _check_budgets(fn, args, charges, found, disagreements, label):
    """Run fn at every budget from 0 to the exact charge: each must end
    as the charges say, the answer *found* when it does not run out.
    Return the number of runs."""
    for budget in range(sum(charges) + 1):
        left, runs_out = _left(charges, budget)
        held = Budget(budget)
        try:
            got = fn(*args[:2], held, *args[2:])
        except BudgetExceededError:
            got = BudgetExceededError
        want = BudgetExceededError if runs_out else found
        if (got, held.left) != (want, left):
            disagreements.append((label, args, budget, (got, held.left), (want, left)))
    return sum(charges) + 1


def test_masked_scans_agree_with_the_oracle_and_the_charge_rules():
    rng, cases = _cases()
    disagreements, compared = [], 0
    for N, phi in cases:
        consts = sorted(constants(phi))
        if any(c >= N.size for c in consts):
            continue
        names = free_vars(phi)
        compiled, rel = compile_formula(phi), compile_formula(relativize(phi))
        inside = {e for e in range(N.size) if rng.random() < 0.5}
        scopes = [tuple(sorted(inside | set(consts))), tuple(range(N.size))]
        if not consts:
            scopes.append(())  # an empty scope holds no constant
        for values in _valuations(rng, N, names):
            env = dict(zip(names, values))
            # plain evaluation, and the least witness of an existential
            charges = []
            truth = _spend(N, phi, env, None, range(N.size), charges)
            disagreements += [("truth", phi, env)] * (truth != satisfies(N, phi, env))
            compared += _check_budgets(compiled, (N, None, *values), charges, truth, disagreements, "eval")
            if isinstance(phi, Exists):
                least = next((e for e in range(N.size) if satisfies(N, phi.body, {**env, phi.var: e})), None)
                search = witness_search(phi)
                compared += _check_budgets(
                    lambda N, _, budget, *values: dict(search(N, budget, [values])).get(values),
                    (N, None, *values),
                    charges,
                    least,
                    disagreements,
                    "witness",
                )
            # every quantifier relativized, to an empty or a nonempty scope
            for scope in scopes:
                if any(v not in scope for v in values):
                    continue
                charges = []
                truth = _spend(N, relativize(phi), env, scope, None, charges)
                disagreements += [("scope", phi, env, scope)] * (truth != satisfies(N, relativize(phi), env, scope))
                compared += _check_budgets(rel, (N, scope, *values), charges, truth, disagreements, "relativized")
    assert disagreements == []
    assert compared > 10_000


def test_every_case_scans_set_at_a_time():
    _, cases = _cases()
    for _, phi in cases:
        assert any(type(f) is Exists and _conjuncts(f.body) for f, _ in _walk(phi)), phi
    # a disjunctive body, one with a disjunction under a conjunct, or one
    # with a quantifier, keeps its loop
    for text in ("Ez ((z in x) | (z = y))", "Ez ((z in x) & ~((z = y) & (y in z)))", "Ez ((z in x) & Ey (y in z))"):
        assert _conjuncts(parse(text).body) is None


def test_exhaustion_inside_a_scan_leaves_minus_one():
    N = build_hierarchy(4).structure  # 16 elements, 5 = {0, 2} the first with 0 and 2
    phi = parse("Ez ((x in z) & (y in z))")
    search = witness_search(phi)
    assert search(N, Budget(100), [(0, 2)]) == [((0, 2), 5)]
    # 16 for the scan, then 6 + 3 atoms up to the witness 5: the first
    # literal at 0..5, the second where 0 is a member, at 1, 3 and 5
    for budget in range(16, 25):
        held = Budget(budget)
        with pytest.raises(BudgetExceededError):
            search(N, held, [(0, 2)])
        assert held.left == -1
    held = Budget(25)
    assert search(N, held, [(0, 2)]) == [((0, 2), 5)] and held.left == 0
    held = Budget(5)  # the quantifier's own charge overdraws by its size
    with pytest.raises(BudgetExceededError):
        search(N, held, [(0, 2)])
    assert held.left == -11


def test_is_absolute_m_side_agrees_with_the_oracle_at_its_exact_charge():
    rng, cases = _cases()
    verdicts, checked = set(), 0
    for N, phi in cases[::2]:
        consts = set(constants(phi))
        if any(c >= N.size for c in consts):
            continue
        M = sorted({e for e in range(N.size) if rng.random() < 0.5} | consts)
        names = free_vars(phi)
        charges, expected = [], None
        for values in itertools.product(M, repeat=len(names)):
            env = dict(zip(names, values))
            host = _spend(N, phi, env, None, range(N.size), charges)
            inner = _spend(N, phi, env, None, M, charges)
            assert host == satisfies(N, phi, env)
            assert inner == satisfies(N, relativize(phi), env, M)
            if host != inner:
                expected = env
                break
        steps = sum(charges)
        assert is_absolute(M, N, phi, steps) == (expected is None, expected)
        if steps:
            with pytest.raises(BudgetExceededError):
                is_absolute(M, N, phi, steps - 1)
        verdicts.add(expected is None)
        checked += 1
    assert verdicts == {True, False} and checked > 100


def test_a_scope_list_refilled_between_calls_is_read_afresh():
    N = build_hierarchy(4).structure
    compiled = compile_formula(relativize(parse("Ez ((x in z) & ~(z = x))")))
    scope = [0, 5]
    assert compiled(N, scope, Budget(100), 0)  # 0 is in 5
    scope[:] = [0, 2, 4]
    held = Budget(100)
    assert not compiled(N, scope, held, 0)  # none of them holds 0
    assert held.left == 100 - 3 - 3  # the new scope's charge, one atom each
    scope.clear()
    held = Budget(100)
    assert not compiled(N, scope, held, 0) and held.left == 99


def test_the_oracle_reads_any_depth_and_wants_a_scope_for_a_relativized_formula():
    N = build_hierarchy(3).structure
    deep = parse("Ex (x in y)")
    for _ in range(3000):
        deep = Negation(deep)
    assert satisfies(N, deep, {"y": 1}) is True  # 0 is in 1, under an even count of ~
    with pytest.raises(InputError, match="scope"):
        satisfies(N, relativize(parse("Ex (x = x)")), {})


# beside the shipped packs' existentials: no free variable, one, two,
# constants in a scan and in a loop
_BATCHED = [
    "Ez (z in z)",
    "Ez (x in z)",
    "Ez ((x in z) & ~(z = y))",
    "Ez ((#1 in z) & ~(z = x))",
    "Ez ((z in x) | (z = #0))",
]


def _in_turn(compiled, N, budget, valuations, hits):
    """compiled called at each valuation in turn from one budget: *hits*,
    or BudgetExceededError when a call runs out."""
    try:
        for values in valuations:
            compiled(N, None, budget, *values)
    except BudgetExceededError:
        return BudgetExceededError
    return hits


def test_batched_search_agrees_with_the_oracle_and_per_valuation_evaluation():
    """One batched search over a list of valuations finds the least
    witnesses Tarski's definition gives, and at every budget up to the
    list's whole charge runs out where evaluating the existential at each
    valuation in turn does, leaving the same steps."""
    rng = seeded(23)
    existentials = {parse(text): None for text in _BATCHED}
    for name in PACKS:
        existentials.update((phi, None) for phi in get_pack(name) if isinstance(phi, Exists))
    structures = [FinStructure(0, frozenset()), build_hierarchy(3).structure]
    structures += [random_structure(n, rng, density=0.4) for n in (1, 2, 3, 3, 4)]
    disagreements, budgets, kinds = [], 0, set()
    for phi in existentials:
        search, compiled = witness_search(phi), compile_formula(phi)
        names = free_vars(phi)
        for N in structures:
            if any(c >= N.size for c in constants(phi)):
                continue
            every = list(itertools.product(range(N.size), repeat=len(names)))
            for count in (0, 1, 3, 8):
                valuations = rng.choices(every, k=count) if every else []
                hits = []
                for values in valuations:
                    env = dict(zip(names, values))
                    least = next((e for e in range(N.size) if satisfies(N, phi.body, {**env, phi.var: e})), None)
                    hits += [(values, least)] * (least is not None)
                plenty = Budget(10**9)
                assert search(N, plenty, iter(valuations)) == hits
                total = 10**9 - plenty.left
                kinds.add((len(names), count))
                for steps in range(total + 1):
                    alone, batch = Budget(steps), Budget(steps)
                    want = _in_turn(compiled, N, alone, valuations, hits)
                    try:
                        got = search(N, batch, iter(valuations))
                    except BudgetExceededError:
                        got = BudgetExceededError
                    if (got, batch.left) != (want, alone.left):
                        disagreements.append((phi, N.size, valuations, steps, got, want, batch.left, alone.left))
                budgets += total + 1
    assert disagreements == []
    assert budgets > 20_000
    assert kinds >= {(k, count) for k in (0, 1, 2, 3) for count in (0, 1, 3, 8)}
