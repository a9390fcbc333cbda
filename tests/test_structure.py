import gc
import itertools
import weakref

import pytest

from finmodel.corpus import random_formula, random_structure
from finmodel.formula import (
    Disjunction,
    Equality,
    Exists,
    Membership,
    Negation,
    Var,
    constants,
    free_vars,
    parse,
    relativize,
    remap_constants,
    subformulas,
)
from finmodel.structure import (
    Budget,
    BudgetExceededError,
    EvalError,
    FinStructure,
    compile_formula,
    eval_formula,
    eval_relativized,
    induced_substructure,
    is_absolute,
    is_sigma_elementary,
)
from finmodel.formula import FormulaPack, subformula_closure
from finmodel.hull import PACKS, chain, get_pack, hull
from finmodel.universe import build_hierarchy

from conftest import seeded, witness_search

V2 = build_hierarchy(2).structure
V3 = build_hierarchy(3).structure


def test_eval_empty_set_exists_in_v2():
    assert eval_formula(V2, parse("Ex Ay ~(y in x)")) is True


def test_eval_reflexive_point():
    N = FinStructure(1, frozenset({(0, 0)}))
    assert eval_formula(N, parse("Ex (x in x)")) is True


def test_eval_empty_relation_scan():
    # brute scan over the three candidate witnesses, all fail
    N = FinStructure(3, frozenset())
    phi = parse("Ex (x in #0)")
    assert not any((a, 0) in N.pairs for a in range(3))
    assert eval_formula(N, phi) is False


def test_eval_errors():
    with pytest.raises(EvalError):
        eval_formula(V2, parse("x in y"), {"x": 0})  # y unbound
    with pytest.raises(EvalError):
        eval_formula(V2, parse("Ex (x in #9)"))  # dangling constant
    with pytest.raises(EvalError):
        eval_formula(V2, relativize(parse("Ex (x = x)")))  # relativized node
    with pytest.raises(EvalError):
        eval_formula(V2, parse("x = x"), {"x": 7})  # value outside universe


def test_eval_budget_guard():
    deep = parse("Ex Ey Ez Eu ((x in y | y in z) | (z in u))")
    with pytest.raises(BudgetExceededError):
        eval_formula(V3, deep, budget=10)


def test_eval_relativized_known_cases():
    assert eval_relativized(V2, [1], relativize(parse("Ex (x = x)"))) is True
    # within {1} the element {empty} has no member inside the subset
    assert eval_relativized(V2, [1], relativize(parse("Ex Ay ~(y in x)"))) is True
    assert eval_relativized(V2, [], relativize(parse("Ex (x = x)"))) is False


def test_eval_relativized_entry_checks():
    with pytest.raises(EvalError):
        eval_relativized(V2, [1], relativize(parse("x = x")), {"x": 0})
    with pytest.raises(EvalError):
        eval_relativized(V2, [1], relativize(parse("Ex (x in #0)")))


def test_eval_relativized_mixed_quantifiers():
    # unbounded part still sees the whole structure
    phi = relativize(parse("Ey (y in x)"))  # bounded
    assert eval_relativized(V2, [1], phi, {"x": 1}) is False
    unbounded = parse("Ey (y in x)")
    assert eval_relativized(V2, [1], unbounded, {"x": 1}) is True


def test_induced_substructure():
    sub, remap = induced_substructure(V3, range(V3.size))
    assert sub.size == V3.size and sub.pairs == V3.pairs

    # V3 is codes 0..3; restrict to {0, 1}: only 0 E 1 survives
    sub2, remap2 = induced_substructure(V3, [0, 1])
    assert sub2.size == 2 and sub2.pairs == frozenset({(0, 1)})
    assert remap2 == {0: 0, 1: 1}

    empty, _ = induced_substructure(V3, [])
    assert empty.size == 0


def test_induced_substructure_remap_and_errors():
    sub, remap = induced_substructure(V3, [1, 3])
    assert remap == {1: 0, 3: 1}
    assert sub.pairs == frozenset({(0, 1)})  # 1 E 3 in the hierarchy
    with pytest.raises(ValueError):
        induced_substructure(V3, [9])


def test_is_absolute_known_cases():
    assert is_absolute([0], V3, parse("x in y")).ok  # quantifier-free
    check = is_absolute([1], V2, parse("Ey (y in x)"))
    assert not check.ok and check.counterexample == {"x": 1}
    assert is_absolute(range(V3.size), V3, parse("Ey (y in x)")).ok


def test_is_sigma_elementary_known_cases():
    empty_pack = subformula_closure(FormulaPack("none", ()))
    assert is_sigma_elementary([1], V2, empty_pack).ok
    pack = subformula_closure(FormulaPack("p", (parse("Ey (y in x)"),)))
    assert is_sigma_elementary(range(V2.size), V2, pack).ok
    check = is_sigma_elementary([1], V2, pack)
    assert not check.ok
    assert check.formula == parse("Ey (y in x)")
    assert check.counterexample == {"x": 1}


def test_sigma_elementary_consistent_with_parts():
    rng = seeded(7)
    for _ in range(20):
        N = random_structure(rng.randint(2, 6), rng)
        pack = subformula_closure(
            FormulaPack("r", tuple(random_formula(rng, 2) for _ in range(3)))
        )
        M = [e for e in range(N.size) if rng.random() < 0.6]
        agg = is_sigma_elementary(M, N, pack)
        parts = [is_absolute(M, N, phi).ok for phi in pack.formulas]
        assert agg.ok == all(parts)


def test_relativization_theorem_small_corpus():
    # eval_relativized over N equals plain eval over the induced substructure
    rng = seeded(11)
    for _ in range(40):
        N = random_structure(rng.randint(2, 6), rng)
        phi = random_formula(rng, rng.randint(0, 3))
        rel = relativize(phi)
        members = sorted(e for e in range(N.size) if rng.random() < 0.7)
        sub, remap = induced_substructure(N, members)
        names = sorted({v for v in _free(phi)})
        for combo in itertools.product(members, repeat=len(names)):
            v_host = dict(zip(names, combo))
            v_sub = {k: remap[val] for k, val in v_host.items()}
            assert eval_relativized(N, members, rel, v_host) == eval_formula(
                sub, phi, v_sub
            )


def _free(phi):
    from finmodel.formula import free_vars

    return free_vars(phi)


def test_substitution_agrees_with_valuation():
    # plugging constants in syntactically matches evaluating under the
    # corresponding valuation
    from finmodel.formula import substitute

    rng = seeded(47)
    for _ in range(60):
        N = random_structure(rng.randint(2, 6), rng)
        phi = random_formula(rng, rng.randint(0, 2))
        valuation = {v: rng.randrange(N.size) for v in _free(phi)}
        closed = substitute(phi, valuation)
        assert _free(closed) == []
        assert eval_formula(N, closed) == eval_formula(N, phi, valuation)


def test_is_absolute_remaps_constants():
    phi = parse("Ey (y in #1)")
    # the constant keeps naming element 1 after the substructure renames
    check = is_absolute([1, 3], V3, phi)
    assert not check.ok or check.counterexample is None
    sub, remap = induced_substructure(V3, [1, 3])
    direct = eval_formula(sub, parse(f"Ey (y in #{remap[1]})"))
    assert check.ok == (eval_formula(V3, phi) == direct)
    with pytest.raises(EvalError):
        is_absolute([0], V3, phi)  # constant outside the subset


def _absolute_by_definition(M, N, phi):
    """The first valuation into M, in lexicographic order, on which phi
    over N and phi over the substructure M induces differ, or None, and
    the steps both sides spend up to it."""
    sub, remap = induced_substructure(N, M)
    host, inner = compile_formula(phi), compile_formula(remap_constants(phi, remap))
    assert host.free_vars == inner.free_vars
    budget = Budget(10**9)
    for values in itertools.product(sorted(M), repeat=len(host.free_vars)):
        if host(N, None, budget, *values) != inner(sub, None, budget, *[remap[v] for v in values]):
            return dict(zip(host.free_vars, values)), 10**9 - budget.left
    return None, 10**9 - budget.left


def test_is_absolute_is_the_definition_at_the_steps_of_both_sides():
    rng = seeded(19)
    cases = []
    for _ in range(150):
        N = random_structure(rng.randint(1, 6), rng)
        phi = random_formula(rng, rng.randint(0, 3), max_const=N.size if rng.random() < 0.4 else None)
        M = {e for e in range(N.size) if rng.random() < 0.6} | set(constants(phi))
        cases.append((M, N, phi))
    N = random_structure(4, rng)
    cases += [(set(), N, parse("Ex Ey (x in y)")), (set(), N, parse("~Ex (x = x)")), (set(), N, parse("x in y"))]
    verdicts = set()
    for M, N, phi in cases:
        expected, steps = _absolute_by_definition(M, N, phi)
        check = is_absolute(M, N, phi, budget=steps)
        assert (check.ok, check.counterexample) == (expected is None, expected)
        verdicts.add(check.ok)
        if steps > 0:
            with pytest.raises(BudgetExceededError):
                is_absolute(M, N, phi, budget=steps - 1)
    assert verdicts == {True, False}


def _fail_on_sweep(monkeypatch, phi):
    """Replace phi's cached sweeps, metered and not, with one that fails
    if it is called."""
    from finmodel import structure

    def untouched(*args):
        raise AssertionError("the sweep ran")

    made = structure._record(phi).made
    for metered in (True, False):
        monkeypatch.setitem(made, ("sweep", metered), untouched)


def test_is_absolute_skips_the_sweep_only_where_it_could_not_fail(monkeypatch):
    rng = seeded(23)
    cases = []
    for _ in range(80):
        N = random_structure(rng.randint(1, 6), rng)
        phi = random_formula(rng, 0, max_const=N.size if rng.random() < 0.5 else None)
        M = {e for e in range(N.size) if rng.random() < 0.6} | set(constants(phi))
        cases.append((M, N, phi))
    N = random_structure(3, rng)
    cases += [({0, 2}, N, parse("((#0 in #2) | ~(#2 = #0))")), (set(), N, parse("x in y"))]
    swept_below = raised = 0
    for M, N, phi in cases:
        atoms = sum(isinstance(f, (Membership, Equality)) for f in subformulas(phi))
        bound = 2 * atoms * len(M) ** len(free_vars(phi))
        expected, steps = _absolute_by_definition(M, N, phi)
        assert expected is None  # N's own atoms: no quantifier-free formula fails
        # below the bound the sweep runs and spends exactly the definition's steps
        for budget in range(bound):
            if budget < steps:
                with pytest.raises(BudgetExceededError):
                    is_absolute(M, N, phi, budget)
                raised += 1
            else:
                assert is_absolute(M, N, phi, budget) == (True, None)
                swept_below += 1
        with monkeypatch.context() as patch:  # a formula can recur
            _fail_on_sweep(patch, phi)
            assert is_absolute(M, N, phi, budget=bound) == (True, None)
    assert swept_below and raised
    # a quantified formula never skips its sweep
    phi = parse("Ey (y in x)")
    _fail_on_sweep(monkeypatch, phi)
    with pytest.raises(AssertionError, match="the sweep ran"):
        is_absolute([0, 1], V2, phi)


# ---------------------------------------------------------------------------
# deep and odd formulas: every shape the closure evaluator took must
# still evaluate, with the same answer and the same step charge


def _nested_exists(depth, atom):
    phi = atom
    for i in reversed(range(depth)):
        phi = Exists(f"v{i}", phi)
    return phi


def _chain(depth, make):
    phi = Membership(Var("x"), Var("y"))
    for i in range(depth):
        phi = make(i, phi)
    return phi


def _costs(N, phi, steps, valuation=None):
    """Does evaluating *phi* take exactly *steps* budget steps?"""
    try:
        eval_formula(N, phi, valuation, budget=steps - 1)
    except BudgetExceededError:
        return eval_formula(N, phi, valuation, budget=steps) in (True, False)
    return False


def test_quantifier_depth_40_evaluates():
    phi = _nested_exists(40, Membership(Var("v0"), Var("v39")))
    point = FinStructure(1, frozenset())
    edge = FinStructure(2, frozenset({(0, 1)}))
    assert eval_formula(point, phi) is False
    assert eval_formula(edge, phi) is True
    # one step per quantifier per element scanned, one per atom
    assert _costs(point, phi, 40 + 1)
    assert _costs(edge, phi, 40 * 2 + 2)
    forall = Negation(_nested_exists(40, Negation(Equality(Var("v0"), Var("v0")))))
    assert eval_formula(point, forall) is True
    assert _costs(point, forall, 40 + 1)
    relativized = relativize(phi)
    assert eval_relativized(edge, [0, 1], relativized) is True
    assert eval_relativized(edge, [1], relativized) is False
    assert eval_relativized(edge, [], relativized) is False
    with pytest.raises(BudgetExceededError):
        eval_relativized(edge, [], relativized, budget=0)


def test_deep_disjunction_and_negation_chains_evaluate():
    edge = FinStructure(2, frozenset({(0, 1)}))
    valuation = {"x": 0, "y": 1}
    # right-nested: the true atom is reached only after 400 false ones
    right = _chain(400, lambda i, phi: Disjunction(Equality(Var("x"), Var("y")), phi))
    assert eval_formula(edge, right, valuation) is True
    assert _costs(edge, right, 401, valuation)
    left = _chain(400, lambda i, phi: Disjunction(phi, Equality(Var("x"), Var("y"))))
    assert eval_formula(edge, left, valuation) is True
    assert _costs(edge, left, 1, valuation)
    negations = _chain(400, lambda i, phi: Negation(phi))
    assert eval_formula(edge, negations, valuation) is True
    assert eval_formula(edge, Negation(negations), valuation) is False
    mixed = _chain(400, lambda i, phi: Negation(Disjunction(Equality(Var("x"), Var("y")), phi)))
    assert eval_formula(edge, mixed, valuation) is True
    assert _costs(edge, mixed, 401, valuation)
    quantified = _chain(
        400, lambda i, phi: Disjunction(Exists("z", Membership(Var("z"), Var("x"))), phi)
    )
    assert eval_formula(edge, quantified, valuation) is True
    assert _costs(edge, quantified, 400 * 4 + 1, valuation)
    assert eval_relativized(edge, [0, 1], relativize(quantified), valuation) is True


def test_chains_as_deep_as_the_closure_evaluator_took_evaluate():
    # each shape nearly as deep as the closure evaluator went under
    # Python's default recursion limit
    point = FinStructure(1, frozenset())
    same = Equality(Var("x"), Var("x"))
    shapes = {
        "exists": (800, lambda i, phi: Exists(f"v{i % 3}", phi)),
        "right |": (800, lambda i, phi: Disjunction(Negation(same), phi)),
        "left |": (800, lambda i, phi: Disjunction(phi, Negation(same))),
        "~~": (300, lambda i, phi: Negation(Negation(phi))),
        "~(|)": (200, lambda i, phi: Negation(Disjunction(Negation(same), Negation(phi)))),
    }
    for name, (depth, make) in shapes.items():
        phi = same
        for i in range(depth):
            phi = make(i, phi)
        assert eval_formula(point, phi, {"x": 0}) is True, name
        assert eval_formula(point, Negation(phi), {"x": 0}) is False, name


def test_names_outside_the_grammar_evaluate():
    N = FinStructure(3, frozenset({(0, 1), (1, 2)}))
    phi = Exists("a b", Membership(Var("a b"), Var("x); y")))
    assert eval_formula(N, phi, {"x); y": 1}) is True
    assert eval_formula(N, phi, {"x); y": 0}) is False
    shadow = Disjunction(Equality(Var("a b"), Var("a b")), Negation(phi))
    assert eval_formula(N, shadow, {"a b": 2, "x); y": 0}) is True
    with pytest.raises(EvalError):
        eval_formula(N, phi)
    assert is_absolute([0, 1], N, phi).ok is True
    assert is_absolute([1, 2], N, phi).counterexample == {"x); y": 1}


def test_compiled_formula_api_and_step_charges():
    phi = parse("Ex (x in y)")
    cf = compile_formula(phi)
    assert compile_formula(phi) is cf
    assert (cf.free_vars, cf.constants, cf.relativized) == (["y"], (), False)
    budget = Budget(100)
    # V2 is {0, 1} with 0 in 1: a scan of 2 elements, then one atom
    assert cf(V2, None, budget, 1) is True and budget.left == 97
    rel = compile_formula(relativize(phi))
    assert rel.relativized
    with pytest.raises(EvalError):
        rel.require_scope(None)
    assert rel(V2, (1,), budget, 1) is False and budget.left == 95
    assert rel(V2, (), budget, 1) is False and budget.left == 94  # an empty scope costs 1
    constant = compile_formula(parse("Ex (x in #1)"))
    assert constant.constants == (1,)
    assert constant(V2, None, budget) is True
    with pytest.raises(BudgetExceededError):
        cf(V2, None, Budget(2), 1)


def test_compiled_formula_lives_as_long_as_its_formula():
    phi = parse("Ex Ey (x in y)")
    ref = weakref.ref(compile_formula(phi))
    gc.collect()
    assert ref() is not None
    del phi
    gc.collect()
    assert ref() is None


def test_a_compiled_formula_is_callable_after_its_formula_is_gone():
    cf = compile_formula(relativize(parse("Ex ((x in y) & ~(x = y))")))
    gc.collect()
    assert cf.formula() is None
    assert cf(V2, (0, 1), Budget(100), 1) is True
    assert cf(V2, (1,), Budget(100), 1) is False
    with pytest.raises(EvalError, match="formula is gone"):
        cf.variant("sweep", True)


def test_a_chain_leaves_no_record_once_its_pack_is_gone():
    from finmodel import structure

    texts = ("Ew ((w in q) & ~(w = q))", "Eq (Ew ((w in q) & (q in w)))")
    pack = subformula_closure(FormulaPack("fresh", tuple(map(parse, texts))))
    chain(V3, pack, frozenset(), range(V3.size))
    refs = [weakref.ref(structure._COMPILED[phi]) for phi in pack.formulas if isinstance(phi, Exists)]
    assert len(refs) == 3
    del pack
    gc.collect()
    assert [ref() for ref in refs] == [None] * 3


def _counting_compile(monkeypatch):
    """The sources the structure module compiles from now on."""
    from finmodel import structure

    compiled = []

    def counting_compile(source, *args):
        compiled.append(source)
        return compile(source, *args)

    monkeypatch.setattr(structure, "compile", counting_compile, raising=False)
    return compiled


def test_eval_relativized_compiles_one_function_per_formula(monkeypatch):
    from finmodel import structure

    compiled = _counting_compile(monkeypatch)
    phi = relativize(parse("Ey ((y in x) & ~(y in y))"))
    assert phi not in structure._COMPILED
    assert eval_relativized(V2, [0, 1], phi, {"x": 1}) is True
    assert eval_relativized(V2, [1], phi, {"x": 1}) is False
    assert len(compiled) == 1  # the unmetered evaluator alone


def test_is_absolute_compiles_one_sweep_per_formula(monkeypatch):
    compiled = _counting_compile(monkeypatch)
    phi = parse("Ey (y in x)")
    assert not is_absolute([1], V2, phi).ok
    assert len(compiled) == 1  # the sweep alone, not a compiled formula too
    assert is_absolute(range(V2.size), V2, phi).ok
    assert len(compiled) == 1  # kept for the formula
    is_absolute([1], V2, parse("Ey (y in x)"))
    assert len(compiled) == 1  # an equal formula is the same object
    # a formula of arity 25 is one loop, not 25 nested ones; below its
    # quantifier-free bound (2 steps for each of its 24 atoms) its sweep
    # is built, and on a loop the first atom holds: one step a side
    xs = [Var(f"x{i}") for i in range(25)]
    wide = Membership(xs[0], xs[1])
    for a, b in zip(xs[1:], xs[2:]):
        wide = Disjunction(wide, Membership(a, b))
    loop = FinStructure(1, frozenset({(0, 0)}))
    assert is_absolute([0], loop, wide, budget=2 * 24 - 1).ok
    assert compiled[-1].count("for ") == 1


def _shipped_existentials():
    found = {}
    for name in PACKS:
        for phi in get_pack(name):
            if isinstance(phi, Exists):
                found.setdefault(phi, None)
    return list(found)


def test_witness_search_is_the_least_witness_at_the_evaluator_cost():
    rng = seeded(11)
    structures = [V3, build_hierarchy(4).structure] + [random_structure(n, rng) for n in (2, 3, 5, 6)]
    existentials = _shipped_existentials()
    assert len(existentials) >= 10
    for phi in existentials:
        search, compiled = witness_search(phi), compile_formula(phi)
        assert witness_search(phi).func is search.func  # compiled once per formula
        names = free_vars(phi)
        for N in structures:
            for values in itertools.product(range(N.size), repeat=len(names)):
                valuation = dict(zip(names, values))
                least = next(
                    (x for x in range(N.size) if eval_formula(N, phi.body, {**valuation, phi.var: x})),
                    None,
                )
                plain, budget = Budget(10**6), Budget(10**6)
                truth = compiled(N, None, plain, *values)
                hits = [] if least is None else [(values, least)]
                assert search(N, budget, [values]) == hits
                assert truth == (least is not None)
                assert budget.left == plain.left
                spent = 10**6 - budget.left
                # the same budgets run out, with the same overdraft
                for steps in (spent - 1, spent // 2, 0):
                    short, short_plain = Budget(steps), Budget(steps)
                    with pytest.raises(BudgetExceededError):
                        search(N, short, [values])
                    with pytest.raises(BudgetExceededError):
                        compiled(N, None, short_plain, *values)
                    assert short.left == short_plain.left
                assert search(N, Budget(spent), [values]) == hits


def test_witness_search_refuses_a_relativized_formula():
    # an existential over a relativized body: the hull's oracle has no
    # search for it, and neither does a hull over its pack
    phi = Exists("y", relativize(parse("Ex (x in y)")))
    with pytest.raises(EvalError, match="relativized"):
        witness_search(phi)
    pack = subformula_closure(FormulaPack("bounded", (phi,)))
    with pytest.raises(EvalError, match="relativized"):
        hull(V2, pack, ())


def test_member_masks_are_loaded_only_where_the_code_reads_them(monkeypatch):
    # a scan that reads its membership literals through containers loads
    # no member masks; the same interned atoms outside a scan read them
    from finmodel import structure
    from finmodel.oracles import satisfies

    sources = []

    def keeping_compile(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(structure, "compile", keeping_compile, raising=False)
    scan = "Ez ((x in z) & (y in z))"
    for text, loads in ((scan, False), (f"({scan} | ((x in z) & (y in z)))", True)):
        phi = relativize(parse(text))
        for x, y, z in itertools.product(range(V3.size), repeat=3):
            env = {"x": x, "y": y, "z": z}
            assert eval_relativized(V3, range(V3.size), phi, env) == satisfies(V3, phi, env, range(V3.size))
        assert ("members = N.members" in sources[-1]) == loads
