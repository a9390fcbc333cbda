import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from finmodel.formula import (
    BoundedExists,
    Const,
    Disjunction,
    Equality,
    Exists,
    FormulaPack,
    Membership,
    Negation,
    ParseError,
    Var,
    constants,
    formula_from_json,
    formula_to_json,
    free_vars,
    is_subformula_closed,
    pack_from_json,
    parse,
    quantifier_depth,
    relativize,
    remap_constants,
    render,
    subformula_closure,
    subformulas,
    substitute,
)

from conftest import FINMODEL_ROOT


def test_parse_empty_set_statement():
    # Ax normalizes to ~Ex~, with no double-negation cleanup
    assert parse("Ex Ay ~(y in x)") == Exists(
        "x", Negation(Exists("y", Negation(Negation(Membership(Var("y"), Var("x"))))))
    )


def test_parse_bare_atom_has_free_vars():
    phi = parse("x in y")
    assert phi == Membership(Var("x"), Var("y"))
    assert free_vars(phi) == ["x", "y"]


def test_parse_constant_atom():
    assert parse("Ex (x in #2)") == Exists("x", Membership(Var("x"), Const(2)))


def test_parse_sugar_conjunction_implication():
    assert parse("(x in y & y in x)") == Negation(
        Disjunction(
            Negation(Membership(Var("x"), Var("y"))),
            Negation(Membership(Var("y"), Var("x"))),
        )
    )
    assert parse("(x = y -> x in y)") == Disjunction(
        Negation(Equality(Var("x"), Var("y"))), Membership(Var("x"), Var("y"))
    )


def test_parse_bounded_sugar():
    # Ex:y phi is Ex ((x in y) and phi)
    phi = parse("Ex:y (x in z)")
    assert phi == Exists(
        "x",
        Negation(
            Disjunction(
                Negation(Membership(Var("x"), Var("y"))),
                Negation(Membership(Var("x"), Var("z"))),
            )
        ),
    )
    assert free_vars(parse("Ax:y (x in z)")) == ["y", "z"]


def test_parse_unique_existence_expands():
    phi = parse("E!x (x in y)")
    # one witness plus uniqueness over a fresh renamed variable
    assert isinstance(phi, Exists)
    assert free_vars(phi) == ["y"]
    assert quantifier_depth(phi) == 2
    assert "x_" in render(phi)


def test_parse_optional_dot():
    assert parse("Ex . (x in y)") == parse("Ex (x in y)")


@pytest.mark.parametrize(
    "bad, pos",
    [
        ("x in", 4),
        ("(x in y", 7),
        ("E (x in y)", 0),
        ("x @ y", 2),
        ("#a", 0),
    ],
)
def test_parse_errors_carry_position(bad, pos):
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert err.value.position == pos


def test_free_vars_known_cases():
    assert free_vars(parse("x in y")) == ["x", "y"]
    assert free_vars(parse("Ex (x in y)")) == ["y"]
    assert free_vars(parse("Ex (x in x)")) == []


def test_substitute_known_cases():
    assert substitute(parse("x in y"), {"x": 0}) == Membership(Const(0), Var("y"))
    assert substitute(parse("Ex (x in y)"), {"y": 1}) == Exists(
        "x", Membership(Var("x"), Const(1))
    )
    closed = parse("Ex (x in x)")
    assert substitute(closed, {}) == closed


def test_substitute_rejects_non_free():
    with pytest.raises(ValueError):
        substitute(parse("Ex (x in y)"), {"x": 0})


def test_relativize_known_cases():
    assert relativize(parse("Ex (x in #0)")) == BoundedExists(
        "x", Membership(Var("x"), Const(0))
    )
    atom = parse("x in y")
    assert relativize(atom) == atom
    assert relativize(parse("Ex Ey (y in x)")) == BoundedExists(
        "x", BoundedExists("y", Membership(Var("y"), Var("x")))
    )


def test_relativize_idempotent_and_preserves_free_vars():
    for text in ["Ex Ay ~(y in x)", "(x in y | Ez (z = x))", "Ex (x in y)"]:
        phi = parse(text)
        rel = relativize(phi)
        assert relativize(rel) == rel
        assert free_vars(rel) == free_vars(phi)


def test_bounded_exists_never_parses():
    rel = relativize(parse("Ex (x in a)"))
    with pytest.raises(ParseError):
        parse(render(rel))


def test_subformula_closure_known_cases():
    one = FormulaPack("p", (parse("Ex (x in a)"),))
    closed = subformula_closure(one)
    assert closed.formulas == (parse("Ex (x in a)"), parse("x in a"))
    assert closed.closed_under_subformulas

    assert subformula_closure(FormulaPack("empty", ())).formulas == ()

    neg = subformula_closure(FormulaPack("n", (parse("~(x = y)"),)))
    assert neg.formulas == (parse("~(x = y)"), parse("x = y"))


def test_subformula_closure_idempotent_and_monotone():
    pack = FormulaPack("p", (parse("Ex (x in y | Ez (z in x))"), parse("x = y")))
    closed = subformula_closure(pack)
    assert subformula_closure(closed).formulas == closed.formulas
    assert is_subformula_closed(closed)
    bigger = FormulaPack("q", pack.formulas + (parse("Eu (u = u)"),))
    assert set(closed.formulas) <= set(subformula_closure(bigger).formulas)


# --- random-AST properties ----------------------------------------------

_names = st.sampled_from(["x", "y", "z", "u", "w"])
_terms = st.one_of(_names.map(Var), st.integers(0, 5).map(Const))


def _formulas(depth: int):
    atoms = st.one_of(
        st.tuples(_terms, _terms).map(lambda p: Membership(*p)),
        st.tuples(_terms, _terms).map(lambda p: Equality(*p)),
    )
    return st.recursive(
        atoms,
        lambda kids: st.one_of(
            kids.map(Negation),
            st.tuples(kids, kids).map(lambda p: Disjunction(*p)),
            st.tuples(_names, kids).map(lambda p: Exists(*p)),
        ),
        max_leaves=2 ** depth,
    )


@given(_formulas(6))
def test_render_parse_round_trip(phi):
    assert parse(render(phi)) == phi


@given(_formulas(4))
def test_relativize_preserves_free_vars_random(phi):
    assert free_vars(relativize(phi)) == free_vars(phi)


@given(_formulas(4))
def test_substitute_is_capture_free(phi):
    free = free_vars(phi)
    if not free:
        return
    binding = {free[0]: 3}
    out = substitute(phi, binding)
    assert free_vars(out) == [v for v in free if v != free[0]]


@given(_formulas(4))
def test_json_round_trip(phi):
    assert formula_from_json(formula_to_json(phi)) == phi
    rel = relativize(phi)
    assert formula_from_json(formula_to_json(rel)) == rel


@given(_formulas(4))
def test_closure_contains_all_subformulas(phi):
    closed = subformula_closure(FormulaPack("t", (phi,)))
    assert set(closed.formulas) == set(subformulas(phi))


@pytest.mark.parametrize("name", [5, None, "x y", "X", "1x", "in", "x); y", ""])
def test_json_readers_reject_names_the_parser_cannot_read(name):
    with pytest.raises(ValueError, match="not a variable name"):
        formula_from_json({"tag": "exists", "var": name, "body": {
            "tag": "equality", "left": {"var": "x"}, "right": {"var": "x"}}})
    with pytest.raises(ValueError, match="not a variable name"):
        formula_from_json({"tag": "equality", "left": {"var": name}, "right": {"const": 0}})
    assert formula_from_json({"tag": "equality", "left": {"var": "x_1"}, "right": {"var": "y"}})


def _deep_chain(depth):
    phi = Membership(Var("x"), Var("y"))
    for i in range(depth):
        phi = Disjunction(Equality(Var("y"), Const(i % 3)), Exists("x", Negation(phi)))
    return phi


def test_deep_formulas_hash_compare_and_transform():
    # 3,000 levels of | over E and ~, far past the default recursion limit
    phi, copy = _deep_chain(3000), _deep_chain(3000)
    assert phi is not copy and hash(phi) == hash(copy) and phi == copy
    assert phi != _deep_chain(2999) and phi != Negation(copy)
    pack = subformula_closure(FormulaPack("deep", (phi,)))
    assert len(pack) == 3 * 3000 + 1 + 3  # the chain's nodes, its atom, the 3 guards
    assert is_subformula_closed(pack)
    assert quantifier_depth(phi) == 3000
    assert render(phi) == render(copy) and render(phi).count(" | ") == 3000
    relativized = relativize(phi)
    assert isinstance(relativized.right, BoundedExists) and relativized == relativize(copy)
    substituted = substitute(phi, {"y": 4})
    assert free_vars(substituted) == [] and constants(substituted) == {0, 1, 2, 4}
    assert remap_constants(substituted, {0: 5, 1: 5, 2: 5, 4: 6}) == remap_constants(
        substitute(copy, {"y": 4}), {0: 5, 1: 5, 2: 5, 4: 6}
    )


def test_deep_texts_parse():
    # texts nested 3,000 deep, far past the default recursion limit; E! is
    # left out because each one copies its body twice
    phi = _deep_chain(3000)
    assert parse(render(phi)) == phi
    atom, other = Membership(Var("x"), Var("y")), Equality(Var("y"), Const(0))
    assert parse("~" * 3000 + "x in y") == _nest(Negation, atom)
    assert parse("(y = #0 | " * 3000 + "x in y" + ")" * 3000) == _nest(lambda f: Disjunction(other, f), atom)
    assert parse("(" * 3000 + "x in y" + " -> y = #0)" * 3000) == _nest(
        lambda f: Disjunction(Negation(f), other), atom
    )
    prefixes = "".join(("Ax ", "Ey:#1 ", "Az:x. ", "Ex.")[i % 4] for i in range(3000))
    assert quantifier_depth(parse(prefixes + "x in y")) == 3000
    pack = subformula_closure(pack_from_json({"formulas": [render(phi)]}))
    assert pack.formulas[0] == phi and len(pack) == 3 * 3000 + 1 + 3


def _nest(wrap, phi):
    for _ in range(3000):
        phi = wrap(phi)
    return phi


# pickles in one interpreter and looks the formula up in another, whose
# string hashes differ
_PICKLE = "import pickle, sys; from finmodel.formula import parse; sys.stdout.buffer.write(pickle.dumps(parse('Ex (x in y | ~(y = #2))')))"
_LOOKUP = "import pickle, sys; from finmodel.formula import parse; phi = pickle.loads(sys.stdin.buffer.read()); print(phi in {parse('Ex (x in y | ~(y = #2))')})"


def test_unpickling_rebuilds_the_hash_in_the_new_interpreter():
    def run(code, seed, data=None):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": FINMODEL_ROOT}
        return subprocess.run([sys.executable, "-c", code], input=data, capture_output=True, env=env, check=True).stdout

    assert run(_LOOKUP, "2", run(_PICKLE, "1")) == b"True\n"
    phi = parse("Ex (x in y | ~(y = #2))")
    assert pickle.loads(pickle.dumps(phi)) == phi and "_hash" not in repr(phi)


@given(_formulas(4), st.randoms(use_true_random=False))
def test_closed_check_agrees_with_the_definition_on_sub_packs(phi, rng):
    closed = subformula_closure(FormulaPack("t", (phi, relativize(phi))))
    for _ in range(4):
        kept = tuple(f for f in closed.formulas if rng.random() < 0.7)
        sub = FormulaPack("s", kept, True)
        members = set(kept)
        by_definition = all(s in members for f in kept for s in subformulas(f))
        assert is_subformula_closed(sub) == by_definition
