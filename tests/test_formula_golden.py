"""Golden digests for the formula transformations.

The digests were recorded from the hand-written recursions that the
traversal helpers in ``finmodel.formula`` replaced; any change to what
these functions return, including JSON key order and error messages,
changes a digest.
"""

import hashlib
import json

from finmodel.corpus import random_formula
from finmodel.formula import (
    Disjunction,
    Equality,
    Exists,
    Membership,
    Negation,
    Var,
    constants,
    formula_from_json,
    formula_to_json,
    free_vars,
    parse,
    relativize,
    remap_constants,
    render,
    substitute,
)

from conftest import seeded

# sugar whose expansion renames or invents variables, shadowing included
TEXTS = [
    "E!x ((x in y) | Ex (x in x))",
    "E!x (x in y)",
    "E!x E!y (x = y)",
    "E!x (x_ in x)",
    "E!x ((x in y) | Ex_ (x_ = x))",
    "Ex E!x (x in #1)",
    "Ax:y (x in z)",
    "Ex:#2 Ay (y in x)",
    "(x in y & y in x)",
    "(x = y -> x in y)",
    "Ax E!y Ez:x ((y in z) -> ~(z = #1))",
]

MALFORMED = [
    {"tag": "nope"},
    {"tag": ["membership"]},
    {},
    {"tag": "membership", "left": {"x": 1}, "right": {"var": "y"}},
    {"tag": "equality", "left": {"var": "x"}},
    {"tag": "negation"},
    {"tag": "exists", "body": {"tag": "equality", "left": {"const": 0}, "right": {"const": 1}}},
    {"tag": "disjunction", "left": {"tag": "bounded"}, "right": {"tag": "negation"}},
]


def _shadow(rng, phi):
    """Wrap random subformulas in quantifiers over names that may already
    be bound above or below them."""
    if isinstance(phi, Negation):
        phi = Negation(_shadow(rng, phi.body))
    elif isinstance(phi, Disjunction):
        phi = Disjunction(_shadow(rng, phi.left), _shadow(rng, phi.right))
    elif isinstance(phi, Exists):
        phi = Exists(phi.var, _shadow(rng, phi.body))
    if rng.random() < 0.15:
        phi = Exists(rng.choice("xyz"), phi)
    return phi


def _corpus():
    rng = seeded(505)
    return [
        _shadow(rng, random_formula(rng, depth, max_const=4))
        for depth in [0] * 20 + [1] * 60 + [2] * 60 + [3] * 40
    ]


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (ValueError, KeyError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _record(phi):
    free = free_vars(phi)
    consts = sorted(constants(phi))
    binding = {name: i for i, name in enumerate(free)}
    rel = relativize(phi)
    return [
        render(phi),
        repr(parse(render(phi))),
        free,
        consts,
        _outcome(substitute, phi, binding),
        _outcome(substitute, phi, dict(list(binding.items())[:1])),
        [_outcome(substitute, phi, {name: 0}) for name in "xyz" if name not in free],
        repr(rel),
        _outcome(remap_constants, phi, {c: 7 - c for c in consts}),
        _outcome(remap_constants, phi, {c: c for c in consts[1:]}),
        formula_to_json(phi),
        formula_to_json(rel),
        repr(formula_from_json(formula_to_json(rel))),
    ]


def _digest(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(json.dumps(record).encode())
    return digest.hexdigest()


def test_unique_existence_keeps_a_rebinding_quantifier():
    # the uniqueness copy renames the free x only: the inner Ex binds its own x
    phi = parse("E!x ((x in y) | Ex (x in x))")
    body = Disjunction(Membership(Var("x"), Var("y")), Exists("x", Membership(Var("x"), Var("x"))))
    renamed = Disjunction(Membership(Var("x_"), Var("y")), Exists("x", Membership(Var("x"), Var("x"))))
    same = Equality(Var("x_"), Var("x"))
    unique = Negation(Exists("x_", Negation(Disjunction(Negation(renamed), same))))
    assert phi == Exists("x", Negation(Disjunction(Negation(body), Negation(unique))))
    assert free_vars(phi) == ["y"]


def test_formula_transformations_match_recorded_digests():
    corpus = _corpus()
    assert len(corpus) == 180
    assert _digest(_record(phi) for phi in corpus) == (
        "5b564c91d1631e06781e0c9d0f61beb026f06810ee04889d90c8518f047ca8d3"
    )
    assert _digest(_record(parse(text)) for text in TEXTS) == (
        "6a14898b803dcd025cb1620c90b622467cb77302a1e4b5bdf9a6032a2a521fe1"
    )
    assert _digest(_outcome(formula_from_json, obj) for obj in MALFORMED) == (
        "5407816905ebb1fca742b02226a429b432089bd2e4757a4a185b539a7f37d7ff"
    )
