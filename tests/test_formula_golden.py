"""Golden digests for the formula transformations.

The digests were recorded from the hand-written recursions that the
traversal helpers in ``finmodel.formula`` replaced; any change to what
these functions return, including JSON key order and error messages,
changes a digest.  The parse-outcome digest was recorded from the
recursive-descent parser that the one-loop ``parse`` replaced: it pins
each text's parse result, or its ``ParseError`` message and position.
It was re-recorded once, when a bounded ``E!`` came to be reported at
its own position instead of at position 0; no other outcome changed.
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
    ParseError,
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


def _sugared(rng, phi) -> str:
    """Text for *phi* with random sugar: ``A``, ``E!``, bounds, dots, ``&``
    and ``->`` where the tree has their shape or at random.  The text need
    not denote *phi*; it only has to exercise the parser."""
    if isinstance(phi, (Membership, Equality)):
        text = f"{phi.left} {'in' if isinstance(phi, Membership) else '='} {phi.right}"
        return f"({text})" if rng.random() < 0.3 else text
    if isinstance(phi, Disjunction):
        left, op = phi.left, "|"
        if isinstance(left, Negation) and rng.random() < 0.5:
            left, op = left.body, "->"
        elif rng.random() < 0.2:
            op = "&"
        return f"({_sugared(rng, left)} {op} {_sugared(rng, phi.right)})"
    body = phi.body
    if isinstance(phi, Negation):
        if isinstance(body, Exists) and isinstance(body.body, Negation) and rng.random() < 0.6:
            head, body = f"A{body.var}", body.body.body
        elif isinstance(body, Disjunction) and rng.random() < 0.5:
            return f"({_sugared(rng, body.left)} & {_sugared(rng, body.right)})"
        else:
            return "~" + _sugared(rng, body)
    else:
        head = f"E{'!' if rng.random() < 0.15 else ''}{phi.var}"
    if rng.random() < 0.3:
        head += f":{rng.choice(['x', 'y', 'z', '#0', '#3'])}"
    if rng.random() < 0.3:
        head += rng.choice([".", " .", ". "])
    return f"{head}{rng.choice([' ', '  ', chr(9)])}{_sugared(rng, body)}"


_INSERTS = "()~|&-=>.:#!EAxyz019 _Bé\x1c\x85\xa0"
_SOUP = [
    "(", ")", "~", "|", "&", "->", "-", ">", "=", ".", ":", "#", "#0", "#12", "!",
    "E", "A", "E!", "Ex", "Ay", "E!z", "Ein", "x", "y", "in", "x_1", "0", "7",
    "B", "Z", "é", "Ω", "x in y", " ", " ", " ", "\t", "\n", "\x1c", "\x85", "\xa0",
]


def _parse_texts():
    """Renders with sugar, single-character edits and cuts of them, and
    token soups."""
    rng = seeded(1212)
    texts = []
    for k in range(1500):
        text = _sugared(rng, random_formula(rng, k % 4, max_const=4))
        texts.append(text)
        for _ in range(4):
            i = rng.randrange(len(text))
            texts.append(text[:i] + text[i + 1 :])
            texts.append(text[:i] + rng.choice(_INSERTS) + text[i:])
        texts.append(text[: rng.randrange(len(text))])
        texts.append(text[rng.randrange(len(text)) :])
    for _ in range(6000):
        texts.append("".join(rng.choice(_SOUP) for _ in range(rng.randint(1, 12))))
    return texts


def _parse_outcome(text):
    try:
        return render(parse(text))
    except ParseError as exc:
        return [str(exc), exc.position]


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


def test_parse_outcomes_match_recorded_digest():
    texts = _parse_texts()
    assert len(texts) == 22500
    assert _digest(_parse_outcome(text) for text in texts) == (
        "18f41df76048dcdc8bc63da42cf88790049731eea6e9613bdd70a389c47d4614"
    )
