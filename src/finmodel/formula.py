"""AST, parser and transformations for a first-order language with a
single binary relation symbol.

The concrete syntax is ASCII.  Variables are lowercase identifiers,
constants are written ``#3`` and denote element identifiers of whatever
structure the formula is later evaluated in.  Atoms are ``t in t`` and
``t = t``.  The connectives ``&`` and ``->``, the quantifiers ``Ax`` and
``E!x`` and the bounded forms ``Ex:t`` / ``Ax:t`` are sugar; everything
normalizes eagerly to the core connectives ``{~, |, E}``.

``BoundedExists`` is the one core node the parser never produces: its
quantifier ranges over a distinguished subset of the evaluation
structure and it only enters a tree through :func:`relativize`.

Text is read by one loop, :func:`parse`, over the tokens of one regex,
with an explicit stack of the prefixes still open.  Trees are walked one
way only, by ``_walk``: a preorder walk from an explicit stack.
Subformulas, terms, quantifier depth, the term rewrites, rendering and
node equality all run on it, and each node stores its hash when it is
built, so formulas of any depth parse, hash, compare, transform and
render.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import Callable, Iterator, Mapping, Union

from .errors import InputError


class ParseError(InputError):
    """Syntax error, carrying the offending position in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    ident: int

    def __str__(self) -> str:
        return f"#{self.ident}"


Term = Union[Var, Const]


class _Node:
    """Hash and equality for formula nodes that never recurse.

    Each node stores its hash when it is built, from its own parts and
    its children's stored hashes.  Equality walks both trees side by side
    and compares each position's node type, hash and parts other than
    subformulas: the preorder sequence of node types fixes the shape of a
    tree.  Pickling rebuilds through the constructor, because string
    hashes differ between interpreters."""

    def __post_init__(self) -> None:
        kind = type(self)
        if kind is Negation:
            key = (kind, self.body._hash)
        elif kind is Disjunction:
            key = (kind, self.left._hash, self.right._hash)
        elif kind in _QUANTIFIERS:
            key = (kind, self.var, self.body._hash)
        else:
            key = (kind, self.left, self.right)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Node):
            return NotImplemented
        for (f, _), (g, _) in zip(_walk(self), _walk(other)):
            if type(f) is not type(g) or f._hash != g._hash:
                return False
            if isinstance(f, _ATOMS) and (f.left, f.right) != (g.left, g.right):
                return False
            if isinstance(f, _QUANTIFIERS) and f.var != g.var:
                return False
        return True

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in _FIELDS[type(self)])


@dataclass(frozen=True, eq=False)
class Membership(_Node):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False)
class Equality(_Node):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False)
class Negation(_Node):
    body: "Formula"


@dataclass(frozen=True, eq=False)
class Disjunction(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False)
class Exists(_Node):
    var: str
    body: "Formula"


@dataclass(frozen=True, eq=False)
class BoundedExists(_Node):
    """Existential quantifier relativized to the distinguished subset."""

    var: str
    body: "Formula"


Formula = Union[Membership, Equality, Negation, Disjunction, Exists, BoundedExists]

_ATOMS = (Membership, Equality)
_QUANTIFIERS = (Exists, BoundedExists)


# ---------------------------------------------------------------------------
# parser: one regex reads the tokens, one loop builds the tree and
# normalizes it to the core on the way out

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*")
_RESERVED = {"in"}

# after any whitespace: a quantifier with its variable, a constant, ``->``,
# a name or any one character; a lone E, A or # is a quantifier or
# constant cut short, and a whitespace character is trailing whitespace
_TOKEN_RE = re.compile(rf"\s*((?:E!?|A){_NAME_RE.pattern}|#[0-9]+|->|{_NAME_RE.pattern}|.)", re.S)
_SYMBOLS = {
    "(": "LPAR",
    ")": "RPAR",
    "~": "NOT",
    "|": "OR",
    "&": "AND",
    "->": "IMPLIES",
    "=": "EQ",
    ".": "DOT",
    ":": "COLON",
}
_QUANTIFIER_KINDS = {"E": "EXISTS", "A": "FORALL", "E!": "EXISTS_UNIQUE"}


def _and(left: Formula, right: Formula) -> Formula:
    return Negation(Disjunction(Negation(left), Negation(right)))


_BINARY = {
    "OR": Disjunction,
    "AND": _and,
    "IMPLIES": lambda left, right: Disjunction(Negation(left), right),
}


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    toks: list[tuple[str, object, int]] = []
    for m in _TOKEN_RE.finditer(text):
        tok, pos = m.group(1), m.start(1)
        c = tok[0]
        if tok in _SYMBOLS:
            toks.append((_SYMBOLS[tok], tok, pos))
        elif tok in ("E", "A"):
            raise ParseError("quantifier must be followed by a variable", pos)
        elif c in "EA":
            head = tok[: 2 if tok[1] == "!" else 1]
            toks.append((_QUANTIFIER_KINDS[head], tok[len(head) :], pos))
        elif tok == "#":
            raise ParseError("constant marker '#' must be followed by digits", pos)
        elif c == "#":
            try:
                value = int(tok[1:])
            except ValueError:  # past the interpreter's limit on digits
                message = f"constant of {len(tok) - 1} digits is too long"
                raise ParseError(message, pos) from None
            toks.append(("CONST", value, pos))
        elif "a" <= c <= "z":
            toks.append(("IN" if tok in _RESERVED else "NAME", tok, pos))
        elif not c.isspace():
            raise ParseError(f"unexpected character {c!r}", pos)
    toks.append(("EOF", None, len(text)))
    return toks


def _term(tok: tuple[str, object, int]) -> Term:
    kind, value, pos = tok
    if kind == "NAME":
        return Var(value)
    if kind == "CONST":
        return Const(value)
    raise ParseError("expected a variable or constant", pos)


def parse(text: str) -> Formula:
    """Parse ASCII syntax into a normalized core AST.

    The whole text is tokenized first, so a bad character is reported
    before any syntax error.  One loop then reads the tokens: it pushes
    each open prefix (a quantifier with its bound, ``~``, ``(``, or a
    binary connective with its left side) onto a stack, and after each
    atom closes every prefix the atom completes.  Nothing recurses, so
    formulas of any depth parse.
    """
    toks = _tokenize(text)
    stack: list[tuple] = []
    i = 0
    while True:
        kind, value, pos = toks[i]
        i += 1
        if kind in ("EXISTS", "FORALL", "EXISTS_UNIQUE"):
            bound = None
            if toks[i][0] == "COLON":
                bound = _term(toks[i + 1])
                i += 2
            if toks[i][0] == "DOT":
                i += 1
            stack.append((kind, value, bound))
            continue
        if kind in ("NOT", "LPAR"):
            stack.append((kind,))
            continue
        if kind not in ("NAME", "CONST"):
            raise ParseError(f"unexpected token {kind}", pos)
        op, _, p = toks[i]
        if op not in ("IN", "EQ"):
            raise ParseError("expected 'in' or '=' in atom", p)
        f = (Membership if op == "IN" else Equality)(_term(toks[i - 1]), _term(toks[i + 1]))
        i += 2
        while stack:
            top = stack.pop()
            k, _, p = toks[i]
            if top[0] == "LPAR":
                if k in _BINARY:
                    stack.append((k, f))
                    i += 1
                    break
                if k != "RPAR":
                    raise ParseError("expected ')' or a binary connective", p)
                i += 1
            elif top[0] in _BINARY:
                if k != "RPAR":
                    raise ParseError(f"expected RPAR, found {k}", p)
                i += 1
                f = _BINARY[top[0]](top[1], f)
            elif top[0] == "NOT":
                f = Negation(f)
            else:
                f = _quantifier(*top, f)
        else:  # every prefix is closed: the formula is complete
            if toks[i][0] != "EOF":
                raise ParseError("trailing input", toks[i][2])
            return f


def _quantifier(kind: str, var: str, bound: Term | None, body: Formula) -> Formula:
    if bound is not None:
        guard = Membership(Var(var), bound)
        if kind == "EXISTS":
            return Exists(var, _and(guard, body))
        if kind == "FORALL":
            return Negation(Exists(var, _and(guard, Negation(body))))
        raise ParseError("E! does not take a bound", 0)
    if kind == "EXISTS":
        return Exists(var, body)
    if kind == "FORALL":
        return Negation(Exists(var, Negation(body)))
    # E!x phi: some x satisfies phi and any y satisfying phi[x:=y] equals x
    fresh = _fresh_var(var, body)
    renamed = _rename_free(body, var, fresh)
    unique = Negation(
        Exists(fresh, Negation(Disjunction(Negation(renamed), Equality(Var(fresh), Var(var)))))
    )
    return Exists(var, _and(body, unique))


def _all_names(phi: Formula) -> set[str]:
    # every quantifier sits above at least one atom, so the variables
    # bound above the terms are every quantified variable
    names: set[str] = set()
    for t, bound in _terms(phi):
        names.update(bound)
        if isinstance(t, Var):
            names.add(t.name)
    return names


def _fresh_var(base: str, phi: Formula) -> str:
    taken = _all_names(phi) | {base}
    candidate = base + "_"
    while candidate in taken:
        candidate += "_"
    return candidate


def _rename_free(phi: Formula, old: str, new: str) -> Formula:
    """Rename free occurrences of *old* to *new* (new must be fresh)."""

    def sub(t: Term, bound: tuple[str, ...]) -> Term:
        if isinstance(t, Var) and t.name == old and old not in bound:
            return Var(new)
        return t

    return _map_terms(phi, sub)


# ---------------------------------------------------------------------------
# rendering


def render(phi: Formula) -> str:
    """Render a core AST back to concrete syntax.

    ``parse(render(phi)) == phi`` for every parseable core AST.  A
    relativized quantifier renders as ``Ex:M ...`` which the parser
    deliberately rejects: relativized trees travel as JSON, not text.
    The walk is read backwards, as in :func:`_map_terms`.
    """
    done: list[str] = []
    for f, _ in reversed(list(_walk(phi))):
        kind = type(f)
        if kind is Membership:
            done.append(f"{f.left} in {f.right}")
        elif kind is Equality:
            done.append(f"{f.left} = {f.right}")
        elif kind is Disjunction:
            done.append(f"({done.pop()} | {done.pop()})")
        else:
            body = f"({done.pop()})" if isinstance(f.body, _ATOMS) else done.pop()
            prefix = "~" if kind is Negation else f"E{f.var} " if kind is Exists else f"E{f.var}:M "
            done.append(prefix + body)
    return done.pop()


# ---------------------------------------------------------------------------
# structural operations
#
# Every traversal below runs on :func:`_walk`, one explicit-stack preorder
# walk, so none of them recurses and each takes trees of any depth.  The
# helpers stay private: a public helper would be traced once per call.


def _walk(phi: Formula) -> Iterator[tuple[Formula, tuple[str, ...]]]:
    """Every subformula in preorder, the formula itself first, with the
    variables quantified above it, outermost first."""
    stack: list[tuple[Formula, tuple[str, ...]]] = [(phi, ())]
    while stack:
        f, bound = stack.pop()
        yield f, bound
        kind = type(f)
        if kind is Disjunction:
            stack += ((f.right, bound), (f.left, bound))
        elif kind is Negation:
            stack.append((f.body, bound))
        elif kind in _QUANTIFIERS:
            stack.append((f.body, (*bound, f.var)))


def _terms(phi: Formula) -> Iterator[tuple[Term, tuple[str, ...]]]:
    """Every term occurrence, left to right, with the variables bound above it."""
    for f, bound in _walk(phi):
        if isinstance(f, _ATOMS):
            yield f.left, bound
            yield f.right, bound


def _map_terms(
    phi: Formula,
    fn: Callable[[Term, tuple[str, ...]], Term],
    quantifier: type | None = None,
) -> Formula:
    """Rebuild *phi* with each term replaced by ``fn(term, bound)`` and, when
    *quantifier* is given, each quantifier node rebuilt as one.  An atom
    whose terms come back unchanged is kept, not copied.  The walk is read
    backwards, so each node meets its children rebuilt on the stack."""
    done: list[Formula] = []
    for f, bound in reversed(list(_walk(phi))):
        kind = type(f)
        if kind is Negation:
            done.append(Negation(done.pop()))
        elif kind is Disjunction:
            done.append(Disjunction(done.pop(), done.pop()))
        elif kind in _QUANTIFIERS:
            done.append((quantifier or kind)(f.var, done.pop()))
        else:
            left, right = fn(f.left, bound), fn(f.right, bound)
            done.append(f if left is f.left and right is f.right else kind(left, right))
    return done.pop()


def free_vars(phi: Formula) -> list[str]:
    """Free variables in first-occurrence order."""
    free = (t.name for t, bound in _terms(phi) if isinstance(t, Var) and t.name not in bound)
    return list(dict.fromkeys(free))


def constants(phi: Formula) -> set[int]:
    return {t.ident for t, _ in _terms(phi) if isinstance(t, Const)}


def substitute(phi: Formula, binding: Mapping[str, int]) -> Formula:
    """Replace free occurrences of variables with constants.

    Constants are never variables, so the substitution cannot capture.
    Binding a variable that is not free in *phi* is rejected.
    """
    free = set(free_vars(phi))
    for name in binding:
        if name not in free:
            raise ValueError(f"variable {name!r} is not free in the formula")

    def sub(t: Term, bound: tuple[str, ...]) -> Term:
        if isinstance(t, Var) and t.name in binding and t.name not in bound:
            return Const(binding[t.name])
        return t

    return _map_terms(phi, sub)


def remap_constants(phi: Formula, remap: Mapping[int, int]) -> Formula:
    """Replace each constant ``#c`` with ``#remap[c]``."""

    def sub(t: Term, bound: tuple[str, ...]) -> Term:
        return Const(remap[t.ident]) if isinstance(t, Const) else t

    return _map_terms(phi, sub)


def relativize(phi: Formula) -> Formula:
    """Bound every plain existential to the distinguished subset."""
    return _map_terms(phi, lambda t, bound: t, BoundedExists)


def quantifier_depth(phi: Formula) -> int:
    """The most quantifiers any atom sits under."""
    return max(len(bound) for f, bound in _walk(phi) if isinstance(f, _ATOMS))


def subformulas(phi: Formula) -> Iterator[Formula]:
    """Preorder stream of all subformulas, the formula itself first."""
    for f, _ in _walk(phi):
        yield f


# ---------------------------------------------------------------------------
# formula packs


@dataclass(frozen=True)
class FormulaPack:
    name: str
    formulas: tuple[Formula, ...]
    closed_under_subformulas: bool = False

    def __len__(self) -> int:
        return len(self.formulas)

    def __iter__(self) -> Iterator[Formula]:
        return iter(self.formulas)


def subformula_closure(pack: FormulaPack) -> FormulaPack:
    """Close a pack under subformulas, deduplicating structurally.

    Members come first in their original order, newly discovered
    subformulas follow in discovery order.  Idempotent.
    """
    seen: dict[Formula, None] = {}
    for f in pack.formulas:
        for sub in subformulas(f):
            seen.setdefault(sub, None)
    return FormulaPack(pack.name, tuple(seen), closed_under_subformulas=True)


def is_subformula_closed(pack: FormulaPack) -> bool:
    # by induction on depth, every subformula of a member is a member once
    # every member's immediate subformulas are
    members = set(pack.formulas)
    return all(
        child in members
        for f in pack.formulas
        if not isinstance(f, _ATOMS)
        for child in ((f.left, f.right) if isinstance(f, Disjunction) else (f.body,))
    )


# ---------------------------------------------------------------------------
# JSON mirror of the node tags


def term_to_json(t: Term) -> dict:
    if isinstance(t, Var):
        return {"var": t.name}
    return {"const": t.ident}


def _name_from_json(name) -> str:
    """A variable name read from JSON, which must be one the parser reads."""
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name) or name in _RESERVED:
        raise ValueError(f"not a variable name: {name!r}")
    return name


def term_from_json(obj: dict) -> Term:
    if "var" in obj:
        return Var(_name_from_json(obj["var"]))
    if "const" in obj:
        return Const(int(obj["const"]))
    raise ValueError(f"not a term: {obj!r}")


_NODE_OF_TAG = {
    "membership": Membership,
    "equality": Equality,
    "negation": Negation,
    "disjunction": Disjunction,
    "exists": Exists,
    "bounded_exists": BoundedExists,
}
_TAG_OF_NODE = {node: tag for tag, node in _NODE_OF_TAG.items()}
# field names in declaration order; ``var`` holds a name, the rest hold
# terms in an atom and subformulas elsewhere
_FIELDS = {node: tuple(f.name for f in fields(node)) for node in _TAG_OF_NODE}


def formula_to_json(phi: Formula) -> dict:
    node = type(phi)
    out: dict = {"tag": _TAG_OF_NODE[node]}
    child = term_to_json if node in _ATOMS else formula_to_json
    for name in _FIELDS[node]:
        value = getattr(phi, name)
        out[name] = value if name == "var" else child(value)
    return out


def formula_from_json(obj: dict) -> Formula:
    tag = obj.get("tag")
    node = _NODE_OF_TAG.get(tag) if isinstance(tag, str) else None
    if node is None:
        raise ValueError(f"unknown formula tag: {tag!r}")
    child = term_from_json if node in _ATOMS else formula_from_json
    return node(*[_name_from_json(obj[name]) if name == "var" else child(obj[name]) for name in _FIELDS[node]])


def pack_to_json(pack: FormulaPack) -> dict:
    return {
        "name": pack.name,
        "formulas": [formula_to_json(f) for f in pack.formulas],
        "closed_under_subformulas": pack.closed_under_subformulas,
    }


def pack_from_json(obj: dict) -> FormulaPack:
    formulas = []
    for item in obj["formulas"]:
        formulas.append(parse(item) if isinstance(item, str) else formula_from_json(item))
    return FormulaPack(
        obj.get("name", "pack"),
        tuple(formulas),
        bool(obj.get("closed_under_subformulas", False)),
    )
