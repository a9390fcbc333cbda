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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import Callable, Iterator, Mapping, Union


class ParseError(ValueError):
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


@dataclass(frozen=True)
class Membership:
    left: Term
    right: Term


@dataclass(frozen=True)
class Equality:
    left: Term
    right: Term


@dataclass(frozen=True)
class Negation:
    body: "Formula"


@dataclass(frozen=True)
class Disjunction:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class BoundedExists:
    """Existential quantifier relativized to the distinguished subset."""

    var: str
    body: "Formula"


Formula = Union[Membership, Equality, Negation, Disjunction, Exists, BoundedExists]

_ATOMS = (Membership, Equality)


# ---------------------------------------------------------------------------
# tokenizer

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*")
_NUM_RE = re.compile(r"[0-9]+")

_RESERVED = {"in"}


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    toks: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "EA":
            kind = "EXISTS" if c == "E" else "FORALL"
            j = i + 1
            if c == "E" and j < n and text[j] == "!":
                kind = "EXISTS_UNIQUE"
                j += 1
            m = _NAME_RE.match(text, j)
            if not m:
                raise ParseError("quantifier must be followed by a variable", i)
            toks.append((kind, m.group(), i))
            i = m.end()
            continue
        if c == "#":
            m = _NUM_RE.match(text, i + 1)
            if not m:
                raise ParseError("constant marker '#' must be followed by digits", i)
            toks.append(("CONST", int(m.group()), i))
            i = m.end()
            continue
        if c == "-":
            if text[i : i + 2] == "->":
                toks.append(("IMPLIES", "->", i))
                i += 2
                continue
            raise ParseError("unexpected character '-'", i)
        if c in "()~|&=.:":
            kind = {
                "(": "LPAR",
                ")": "RPAR",
                "~": "NOT",
                "|": "OR",
                "&": "AND",
                "=": "EQ",
                ".": "DOT",
                ":": "COLON",
            }[c]
            toks.append((kind, c, i))
            i += 1
            continue
        m = _NAME_RE.match(text, i)
        if m:
            name = m.group()
            toks.append(("IN" if name in _RESERVED else "NAME", name, i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(("EOF", None, n))
    return toks


# ---------------------------------------------------------------------------
# parser (recursive descent, normalizing to the core on the way out)


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, object, int]:
        return self.toks[self.pos]

    def next(self) -> tuple[str, object, int]:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> tuple[str, object, int]:
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected {kind}, found {t[0]}", t[2])
        return t

    def parse(self) -> Formula:
        f = self.formula()
        t = self.peek()
        if t[0] != "EOF":
            raise ParseError("trailing input", t[2])
        return f

    def formula(self) -> Formula:
        kind, value, pos = self.peek()
        if kind in ("EXISTS", "FORALL", "EXISTS_UNIQUE"):
            self.next()
            bound = None
            if self.peek()[0] == "COLON":
                self.next()
                bound = self.term()
            if self.peek()[0] == "DOT":
                self.next()
            body = self.formula()
            return self._quantifier(kind, str(value), bound, body)
        if kind == "NOT":
            self.next()
            return Negation(self.formula())
        if kind == "LPAR":
            self.next()
            left = self.formula()
            k, _, p = self.peek()
            if k == "RPAR":
                self.next()
                return left
            if k in ("OR", "AND", "IMPLIES"):
                self.next()
                right = self.formula()
                self.expect("RPAR")
                if k == "OR":
                    return Disjunction(left, right)
                if k == "AND":
                    return _and(left, right)
                return Disjunction(Negation(left), right)
            raise ParseError("expected ')' or a binary connective", p)
        if kind in ("NAME", "CONST"):
            return self.atom()
        raise ParseError(f"unexpected token {kind}", pos)

    def atom(self) -> Formula:
        left = self.term()
        kind, _, pos = self.next()
        if kind == "IN":
            return Membership(left, self.term())
        if kind == "EQ":
            return Equality(left, self.term())
        raise ParseError("expected 'in' or '=' in atom", pos)

    def term(self) -> Term:
        kind, value, pos = self.next()
        if kind == "NAME":
            return Var(str(value))
        if kind == "CONST":
            return Const(int(value))
        raise ParseError("expected a variable or constant", pos)

    def _quantifier(self, kind: str, var: str, bound: Term | None, body: Formula) -> Formula:
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


def _and(left: Formula, right: Formula) -> Formula:
    return Negation(Disjunction(Negation(left), Negation(right)))


def _all_names(phi: Formula) -> set[str]:
    # every quantifier sits above at least one atom, so the bound sets
    # of the terms name every quantified variable
    names: set[str] = set()
    for t, bound in _terms(phi):
        names |= bound
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

    def sub(t: Term, bound: frozenset[str]) -> Term:
        if isinstance(t, Var) and t.name == old and old not in bound:
            return Var(new)
        return t

    return _map_terms(phi, sub)


def parse(text: str) -> Formula:
    """Parse ASCII syntax into a normalized core AST."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# rendering


def render(phi: Formula) -> str:
    """Render a core AST back to concrete syntax.

    ``parse(render(phi)) == phi`` for every parseable core AST.  A
    relativized quantifier renders as ``Ex:M ...`` which the parser
    deliberately rejects: relativized trees travel as JSON, not text.
    """
    if isinstance(phi, Membership):
        return f"{phi.left} in {phi.right}"
    if isinstance(phi, Equality):
        return f"{phi.left} = {phi.right}"
    if isinstance(phi, Negation):
        return "~" + _wrap(phi.body)
    if isinstance(phi, Disjunction):
        return f"({render(phi.left)} | {render(phi.right)})"
    if isinstance(phi, Exists):
        return f"E{phi.var} {_wrap(phi.body)}"
    return f"E{phi.var}:M {_wrap(phi.body)}"


def _wrap(phi: Formula) -> str:
    text = render(phi)
    if isinstance(phi, _ATOMS):
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# structural operations
#
# Every transformation below is a fold over the term occurrences of the
# tree.  The two helpers stay private: a public recursive helper would be
# traced once per node it visits.


def _terms(phi: Formula) -> Iterator[tuple[Term, frozenset[str]]]:
    """Every term occurrence, left to right, with the variables bound above it."""
    stack: list[tuple[Formula, frozenset[str]]] = [(phi, frozenset())]
    while stack:
        f, bound = stack.pop()
        if isinstance(f, _ATOMS):
            yield f.left, bound
            yield f.right, bound
        elif isinstance(f, Negation):
            stack.append((f.body, bound))
        elif isinstance(f, Disjunction):
            stack.append((f.right, bound))
            stack.append((f.left, bound))
        else:
            stack.append((f.body, bound | {f.var}))


def _map_terms(
    phi: Formula,
    fn: Callable[[Term, frozenset[str]], Term],
    quantifier: type | None = None,
    bound: frozenset[str] = frozenset(),
) -> Formula:
    """Rebuild *phi* with each term replaced by ``fn(term, bound)`` and, when
    *quantifier* is given, each quantifier node rebuilt as one.  An atom
    whose terms come back unchanged is kept, not copied."""
    if isinstance(phi, _ATOMS):
        left, right = fn(phi.left, bound), fn(phi.right, bound)
        if left is phi.left and right is phi.right:
            return phi
        return type(phi)(left, right)
    if isinstance(phi, Negation):
        return Negation(_map_terms(phi.body, fn, quantifier, bound))
    if isinstance(phi, Disjunction):
        return Disjunction(
            _map_terms(phi.left, fn, quantifier, bound),
            _map_terms(phi.right, fn, quantifier, bound),
        )
    body = _map_terms(phi.body, fn, quantifier, bound | {phi.var})
    return (quantifier or type(phi))(phi.var, body)


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

    def sub(t: Term, bound: frozenset[str]) -> Term:
        if isinstance(t, Var) and t.name in binding and t.name not in bound:
            return Const(binding[t.name])
        return t

    return _map_terms(phi, sub)


def remap_constants(phi: Formula, remap: Mapping[int, int]) -> Formula:
    """Replace each constant ``#c`` with ``#remap[c]``."""

    def sub(t: Term, bound: frozenset[str]) -> Term:
        return Const(remap[t.ident]) if isinstance(t, Const) else t

    return _map_terms(phi, sub)


def relativize(phi: Formula) -> Formula:
    """Bound every plain existential to the distinguished subset."""
    return _map_terms(phi, lambda t, bound: t, BoundedExists)


def quantifier_depth(phi: Formula) -> int:
    if isinstance(phi, _ATOMS):
        return 0
    if isinstance(phi, Negation):
        return quantifier_depth(phi.body)
    if isinstance(phi, Disjunction):
        return max(quantifier_depth(phi.left), quantifier_depth(phi.right))
    return 1 + quantifier_depth(phi.body)


def subformulas(phi: Formula) -> Iterator[Formula]:
    """Preorder stream of all subformulas, the formula itself first."""
    yield phi
    if isinstance(phi, Negation):
        yield from subformulas(phi.body)
    elif isinstance(phi, Disjunction):
        yield from subformulas(phi.left)
        yield from subformulas(phi.right)
    elif isinstance(phi, (Exists, BoundedExists)):
        yield from subformulas(phi.body)


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
    members = set(pack.formulas)
    return all(s in members for f in pack.formulas for s in subformulas(f))


# ---------------------------------------------------------------------------
# JSON mirror of the node tags


def term_to_json(t: Term) -> dict:
    if isinstance(t, Var):
        return {"var": t.name}
    return {"const": t.ident}


def term_from_json(obj: dict) -> Term:
    if "var" in obj:
        return Var(obj["var"])
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
    return node(*[obj[name] if name == "var" else child(obj[name]) for name in _FIELDS[node]])


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
