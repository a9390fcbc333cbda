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
Subformulas, terms, quantifier depth, the term rewrites, rendering,
``repr`` and the JSON writer all run on it.  Nodes are interned:
building a node equal to a live one returns that node, so equal
formulas are one object, equality is identity and each node's hash is
stored once, when it is built.  They are plain classes, frozen, that
print as their constructor calls, and pickle and copy as a flat table of
distinct nodes.  Terms are ``NamedTuple`` records.  Formulas of any
depth parse, hash, compare, transform, render, print, pickle, copy and
go to and from JSON objects.
"""

from __future__ import annotations

import re
import weakref
from typing import Callable, Iterator, Mapping, NamedTuple, Union
from _weakref import _remove_dead_weakref

from .errors import InputError, read_int, read_only


class ParseError(InputError):
    """Syntax error, carrying the offending position in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Var(NamedTuple):
    name: str

    def __str__(self) -> str:
        return self.name


class Const(NamedTuple):
    ident: int

    def __str__(self) -> str:
        return f"#{self.ident}"


Term = Union[Var, Const]


class _Ref(weakref.ref):
    __slots__ = ("key",)


# every live node, as a weak reference under its type and its parts; a
# dead node's callback drops its entry
_INTERNED: dict[tuple, _Ref] = {}


def _forget(ref: _Ref, table: dict = _INTERNED, remove=_remove_dead_weakref) -> None:
    # bound as defaults, so a node dying at interpreter exit still finds them
    remove(table, ref.key)


class _Node:
    """Formula nodes are interned (hash-consed): building a node equal to
    a live one returns that node, so equal formulas are one object and
    equality is identity.  A new node stores its hash, taken from its
    type, its other parts and its children's stored hashes.  Pickling,
    ``copy`` and ``deepcopy`` rebuild through the constructor from a
    flat table, so they return the interned node, take formulas of any
    depth and take the hash afresh, because string hashes differ
    between interpreters.  Nodes print as their constructor calls."""

    def __new__(cls, *parts, **named):
        names = _FIELDS[cls]
        if named:
            parts += tuple(named.pop(name) for name in names[len(parts) :] if name in named)
        if named or len(parts) != len(names):
            raise TypeError(f"{cls.__name__} takes the parts {', '.join(names)}")
        key = (cls, *parts)
        ref = _INTERNED.get(key)
        node = ref and ref()
        if node is None:
            node = object.__new__(cls)
            vars(node).update(zip(names, parts), _hash=hash(key))
            ref = _INTERNED[key] = _Ref(node, _forget)
            ref.key = key
        return node

    def __hash__(self) -> int:
        return self._hash

    __setattr__ = __delattr__ = read_only

    def __repr__(self) -> str:
        # printed in preorder: each node's text is cut at its children,
        # and the pieces after a child wait on a stack until it is printed
        out: list[str] = []
        waiting: list[list[str]] = []  # per open node, its pieces to come, last first
        for f, _ in _walk(self):
            pieces, text = [], f"{type(f).__name__}("
            for i, (name, value) in enumerate(zip(_FIELDS[type(f)], _parts(f))):
                text += f"{', ' if i else ''}{name}="
                if isinstance(value, _Node):
                    pieces.append(text)
                    text = ""
                else:
                    text += repr(value)
            pieces.append(text + ")")
            out.append(pieces[0])
            if len(pieces) > 1:
                waiting.append(pieces[:0:-1])
                continue
            while waiting:  # f is printed: so is every node it completes
                rest = waiting[-1]
                out.append(rest.pop())
                if rest:
                    break
                waiting.pop()
        return "".join(out)

    def __reduce__(self):
        # each distinct node once, after its children, which stand as
        # their places in the table
        place: dict[_Node, int] = {}
        for f, _ in reversed(list(_walk(self))):
            place.setdefault(f, len(place))
        table = [(type(f), *[place[p] if isinstance(p, _Node) else p for p in _parts(f)]) for f in place]
        return _unpickle, (tuple(table),)


def _parts(f: "Formula") -> tuple:
    return tuple(getattr(f, name) for name in _FIELDS[type(f)])


def _unpickle(table: tuple) -> "Formula":
    built: list[Formula] = []
    for kind, *parts in table:
        built.append(kind(*[built[p] if type(p) is int else p for p in parts]))
    return built[-1]


class Membership(_Node):
    left: Term
    right: Term


class Equality(_Node):
    left: Term
    right: Term


class Negation(_Node):
    body: "Formula"


class Disjunction(_Node):
    left: "Formula"
    right: "Formula"


class Exists(_Node):
    var: str
    body: "Formula"


class BoundedExists(_Node):
    """Existential quantifier relativized to the distinguished subset."""

    var: str
    body: "Formula"


# field names in declaration order; ``var`` holds a name, the rest hold
# terms in an atom and subformulas elsewhere
_FIELDS = {
    Membership: ("left", "right"),
    Equality: ("left", "right"),
    Negation: ("body",),
    Disjunction: ("left", "right"),
    Exists: ("var", "body"),
    BoundedExists: ("var", "body"),
}

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
            stack.append((kind, value, bound, pos))
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


# E!x copies its body twice, so each E! around another doubles the tree:
# past this many nodes in one body, the E! is a parse error
_UNIQUE_BODY_NODES = 10_000


def _quantifier(kind: str, var: str, bound: Term | None, pos: int, body: Formula) -> Formula:
    if bound is not None:
        guard = Membership(Var(var), bound)
        if kind == "EXISTS":
            return Exists(var, _and(guard, body))
        if kind == "FORALL":
            return Negation(Exists(var, _and(guard, Negation(body))))
        raise ParseError("E! does not take a bound", pos)
    if kind == "EXISTS":
        return Exists(var, body)
    if kind == "FORALL":
        return Negation(Exists(var, Negation(body)))
    # E!x phi: some x satisfies phi and any y satisfying phi[x:=y] equals x
    nodes = sum(1 for _ in _walk(body))
    if nodes > _UNIQUE_BODY_NODES:
        raise ParseError(f"E! body of {nodes} nodes exceeds the bound of {_UNIQUE_BODY_NODES}", pos)
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
    *quantifier* is given, each quantifier node rebuilt as one.  The walk
    is read backwards, so each node meets its children rebuilt on the
    stack."""
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
            done.append(kind(fn(f.left, bound), fn(f.right, bound)))
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


class FormulaPack:
    """A named family of formulas; frozen, and equal by its three fields."""

    def __init__(self, name: str, formulas: tuple[Formula, ...], closed_under_subformulas: bool = False):
        vars(self).update(name=name, formulas=formulas, closed_under_subformulas=closed_under_subformulas)

    def _key(self) -> tuple:
        return self.name, self.formulas, self.closed_under_subformulas

    def __repr__(self) -> str:
        return "FormulaPack(name={!r}, formulas={!r}, closed_under_subformulas={!r})".format(*self._key())

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is FormulaPack else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    __setattr__ = __delattr__ = read_only

    def __len__(self) -> int:
        return len(self.formulas)

    def __iter__(self) -> Iterator[Formula]:
        return iter(self.formulas)


def subformula_closure(pack: FormulaPack) -> FormulaPack:
    """Close a pack under subformulas, deduplicating structurally.

    Each member, in order, is followed by those of its subformulas not
    yet listed, in preorder: (``Ex (x in y)``, ``y = y``, ``x in y``)
    closes to (``Ex (x in y)``, ``x in y``, ``y = y``).  Hull traces
    follow this order.  Idempotent.
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
        return Const(read_int(obj["const"], "a constant"))
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


def formula_to_json(phi: Formula) -> dict:
    # built from the leaves up, as :func:`_map_terms` builds trees
    done: list[dict] = []
    for f, _ in reversed(list(_walk(phi))):
        node = type(f)
        out: dict = {"tag": _TAG_OF_NODE[node]}
        for name, value in zip(_FIELDS[node], _parts(f)):
            out[name] = value if name == "var" else term_to_json(value) if node in _ATOMS else done.pop()
        done.append(out)
    return done.pop()


def formula_from_json(obj: dict) -> Formula:
    """The formula *obj* holds.  Objects are read in preorder from an
    explicit stack, each key looked up when a recursive reader would
    look it up, so the first fault found is the same; the nodes are then
    built from the leaves up."""
    read: list[tuple] = []  # (node, its parts other than subformulas)
    todo: list[tuple] = [((obj,), 0)]  # (object, key) of each formula to read
    while todo:
        holder, key = todo.pop()
        obj = holder[key]
        tag = obj.get("tag")
        node = _NODE_OF_TAG.get(tag) if isinstance(tag, str) else None
        if node is None:
            raise ValueError(f"unknown formula tag: {tag!r}")
        if node in _ATOMS:
            read.append((node, term_from_json(obj["left"]), term_from_json(obj["right"])))
            continue
        read.append((node, _name_from_json(obj["var"])) if node in _QUANTIFIERS else (node,))
        todo += [(obj, name) for name in reversed(_FIELDS[node]) if name != "var"]
    done: list[Formula] = []
    for node, *parts in reversed(read):
        done.append(node(*parts, *[done.pop() for _ in range(len(_FIELDS[node]) - len(parts))]))
    return done.pop()


def pack_from_json(obj: dict) -> FormulaPack:
    formulas = []
    for item in obj["formulas"]:
        formulas.append(parse(item) if isinstance(item, str) else formula_from_json(item))
    return FormulaPack(
        obj.get("name", "pack"),
        tuple(formulas),
        bool(obj.get("closed_under_subformulas", False)),
    )
