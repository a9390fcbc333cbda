"""Finite structures for the one-relation language: satisfaction,
relativized satisfaction, induced substructures, absoluteness and
elementarity for a fixed formula family.

Every evaluation runs generated code.  :func:`compile_formula` turns a
core formula, once per formula object, into one straight-line Python
function, a :class:`CompiledFormula`: each quantifier is a ``for`` loop,
each atom an inline ``(a, b) in pairs`` or ``a == b`` test, and ``|`` and
``~`` short-circuit as Python's ``or`` and ``not`` do.  The structure, the
scope of the relativized quantifiers, the budget and the free-variable
values are arguments of each call, so one compiled formula serves every
structure.  Nothing from the formula is pasted into the source:
variables become generated identifiers and constants call arguments.

Evaluation is exponential in quantifier depth, so every call spends a
:class:`Budget` (by default ``10**8`` steps) and fails with
:class:`BudgetExceededError` instead of hanging.  The charge is exact:
one step per atom reached; ``size`` steps when a plain ``Ex`` starts to
scan N; ``len(scope)`` steps, and at least one, when a relativized one
starts to scan its scope.  The error is raised as soon as the steps
spent exceed the budget.

Valuations are plain dicts from variable names to element identifiers.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, NoReturn

from .formula import (
    BoundedExists,
    Const,
    Disjunction,
    Equality,
    Exists,
    Formula,
    FormulaPack,
    Membership,
    Negation,
    constants,
    free_vars,
    subformulas,
)

DEFAULT_BUDGET = 10**8


class EvalError(ValueError):
    """Unbound variable, dangling constant, or a relativized node where
    none is allowed."""


class BudgetExceededError(RuntimeError):
    """The evaluation-step budget ran out."""


@dataclass(frozen=True)
class FinStructure:
    """A finite universe 0..size-1 with one binary relation.

    ``codes`` optionally records a hereditarily-finite code per element
    (sorted ascending), which the hull/slicing machinery uses to move
    between element identifiers and set-objects.
    """

    size: int
    pairs: frozenset[tuple[int, int]]
    labels: Mapping[int, str] | None = field(default=None, compare=False)
    codes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        for a, b in self.pairs:
            if not (0 <= a < self.size and 0 <= b < self.size):
                raise ValueError(f"relation pair {(a, b)} outside universe 0..{self.size - 1}")
        if self.codes is not None and len(self.codes) != self.size:
            raise ValueError("codes must list one code per element")

    def related(self, a: int, b: int) -> bool:
        return (a, b) in self.pairs

    def elements(self) -> range:
        return range(self.size)


class Budget:
    """A count of evaluation steps, spent by every evaluation it is passed
    to and shared when one budget covers several calls."""

    __slots__ = ("left",)

    def __init__(self, steps: int):
        self.left = steps

    def spend(self, n: int = 1) -> None:
        self.left -= n
        if self.left < 0:
            raise BudgetExceededError("evaluation budget exceeded")


def _exhausted(budget: Budget, left: int) -> NoReturn:
    budget.left = left
    raise BudgetExceededError("evaluation budget exceeded")


# A subformula that would sit deeper than this many nested blocks moves
# to a function of its own: CPython compiles at most 20 nested loops and
# 100 indentation levels in one function.
_SPLIT_DEPTH = 12


class _Generator:
    """Python source for one formula: the entry function ``_f0`` and the
    functions that deep subformulas were split into."""

    def __init__(self, phi: Formula, constants: tuple[int, ...]):
        kinds = {type(f) for f in subformulas(phi)}
        self.relativized = BoundedExists in kinds
        self.fresh = itertools.count()
        self.splits = itertools.count(1)
        self.pending: list[tuple[list[str], Formula, dict[str, str]]] = []
        self.constants = {c: f"k{i}" for i, c in enumerate(constants)}
        # the names the code reads besides its variables, set up once per
        # call and handed to every split function
        self.context = ["budget"]
        self.prologue = []
        if Membership in kinds:
            self.context.append("pairs")
            self.prologue.append("pairs = N.pairs")
        if Exists in kinds:
            self.context += ["size", "universe"]
            self.prologue += ["size = N.size", "universe = range(size)"]
        if self.relativized:
            self.context += ["scope", "nscope"]
            self.prologue.append("nscope = len(scope) or 1")
        if constants:
            self.context += self.constants.values()
            self.prologue.append(f"{', '.join(self.constants.values())}, = consts")

    def source(self, phi: Formula, names: list[str]) -> str:
        env = {name: self.variable() for name in names}
        entry = [f"def _f0({', '.join(['consts', 'N', 'scope', 'budget', *env.values()])}):"]
        entry += [f"    {line}" for line in self.prologue]
        # split functions are written after the one they were split from,
        # so the depth of the Python stack here stays within one function
        self.pending.append((entry, phi, env))
        functions = []
        while self.pending:
            lines, phi, env = self.pending.pop()
            lines.append("    left = budget.left")
            self.emit(phi, env, lines, 1)
            lines += ["    budget.left = left", "    return r"]
            functions.append("\n".join(lines))
        return "\n".join(functions) + "\n"

    def variable(self) -> str:
        return f"v{next(self.fresh)}"

    def split(self, phi: Formula, env: dict[str, str]) -> str:
        """Move *phi* to a function of its own; return the call."""
        name = f"_f{next(self.splits)}"
        params = ", ".join([*self.context, *env.values()])
        self.pending.append(([f"def {name}({params}):"], phi, env))
        return f"{name}({params})"

    def term(self, t, env: dict[str, str]) -> str:
        return self.constants[t.ident] if isinstance(t, Const) else env[t.name]

    def emit(self, phi: Formula, env: dict[str, str], lines: list[str], depth: int) -> None:
        """Statements, indented *depth* levels, that leave phi's truth
        value in ``r`` and spend its steps from ``left``.

        Chains of ``~`` and right-nested ``|`` are followed in a loop, not
        by recursion, so a long chain costs no Python stack."""
        negations = []
        while True:
            pad = "    " * depth
            if isinstance(phi, Negation):
                negations.append(f"{pad}r = not r")
                phi = phi.body
            elif isinstance(phi, Disjunction) and depth <= _SPLIT_DEPTH:
                self.emit(phi.left, env, lines, depth)
                lines.append(f"{pad}if not r:")
                phi, depth = phi.right, depth + 1
            else:
                break
        if isinstance(phi, (Membership, Equality)):
            left, right = self.term(phi.left, env), self.term(phi.right, env)
            test = f"({left}, {right}) in pairs" if isinstance(phi, Membership) else f"{left} == {right}"
            lines += [f"{pad}left -= 1", f"{pad}if left < 0: _exhausted(budget, left)", f"{pad}r = {test}"]
        elif depth > _SPLIT_DEPTH:
            call = self.split(phi, env)
            lines += [f"{pad}budget.left = left", f"{pad}r = {call}", f"{pad}left = budget.left"]
        elif isinstance(phi, (Exists, BoundedExists)):
            # a plain quantifier is charged its scan of N; a bounded one
            # its scope, and at least one step
            charge, scan = ("size", "universe") if isinstance(phi, Exists) else ("nscope", "scope")
            var = self.variable()
            lines += [
                f"{pad}left -= {charge}",
                f"{pad}if left < 0: _exhausted(budget, left)",
                f"{pad}r = False",
                f"{pad}for {var} in {scan}:",
            ]
            self.emit(phi.body, {**env, phi.var: var}, lines, depth + 1)
            lines.append(f"{pad}    if r: break")
        else:
            raise EvalError(f"cannot evaluate node {type(phi).__name__}")
        # each negation applies where its operand ends, innermost first
        lines += reversed(negations)


class CompiledFormula(functools.partial):
    """A core formula compiled to one Python function, for any structure.

    ``cf(N, scope, budget, *values)`` is the formula's truth value in the
    structure N, with its free variables taking *values* in the order of
    :attr:`free_vars`.  A relativized quantifier scans *scope*, a sized
    iterable of elements, which is None for plain evaluation (see
    :meth:`require_scope`); a :class:`Budget` pays for the steps.  The
    constants denote the elements in :attr:`constants`;
    :meth:`with_constants` gives the same test with other elements in
    their places.  Arguments are not validated: the entry points below
    check valuations and constants against the structure first.

    The call is the generated function itself, with the constants bound
    as its first argument, so it costs no Python frame of its own.
    """

    def __new__(cls, phi: Formula) -> "CompiledFormula":
        names, consts = free_vars(phi), tuple(constants(phi))
        gen = _Generator(phi, consts)
        namespace = {"_exhausted": _exhausted}
        exec(compile(gen.source(phi, names), "<formula>", "exec"), namespace)
        self = super().__new__(cls, namespace["_f0"], consts)
        self.free_vars = names
        self.constants = consts
        self.relativized = gen.relativized
        return self

    def with_constants(self, elements: Iterable[int]) -> Callable[..., bool]:
        """The same test with the constants denoting *elements*, position
        by position."""
        return functools.partial(self.func, tuple(elements))

    def require_scope(self, scope) -> None:
        """Raise :class:`EvalError` if a relativized formula gets no scope."""
        if scope is None and self.relativized:
            raise EvalError("relativized quantifier encountered in plain evaluation")


# Compiled code lives exactly as long as its formula object does.  The
# cache goes by identity: hashing a formula walks the whole tree, on
# every lookup, and runs out of stack on deep trees that evaluate fine.
_COMPILED: dict[int, tuple[weakref.ref, CompiledFormula]] = {}


def compile_formula(phi: Formula) -> CompiledFormula:
    """The compiled form of *phi*, made once per formula object."""
    key = id(phi)
    entry = _COMPILED.get(key)
    if entry is not None and entry[0]() is phi:
        return entry[1]
    compiled = CompiledFormula(phi)
    _COMPILED[key] = (weakref.ref(phi, lambda _, key=key: _COMPILED.pop(key, None)), compiled)
    return compiled


def _evaluate(
    N: FinStructure,
    phi: Formula,
    valuation: Mapping[str, int] | None,
    budget: int,
    subset: frozenset[int] | None,
) -> bool:
    """Check the entry valuation and constants, then evaluate; with a
    *subset*, both must lie in it and ``BoundedExists`` scans it."""
    valuation = dict(valuation or {})
    compiled = compile_formula(phi)
    for name in compiled.free_vars:
        if name not in valuation:
            raise EvalError(f"unbound free variable {name!r}")
    for name, value in valuation.items():
        if not (0 <= value < N.size):
            raise EvalError(f"valuation sends {name!r} to {value}, outside the universe")
    for c in compiled.constants:
        if not (0 <= c < N.size):
            raise EvalError(f"dangling constant #{c}")
    if subset is not None:
        for name, value in valuation.items():
            if value not in subset:
                raise EvalError(f"valuation sends {name!r} outside the designated subset")
        for c in compiled.constants:
            if c not in subset:
                raise EvalError(f"constant #{c} lies outside the designated subset")
    scope = None if subset is None else tuple(sorted(subset))
    compiled.require_scope(scope)
    values = [valuation[name] for name in compiled.free_vars]
    return compiled(N, scope, Budget(budget), *values)


def eval_formula(
    N: FinStructure,
    phi: Formula,
    valuation: Mapping[str, int] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Satisfaction of an unrelativized core formula under a valuation."""
    return _evaluate(N, phi, valuation, budget, None)


def eval_relativized(
    N: FinStructure,
    M: Iterable[int],
    phi: Formula,
    valuation: Mapping[str, int] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Satisfaction where ``BoundedExists`` scans only M.

    Plain existentials still scan all of N, so partially relativized
    formulas are legal.  The entry valuation and the formula's constants
    must lie inside M (they play the role of parameters from M); inner
    unbounded witnesses may roam.
    """
    return _evaluate(N, phi, valuation, budget, frozenset(M))


def induced_substructure(N: FinStructure, M: Iterable[int]) -> tuple[FinStructure, dict[int, int]]:
    """Restriction of the relation to M, with the identifier re-map.

    Elements of M are renumbered 0..|M|-1 in ascending order; the
    returned mapping translates old identifiers to new ones so callers
    can translate valuations.
    """
    members = sorted(set(M))
    for m in members:
        if not (0 <= m < N.size):
            raise ValueError(f"element {m} outside universe 0..{N.size - 1}")
    remap = {old: new for new, old in enumerate(members)}
    pairs = frozenset(
        (remap[a], remap[b]) for a, b in N.pairs if a in remap and b in remap
    )
    labels = None
    if N.labels:
        labels = {remap[k]: v for k, v in N.labels.items() if k in remap}
    codes = tuple(N.codes[m] for m in members) if N.codes is not None else None
    return FinStructure(len(members), pairs, labels, codes), remap


@dataclass(frozen=True)
class AbsoluteCheck:
    ok: bool
    counterexample: dict[str, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class ElementarityCheck:
    ok: bool
    formula: Formula | None = None
    counterexample: dict[str, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_absolute(
    M: Iterable[int],
    N: FinStructure,
    phi: Formula,
    budget: int = DEFAULT_BUDGET,
) -> AbsoluteCheck:
    """Does phi agree between the substructure on M and N itself?

    Every valuation of the free variables into M is tried, in
    lexicographic order over ascending element identifiers, and the
    first mismatch is reported (identifiers are N's, not the
    substructure's).  Constants of phi must lie in M, otherwise the
    substructure side is undefined and evaluation errors out.
    """
    members = sorted(set(M))
    sub, remap = induced_substructure(N, members)
    compiled = compile_formula(phi)
    for c in compiled.constants:
        if c not in remap:
            raise EvalError(f"constant #{c} lies outside M")
    compiled.require_scope(None)
    sub_test = compiled.with_constants(remap[c] for c in compiled.constants)
    shared = Budget(budget)
    arity = len(compiled.free_vars)
    # the substructure numbers M in ascending order, so the two products
    # list the same valuations side by side
    for values, sub_values in zip(
        itertools.product(members, repeat=arity),
        itertools.product(range(len(members)), repeat=arity),
    ):
        if compiled(N, None, shared, *values) != sub_test(sub, None, shared, *sub_values):
            return AbsoluteCheck(False, dict(zip(compiled.free_vars, values)))
    return AbsoluteCheck(True)


def is_sigma_elementary(
    M: Iterable[int],
    N: FinStructure,
    pack: FormulaPack,
    budget: int = DEFAULT_BUDGET,
) -> ElementarityCheck:
    """Absoluteness of every pack member, first failure reported."""
    members = sorted(set(M))
    for phi in pack.formulas:
        check = is_absolute(members, N, phi, budget)
        if not check.ok:
            return ElementarityCheck(False, phi, check.counterexample)
    return ElementarityCheck(True)
