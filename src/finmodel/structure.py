"""Finite structures for the one-relation language: satisfaction,
relativized satisfaction, induced substructures, absoluteness and
elementarity for a fixed formula family.

Evaluation is the textbook recursion: atoms look at the relation,
``|`` and ``~`` are classical, ``Ex`` scans every element.  That makes
it exponential in quantifier depth, so every entry point takes a work
budget (default ``10**8`` steps) and fails with
:class:`BudgetExceededError` instead of hanging.

Valuations are plain dicts from variable names to element identifiers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

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
    remap_constants,
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


_MISSING = object()


class _Budget:
    __slots__ = ("left",)

    def __init__(self, steps: int):
        self.left = steps

    def spend(self, n: int = 1) -> None:
        self.left -= n
        if self.left < 0:
            raise BudgetExceededError("evaluation budget exceeded")


def _compile(phi: Formula, N: FinStructure, bounded: tuple[int, ...] | None) -> Callable:
    """Build an evaluator closure ``fn(env, budget) -> bool``.

    *bounded* is the sorted element list a ``BoundedExists`` scans, or
    None when relativized nodes are illegal.
    """
    pairs = N.pairs
    size = N.size

    def term(t):
        if isinstance(t, Const):
            ident = t.ident
            return lambda env: ident
        name = t.name
        return lambda env: env[name]

    if isinstance(phi, Membership):
        lt, rt = term(phi.left), term(phi.right)

        def ev_mem(env, budget):
            budget.spend()
            return (lt(env), rt(env)) in pairs

        return ev_mem
    if isinstance(phi, Equality):
        lt, rt = term(phi.left), term(phi.right)

        def ev_eq(env, budget):
            budget.spend()
            return lt(env) == rt(env)

        return ev_eq
    if isinstance(phi, Negation):
        body = _compile(phi.body, N, bounded)
        return lambda env, budget: not body(env, budget)
    if isinstance(phi, Disjunction):
        left = _compile(phi.left, N, bounded)
        right = _compile(phi.right, N, bounded)
        return lambda env, budget: left(env, budget) or right(env, budget)
    if isinstance(phi, (Exists, BoundedExists)):
        # a plain quantifier scans N and is charged its size; a bounded one
        # is charged at least one step, and its scope is read at call time
        if isinstance(phi, Exists):
            scope, least = range(size), 0
        elif bounded is None:
            raise EvalError("relativized quantifier encountered in plain evaluation")
        else:
            scope, least = bounded, 1
        var = phi.var
        body = _compile(phi.body, N, bounded)

        def ev_ex(env, budget):
            budget.spend(len(scope) or least)
            shadowed = env.get(var, _MISSING)
            found = False
            for a in scope:
                env[var] = a
                if body(env, budget):
                    found = True
                    break
            if shadowed is _MISSING:
                env.pop(var, None)
            else:
                env[var] = shadowed
            return found

        return ev_ex
    raise EvalError(f"cannot evaluate node {type(phi).__name__}")


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
    for name in free_vars(phi):
        if name not in valuation:
            raise EvalError(f"unbound free variable {name!r}")
    for name, value in valuation.items():
        if not (0 <= value < N.size):
            raise EvalError(f"valuation sends {name!r} to {value}, outside the universe")
    consts = constants(phi)
    for c in consts:
        if not (0 <= c < N.size):
            raise EvalError(f"dangling constant #{c}")
    if subset is not None:
        for name, value in valuation.items():
            if value not in subset:
                raise EvalError(f"valuation sends {name!r} outside the designated subset")
        for c in consts:
            if c not in subset:
                raise EvalError(f"constant #{c} lies outside the designated subset")
    fn = _compile(phi, N, None if subset is None else tuple(sorted(subset)))
    return fn(valuation, _Budget(budget))


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
    for c in constants(phi):
        if c not in remap:
            raise EvalError(f"constant #{c} lies outside M")
    phi_sub = remap_constants(phi, remap)
    names = free_vars(phi)
    host_fn = _compile(phi, N, None)
    sub_fn = _compile(phi_sub, sub, None)
    shared = _Budget(budget)
    for combo in itertools.product(members, repeat=len(names)):
        env_host = dict(zip(names, combo))
        env_sub = {name: remap[value] for name, value in env_host.items()}
        if host_fn(dict(env_host), shared) != sub_fn(env_sub, shared):
            return AbsoluteCheck(False, env_host)
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
