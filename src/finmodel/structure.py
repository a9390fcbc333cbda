"""Finite structures for the one-relation language: satisfaction,
relativized satisfaction, induced substructures, absoluteness and
elementarity for a fixed formula family.

Every evaluation runs generated code.  Each core formula has one
record, a :class:`CompiledFormula`, which holds the formula's generated
functions, each compiled into straight-line Python on first use.  In
its *evaluator* each quantifier is a ``for`` loop, each atom an inline
``members[b] >> a & 1`` bit test on the structure's member masks
(:attr:`FinStructure.members`) or an ``a == b`` test, and ``|`` and
``~`` short-circuit as Python's ``or`` and ``not`` do.

A quantifier whose body is a conjunction of literals (membership and
equality atoms, each maybe negated, as ``Ez (x in z & y in z)``) scans
set-at-a-time instead (Ngo, Re and Rudra, "Skew Strikes Back", SIGMOD
Record 2013): the elements satisfying each literal form one mask (the
members of a set, its containers (:attr:`FinStructure.containers`), a
single element, or all or none), the body holds on their AND, and the
smallest witness is its lowest set bit.  The loop's charge follows
exactly from the masks: it evaluates the body at each element up to the
witness, and there reaches each literal where the literals before it
hold, so it charges the bits of that prefix in each partial AND.  Any
other body, with a ``|`` between literals or a quantifier, keeps its
loop: the loop stops at the first element that satisfies it, where a
mask would be built from every element.  The
structure, the scope of the relativized quantifiers, the budget and the
free-variable values are arguments of each call, so one compiled formula
serves every structure.  Nothing from the formula is pasted into the
source: variables become generated identifiers and constants call
arguments.  The records are cached by formula, in one weak-keyed
dictionary: formula nodes are interned, so an equal formula finds the
same record, and the record goes when the formula does.

:func:`is_absolute` runs the second generated kind, the formula's
*sweep*: one ``for`` loop over the
valuations into M in lexicographic order, whose body is the formula's
code twice, first over N and then over the substructure M induces, with
the first valuation on which they differ returned.  An induced
substructure's atoms are N's, so M's side tests N's own member masks
and constants, each of its quantifiers scanning M's elements, ascending,
for ``|M|`` steps: no substructure or remapped masks are built.  Both
copies spend from one step count, in the order two compiled-formula
calls per valuation would.  A formula without a quantifier skips its
sweep, and holds, whenever the budget covers ``2a`` steps for each of
the ``|M|**k`` valuations (a atom occurrences, k free variables): both
sides then read N's own atoms and agree, and a valuation charges each
side at most one step per atom, so the sweep could neither find a
mismatch nor run out.

The hulls' witness *search* of an existential is the third kind,
and works vector-at-a-time (Boncz, Zukowski and Nes, "MonetDB/X100:
Hyper-Pipelining Query Execution", CIDR 2005): one call takes an
existential's whole list of valuations, sets up the structure once, and
runs the existential's evaluator code in the sweep's loop over them,
keeping each valuation at which it holds with the quantifier's loop
variable, the smallest witness.  So it charges exactly what evaluating
the existential at each valuation in turn does, and runs out at the same
step, while the interpreter's cost of a call is paid once per list.

Evaluation is exponential in quantifier depth, so every call has a
budget of steps (by default ``10**8``) and fails with
:class:`BudgetExceededError` instead of hanging.  Each kind of code
comes from one emitter in two variants.  *Metered* code spends a
:class:`Budget`, and the charge is exact: one step per atom reached;
``size`` steps when a plain ``Ex`` starts to scan N; ``len(scope)``
steps, and at least one, when a relativized one starts to scan its
scope.  The error is raised as soon as the steps spent exceed the
budget; a set-at-a-time scan charges its atoms at once, and leaves the
budget at -1 when they overdraw it, as one-step charges would.
*Unmetered* code is the same control flow with no step count, no
charges and no checks.

No evaluation of phi in a structure of m elements charges more than
``B(phi, m) = nodes(phi) * (m + 1) ** depth(phi)`` steps, where nodes
counts phi's subformula occurrences and depth is its quantifier depth.
By induction on phi: an atom costs 1; ``~`` and ``|`` cost at most
what their parts do, within the sum of the parts' bounds; a quantifier
charges at most m + 1 (``size``, or ``len(scope) or 1``, the scope
lying in N) and then evaluates its body at most m times, so it costs at
most (m + 1) + m * nodes(body) * (m + 1) ** depth(body), within
(nodes(body) + 1) * (m + 1) ** (depth(body) + 1); and a scan charges at
most (m + 1) + m * (its literals), within the same bound, its literals
being nodes of its body.  The entry points :func:`eval_formula`,
:func:`eval_relativized` and :func:`is_absolute` take a budget as an
integer, so all a caller sees of it is whether they raise: they run
unmetered code where the bound shows that metered code could not run
out (``B(phi, |N|)`` steps for an evaluation, ``2 * B(phi, |N|)`` for
each of the sweep's ``|M|**k`` valuations, whose M side scans no more
than N's), and metered code otherwise.
A :class:`CompiledFormula` called as a function, whose caller reads
what is left of its :class:`Budget`, is metered; :mod:`hull` runs the
unmetered search under its closure bound.

Valuations are plain dicts from variable names to element identifiers.
:class:`FinStructure` is a frozen plain class, which validates its
fields and keeps its member masks once computed; the results of the
checks, :class:`AbsoluteCheck` and :class:`ElementarityCheck`, are
``NamedTuple`` records.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from typing import Callable, Iterable, Mapping, NamedTuple, NoReturn

from .errors import InputError, read_only
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
    Var,
    _walk,
)

DEFAULT_BUDGET = 10**8


class EvalError(InputError):
    """Unbound variable, dangling constant, or a relativized node where
    none is allowed."""


class BudgetExceededError(RuntimeError):
    """The evaluation-step budget ran out."""


class FinStructure:
    """A finite universe 0..size-1 with one binary relation.

    ``codes`` optionally records a hereditarily-finite code per element
    (strictly ascending), which the hull/slicing machinery uses to move
    between element identifiers and set-objects.  Structures are frozen,
    and equal when size, pairs and codes are: ``labels`` only names.
    """

    def __init__(
        self,
        size: int,
        pairs: frozenset[tuple[int, int]],
        labels: Mapping[int, str] | None = None,
        codes: tuple[int, ...] | None = None,
    ) -> None:
        if size < 0:
            raise ValueError(f"structure size {size} is negative")
        for a, b in pairs:
            if not (0 <= a < size and 0 <= b < size):
                raise ValueError(f"relation pair {(a, b)} outside universe 0..{size - 1}")
        if codes is not None:
            if len(codes) != size:
                raise ValueError("codes must list one code per element")
            if any(a >= b for a, b in zip((-1, *codes), codes)):
                raise ValueError("codes must be nonnegative and strictly ascending")
        vars(self).update(size=size, pairs=pairs, labels=labels, codes=codes)

    def __repr__(self) -> str:
        return f"FinStructure(size={self.size!r}, pairs={self.pairs!r}, labels={self.labels!r}, codes={self.codes!r})"

    def __eq__(self, other):
        if type(other) is not FinStructure:
            return NotImplemented
        return (self.size, self.pairs, self.codes) == (other.size, other.pairs, other.codes)

    def __hash__(self) -> int:
        return hash((self.size, self.pairs, self.codes))

    __setattr__ = __delattr__ = read_only

    @functools.cached_property
    def members(self) -> tuple[int, ...]:
        """Per element b, the mask whose bit a is set when (a, b) is a
        pair: the members of b.  Generated atoms test these bits."""
        masks = [0] * self.size
        for a, b in self.pairs:
            masks[b] |= 1 << a
        return tuple(masks)

    @functools.cached_property
    def containers(self) -> tuple[int, ...]:
        """Per element a, the mask whose bit b is set when (a, b) is a
        pair: the elements a is a member of.  Set-at-a-time scans read
        ``a in z`` from these."""
        masks = [0] * self.size
        for a, b in self.pairs:
            masks[a] |= 1 << b
        return tuple(masks)

    @functools.cached_property
    def loops(self) -> int:
        """The mask of the elements that are members of themselves."""
        return sum(1 << a for a, b in self.pairs if a == b)


class Budget:
    """A count of evaluation steps, spent by every evaluation it is passed
    to and shared when one budget covers several calls."""

    __slots__ = ("left",)

    def __init__(self, steps: int):
        self.left = steps


def _exhausted(budget: Budget, left: int) -> NoReturn:
    budget.left = left
    raise BudgetExceededError("evaluation budget exceeded")


# A subformula that would sit deeper than this many nested blocks moves
# to a function of its own: CPython compiles at most 20 nested loops and
# 100 indentation levels in one function.
_SPLIT_DEPTH = 12

def _conjuncts(body: Formula) -> list[tuple[Formula, bool]] | None:
    """The literals of *body* when it is a conjunction of literals, left
    to right, each as its atom and whether it stands unnegated, else
    None.  Read through ``~~`` pairs, such a body is an atom, a negated
    atom, or ``~`` of a tree of ``|`` whose leaves are those, which gives
    the leaves, each negated."""
    negated = False
    while type(body) is Negation:
        body, negated = body.body, not negated
    if type(body) is not Disjunction:
        return [(body, not negated)] if type(body) is Membership or type(body) is Equality else None
    if not negated:
        return None
    literals, stack = [], [(body, False)]
    while stack:
        f, negated = stack.pop()
        while type(f) is Negation:
            f, negated = f.body, not negated
        if type(f) is Disjunction and not negated:
            stack += ((f.right, False), (f.left, False))
        elif type(f) is Membership or type(f) is Equality:
            literals.append((f, negated))
        else:
            return None
    return literals


def _is_var(t, name: str) -> bool:
    return type(t) is Var and t.name == name


class _Generator:
    """Python source for one formula: an entry function ``_f0`` and the
    functions that deep subformulas were split into.

    Besides its variables, the code reads a *context*: names for the
    structure's ``members``, ``size`` and ``universe``, for the relativized
    scope and for each constant, and for the masks that set-at-a-time
    scans read.  :meth:`emit` takes the context as an argument, so the
    sweep emits the body once over N and once with the scans over M, and
    a split function is handed the context it was split from.

    One preorder pass over the subformulas asks :func:`_conjuncts` which
    quantifiers scan set-at-a-time, and so what the context must hold
    (:attr:`uses`): ``members`` only where code reads it, at a membership
    atom that no scan reads through ``containers`` or ``loops``.  The
    atoms it meets give the formula's free variables, in order of first
    occurrence, its constants and its quantifier depth."""

    def __init__(self, phi: Formula):
        self.kinds: set[type] = set()
        self.uses: set[str] = set()
        nodes = list(_walk(phi))
        atoms: list[tuple[Formula, tuple[str, ...]]] = []
        member_reads = 0  # the membership atoms whose code reads ``members``
        for f, bound in nodes:
            kind = type(f)
            self.kinds.add(kind)
            if kind is Membership or kind is Equality:
                atoms.append((f, bound))
                member_reads += kind is Membership
            elif kind is Exists or kind is BoundedExists:
                literals = _conjuncts(f.body)
                if literals is None:
                    if kind is Exists:
                        self.uses.add("universe")
                    continue
                self.uses.add("full" if kind is Exists else "scopemask")
                for atom, _ in literals:
                    if type(atom) is Membership and _is_var(atom.right, f.var):
                        self.uses.add("loops" if _is_var(atom.left, f.var) else "containers")
                        member_reads -= 1
        if member_reads:
            self.uses.add("members")
        self.relativized = BoundedExists in self.kinds
        self.nodes, self.atoms, self.depth = len(nodes), len(atoms), max(len(bound) for _, bound in atoms)
        terms = [(t, bound) for f, bound in atoms for t in (f.left, f.right)]
        self.free_vars = list(dict.fromkeys(t.name for t, bound in terms if type(t) is Var and t.name not in bound))
        self.constants = tuple({t.ident for t, _ in terms if type(t) is Const})

    def context(self, metered: bool) -> tuple[dict, list[str]]:
        """The context for the structure ``N``, keyed by ``"members"``,
        ``"containers"``, ``"loops"``, ``"size"``, ``"universe"``,
        ``"full"`` (the mask of N), ``"scope"``, ``"nscope"``,
        ``"scopemask"`` and each constant's identifier, as far as the
        formula uses them (``"size"`` and ``"nscope"``, which only charges
        read, in metered code alone), and the statements that set it from ``N``,
        ``scope`` and ``consts`` (the elements the constants denote).
        The scope's mask is taken on every call, from the scope that
        call is given.  Each generated function starts here."""
        self.metered = metered
        self.fresh, self.splits = itertools.count(), itertools.count(1)
        self.pending: list[tuple[list[str], Formula, dict[str, str], dict]] = []
        ctx, setup = {}, []
        if "members" in self.uses:
            ctx["members"] = "members"
            setup.append("members = N.members")
        for name in ("containers", "loops"):
            if name in self.uses:
                ctx[name] = name
                setup.append(f"{name} = N.{name}")
        if Exists in self.kinds:
            setup.append("size = N.size")
            if metered:
                ctx["size"] = "size"
            if "universe" in self.uses:
                ctx["universe"] = "universe"
                setup.append("universe = range(size)")
            if "full" in self.uses:
                ctx["full"] = "full"
                setup.append("full = (1 << size) - 1")
        if self.relativized:
            ctx["scope"] = "scope"
            if metered:
                ctx["nscope"] = "nscope"
                setup.append("nscope = len(scope) or 1")
            if "scopemask" in self.uses:
                ctx["scopemask"] = "scopemask"
                setup += ["scopemask = 0", "for e in scope: scopemask |= 1 << e"]
        if self.constants:
            names = [f"k{i}" for i in range(len(self.constants))]
            ctx.update(zip(self.constants, names))
            setup.append(f"{', '.join(names)}, = consts")
        return ctx, setup

    def meter(self, pad: str, *statements: str) -> list[str]:
        """*statements*, indented by *pad*, in metered code; none in
        unmetered code."""
        return [pad + line for line in statements] if self.metered else []

    def evaluator(self, phi: Formula, names: list[str], metered: bool) -> Callable:
        """``f(consts, N, scope, budget, *values)``, phi's truth value in
        N with its free variables *names* at *values*."""
        ctx, setup = self.context(metered)
        env = {name: self.variable() for name in names}
        lines = [f"def _f0({', '.join(['consts', 'N', 'scope', 'budget', *env.values()])}):"]
        lines += [f"    {line}" for line in setup]
        lines += self.meter("    ", "left = budget.left")
        self.emit(phi, env, ctx, lines, 1)
        lines += [*self.meter("    ", "budget.left = left"), "    return bool(r)"]
        return self.finish(lines)

    def loop(self, params: str, setup: list[str], names: list[str], valuations: str, body: Callable, result: str) -> Callable:
        """``_f0(params)``: *setup*, then one ``for`` loop, whatever the
        number of *names*, over the tuples of their values that the
        expression *valuations* yields, then *result* returned.  The
        loop's body is written at depth 2 by ``body(env, values, lines)``,
        with *env* mapping *names* to the loop variables and *values* the
        expression of their tuple.  Steps are spent from the local
        ``left``, written back when the loop ends, or by the body before
        it returns from inside the loop."""
        env = {name: self.variable() for name in names}
        values = "".join(f"{v}, " for v in env.values())
        lines = [f"def _f0({params}):"]
        lines += [f"    {line}" for line in setup]
        lines += [*self.meter("    ", "left = budget.left"), f"    for {values.rstrip() or '_'} in {valuations}:"]
        body(env, f"({values})", lines)
        lines += [*self.meter("    ", "budget.left = left"), f"    return {result}"]
        return self.finish(lines)

    def search(self, phi: Exists, names: list[str], metered: bool) -> Callable:
        """``f(consts, N, budget, valuations)``: the ``(values, witness)``
        pairs, in the order of the iterable *valuations*, at which the
        existential phi holds in N with its free variables *names* at
        *values*, each with its smallest witness.  It spends exactly what
        evaluating phi at each valuation in turn would."""
        ctx, setup = self.context(metered)

        def body(env, values, lines):
            found = self.emit(phi, env, ctx, lines, 2)
            lines.append(f"        if r: hits.append(({values}, {found}))")

        return self.loop("consts, N, budget, valuations", [*setup, "hits = []"], names, "valuations", body, "hits")

    def sweep(self, phi: Formula, names: list[str], metered: bool) -> Callable:
        """``f(S, N, consts, budget)``, the first tuple of values for
        *names* from the sorted tuple S, in lexicographic order, on which
        phi's truth value in N differs from its value in the substructure
        S induces, or None.  Each tuple evaluates N's side, then S's, from
        one step count; S's side reads N's member masks, each quantifier
        scanning S for ``len(S)`` steps."""
        ctx, setup = self.context(metered)
        sub = dict(ctx)
        if Exists in self.kinds:
            if metered:
                sub["size"] = "ssize"
                setup.append("ssize = len(S)")
            if "universe" in ctx:
                sub["universe"] = "S"
            if "full" in ctx:
                sub["full"] = "smask"
                setup += ["smask = 0", "for e in S: smask |= 1 << e"]

        def body(env, values, lines):
            self.emit(phi, env, ctx, lines, 2)
            lines.append("        h = r")
            self.emit(phi, env, sub, lines, 2)
            lines += ["        if r != h:", *self.meter("            ", "budget.left = left"), f"            return {values}"]

        return self.loop("S, N, consts, budget", setup, names, f"product(S, repeat={len(names)})", body, "None")

    def finish(self, entry: list[str]) -> Callable:
        """Compile the entry function *entry* (the lines of ``_f0``)
        with the functions split from it, and return it.

        Split functions are written after the one they were split from,
        so the depth of the Python stack here stays within one function."""
        functions = ["\n".join(entry)]
        while self.pending:
            lines, phi, env, ctx = self.pending.pop()
            lines += self.meter("    ", "left = budget.left")
            self.emit(phi, env, ctx, lines, 1)
            lines += [*self.meter("    ", "budget.left = left"), "    return r"]
            functions.append("\n".join(lines))
        namespace = {"_exhausted": _exhausted, "product": itertools.product}
        exec(compile("\n".join(functions) + "\n", "<formula>", "exec"), namespace)
        return namespace["_f0"]

    def variable(self) -> str:
        return f"v{next(self.fresh)}"

    def split(self, phi: Formula, env: dict[str, str], ctx: dict) -> str:
        """Move *phi* to a function of its own; return the call."""
        name = f"_f{next(self.splits)}"
        params = ", ".join(["budget", *ctx.values(), *env.values()])
        self.pending.append(([f"def {name}({params}):"], phi, env, ctx))
        return f"{name}({params})"

    def term(self, t, env: dict[str, str], ctx: dict) -> str:
        return ctx[t.ident] if isinstance(t, Const) else env[t.name]

    def emit(self, phi: Formula, env: dict[str, str], ctx: dict, lines: list[str], depth: int) -> str | None:
        """Statements, indented *depth* levels, that leave phi's truth
        value in ``r`` and, in metered code, spend its steps from
        ``left``, reading the variables in *env* and the context names in
        *ctx*.  When phi is a
        quantifier, return an expression for its smallest witness, valid
        once ``r`` is true.

        A quantifier is a ``for`` loop over its scan, except where its
        body is a conjunction of literals (:meth:`scan`).  Chains of ``~``
        and right-nested ``|`` are followed in a loop, not by recursion,
        so a long chain costs no Python stack."""
        negations, found = [], None
        while True:
            pad = "    " * depth
            if isinstance(phi, Negation):
                negations.append(f"{pad}r = not r")
                phi = phi.body
            elif isinstance(phi, Disjunction) and depth <= _SPLIT_DEPTH:
                self.emit(phi.left, env, ctx, lines, depth)
                lines.append(f"{pad}if not r:")
                phi, depth = phi.right, depth + 1
            else:
                break
        if isinstance(phi, (Membership, Equality)):
            left, right = self.term(phi.left, env, ctx), self.term(phi.right, env, ctx)
            test = f"{ctx['members']}[{right}] >> {left} & 1" if isinstance(phi, Membership) else f"{left} == {right}"
            lines += [*self.meter(pad, "left -= 1", "if left < 0: _exhausted(budget, left)"), f"{pad}r = {test}"]
        elif depth > _SPLIT_DEPTH:
            call = self.split(phi, env, ctx)
            lines += [*self.meter(pad, "budget.left = left"), f"{pad}r = {call}", *self.meter(pad, "left = budget.left")]
        elif isinstance(phi, (Exists, BoundedExists)):
            # a plain quantifier is charged its scan of N; a bounded one
            # its scope, and at least one step
            charge, scan = ("size", "universe") if isinstance(phi, Exists) else ("nscope", "scope")
            if self.metered:
                lines += [f"{pad}left -= {ctx[charge]}", f"{pad}if left < 0: _exhausted(budget, left)"]
            literals = _conjuncts(phi.body)
            if literals is not None:
                found = self.scan(phi, literals, env, ctx, lines, pad)
            else:
                found = self.variable()
                lines += [f"{pad}r = False", f"{pad}for {found} in {ctx[scan]}:"]
                self.emit(phi.body, {**env, phi.var: found}, ctx, lines, depth + 1)
                lines.append(f"{pad}    if r: break")
        else:
            raise EvalError(f"cannot evaluate node {type(phi).__name__}")
        # each negation applies where its operand ends, innermost first
        lines += reversed(negations)
        return found

    def literal(self, atom: Formula, z: str, env: dict[str, str], ctx: dict) -> str:
        """The mask of the elements z at which *atom* holds."""
        x, y = _is_var(atom.left, z), _is_var(atom.right, z)
        left = None if x else self.term(atom.left, env, ctx)
        right = None if y else self.term(atom.right, env, ctx)
        if isinstance(atom, Equality):
            if x and y:
                return "-1"
            return f"(1 << {left or right})" if x or y else f"-({left} == {right})"
        if x and y:
            return ctx["loops"]
        if x:
            return f"{ctx['members']}[{right}]"
        return f"{ctx['containers']}[{left}]" if y else f"-({ctx['members']}[{right}] >> {left} & 1)"

    def scan(self, phi: Formula, literals: list[tuple[Formula, bool]], env: dict[str, str], ctx: dict, lines: list[str], pad: str) -> str:
        """Statements that scan the quantifier *phi*, whose body is the
        conjunction of *literals* (:func:`_conjuncts`), set-at-a-time,
        after its own charge.

        The body holds at the elements of the AND of its literals' masks,
        each complemented where the literal is negated, and the scan's
        range: N, M's elements on the sweep's M side, or the scope.  The
        witness is the lowest set bit.  The loop would evaluate the body
        at each element of the range up to the witness, or at all of
        them, and charge the i-th literal at the elements where every
        literal before it holds, so the steps are exactly the bits of
        that prefix in the range ANDed with each proper prefix of the
        literals.  They are charged at once: a budget that runs out
        inside the scan ends, as the loop's one-step charges would,
        at -1.  Of N's own mask, the elements 0 to size - 1, the bits up
        to the witness are its bit length, and all of them without one."""
        z, masks = phi.var, [ctx["full" if isinstance(phi, Exists) else "scopemask"]]
        for atom, positive in literals:
            mask = self.literal(atom, z, env, ctx)
            masks.append(self.variable())
            lines.append(f"{pad}{masks[-1]} = {masks[-2]} & {mask if positive else f'~{mask}'}")
        low = self.variable()
        lines.append(f"{pad}{low} = {masks[-1]} & -{masks[-1]}")
        if self.metered:
            prefix = self.variable()
            counts = [f"({mask} & {prefix}).bit_count()" for mask in masks[:-1]]
            if masks[0] == "full":
                counts[0] = f"({low}.bit_length() or {ctx['size']})"
            lines += [
                f"{pad}{prefix} = ({low} << 1) - 1",
                f"{pad}left -= {' + '.join(counts)}",
                f"{pad}if left < 0: _exhausted(budget, -1)",
            ]
        lines.append(f"{pad}r = {low} != 0")
        return f"{low}.bit_length() - 1"


class CompiledFormula:
    """A core formula's one record: its free variables, constants and
    step bound, the most steps one valuation of :func:`is_absolute`'s
    sweep charges if it has no quantifier (else None), and each generated
    function, by kind and meter (:meth:`variant`), compiled on first use
    from the formula, which the record holds only weakly.

    ``cf(N, scope, budget, *values)`` runs the metered evaluator: the
    formula's truth value in the structure N, with its free variables
    taking *values* in the order of :attr:`free_vars`.  A relativized
    quantifier scans *scope*, a sized iterable of elements, ascending
    and without repeats, read afresh on every call, which is None for
    plain evaluation (see :meth:`require_scope`): a set-at-a-time scan
    reads the scope as one mask, which visits its elements in ascending
    order, once each, so it agrees with a loop over the scope only for
    such a scope.  A :class:`Budget` pays for the steps.  The constants
    denote the elements in :attr:`constants`.  Arguments are not
    validated: the entry points below check valuations and constants
    against the structure first.
    """

    def __init__(self, phi: Formula):
        self.gen = gen = _Generator(phi)
        self.free_vars, self.constants, self.relativized = gen.free_vars, gen.constants, gen.relativized
        self.steps = None if gen.kinds & {Exists, BoundedExists} else 2 * gen.atoms
        self.nodes, self.depth = gen.nodes, gen.depth
        self.formula = weakref.ref(phi)
        self.made: dict[tuple[str, bool], Callable] = {}

    def __call__(self, N: FinStructure, scope, budget: Budget, *values: int) -> bool:
        return self.variant("evaluator", True)(self.constants, N, scope, budget, *values)

    def require_scope(self, scope) -> None:
        """Raise :class:`EvalError` if a relativized formula gets no scope."""
        if scope is None and self.relativized:
            raise EvalError("relativized quantifier encountered in plain evaluation")

    def bound(self, m: int) -> int:
        """``B(phi, m)``: no evaluation of phi in a structure of m
        elements charges more steps (see the module docstring)."""
        return self.nodes * (m + 1) ** self.depth

    def variant(self, kind: str, metered: bool) -> Callable:
        """The formula's generated ``"evaluator"``, ``"sweep"`` or
        ``"search"`` (:class:`_Generator`), metered or not; one not yet
        compiled needs the formula alive, else :class:`EvalError`."""
        made = self.made.get((kind, metered))
        if made is None:
            phi = self.formula()
            if phi is None:
                raise EvalError(f"the formula is gone and its {kind} (metered={metered}) was never compiled")
            made = self.made[kind, metered] = getattr(self.gen, kind)(phi, self.free_vars, metered)
        return made


_COMPILED: weakref.WeakKeyDictionary[Formula, CompiledFormula] = weakref.WeakKeyDictionary()


def _record(phi: Formula) -> CompiledFormula:
    """phi's record, made once per formula, with what is compiled so far."""
    cf = _COMPILED.get(phi)
    if cf is None:
        cf = _COMPILED[phi] = CompiledFormula(phi)
    return cf


def compile_formula(phi: Formula) -> CompiledFormula:
    """phi's record with its metered evaluator compiled, so that it can
    be called after the formula is gone."""
    cf = _record(phi)
    cf.variant("evaluator", True)
    return cf


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
    code = _record(phi)
    for name in code.free_vars:
        if name not in valuation:
            raise EvalError(f"unbound free variable {name!r}")
    for name, value in valuation.items():
        if not (0 <= value < N.size):
            raise EvalError(f"valuation sends {name!r} to {value}, outside the universe")
    for c in code.constants:
        if not (0 <= c < N.size):
            raise EvalError(f"dangling constant #{c}")
    if subset is not None:
        for name, value in valuation.items():
            if value not in subset:
                raise EvalError(f"valuation sends {name!r} outside the designated subset")
        for c in code.constants:
            if c not in subset:
                raise EvalError(f"constant #{c} lies outside the designated subset")
    scope = None if subset is None else tuple(sorted(subset))
    if scope and not (0 <= scope[0] and scope[-1] < N.size):
        bad = scope[0] if scope[0] < 0 else scope[-1]
        raise EvalError(f"designated subset element {bad} outside the universe")
    code.require_scope(scope)
    values = [valuation[name] for name in code.free_vars]
    metered = code.bound(N.size) > budget
    run = code.variant("evaluator", metered)
    return run(code.constants, N, scope, Budget(budget) if metered else None, *values)


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
    formulas are legal.  M must lie in N's universe, and the entry
    valuation and the formula's constants inside M (they play the role
    of parameters from M); inner unbounded witnesses may roam.
    """
    return _evaluate(N, phi, valuation, budget, frozenset(M))


def _elements(M: Iterable[int], N: FinStructure) -> tuple[int, ...]:
    """The elements of M in ascending order, each checked to lie in N."""
    S = tuple(sorted(set(M)))
    for m in S:
        if not (0 <= m < N.size):
            raise ValueError(f"element {m} outside universe 0..{N.size - 1}")
    return S


def induced_substructure(N: FinStructure, M: Iterable[int]) -> tuple[FinStructure, dict[int, int]]:
    """Restriction of the relation to M, with the identifier re-map.

    Elements of M are renumbered 0..|M|-1 in ascending order; the
    returned mapping translates old identifiers to new ones so callers
    can translate valuations.
    """
    S = _elements(M, N)
    remap = {old: new for new, old in enumerate(S)}
    pairs = frozenset((remap[a], new) for new, b in enumerate(S) for a in S if N.members[b] >> a & 1)
    labels = {remap[k]: v for k, v in N.labels.items() if k in remap} if N.labels else None
    codes = tuple(N.codes[m] for m in S) if N.codes is not None else None
    return FinStructure(len(S), pairs, labels, codes), remap


class AbsoluteCheck(NamedTuple):
    ok: bool
    counterexample: dict[str, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


class ElementarityCheck(NamedTuple):
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

    The valuations run in phi's sweep, one generated function made once
    per formula: a single loop over the valuations that evaluates phi's
    body inline over N, then on N's member masks with each quantifier
    scanning M, which is the substructure's side with nothing built.
    The steps are charged to one budget in that order, as two
    compiled-formula calls per valuation would charge them, and the
    sweep stops at the first valuation on which the two sides differ.
    Where ``2 * B(phi, |N|)`` steps for each valuation fit the budget,
    the sweep runs unmetered.

    A quantifier-free phi with a atom occurrences and k free variables
    holds without its sweep when ``2a * |M|**k`` steps fit the budget:
    an induced substructure's atoms are N's, so the sides agree, and a
    valuation charges at most ``2a`` steps, so the sweep cannot run out.
    """
    S = _elements(M, N)
    code = _record(phi)
    names, consts = code.free_vars, code.constants
    for c in consts:
        if c not in S:
            raise EvalError(f"constant #{c} lies outside M")
    code.require_scope(None)
    valuations = len(S) ** len(names)
    if code.steps is not None and code.steps * valuations <= budget:
        return AbsoluteCheck(True)
    metered = 2 * code.bound(N.size) * valuations > budget
    found = code.variant("sweep", metered)(S, N, consts, Budget(budget) if metered else None)
    if found is None:
        return AbsoluteCheck(True)
    return AbsoluteCheck(False, dict(zip(names, found)))


def is_sigma_elementary(
    M: Iterable[int],
    N: FinStructure,
    pack: FormulaPack,
    budget: int = DEFAULT_BUDGET,
) -> ElementarityCheck:
    """Absoluteness of every pack member, first failure reported."""
    S = sorted(set(M))  # once; is_absolute checks it against N
    for phi in pack.formulas:
        check = is_absolute(S, N, phi, budget)
        if not check.ok:
            return ElementarityCheck(False, phi, check.counterexample)
    return ElementarityCheck(True)
