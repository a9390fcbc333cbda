"""Golden digest for the absoluteness check.

Every call below runs ``is_absolute``, ``is_sigma_elementary`` or
``verify_hull``; its outcome (the verdict, the counterexample and the
failing formula, or the exception class and message) goes into one
SHA-256 digest, recorded from the version of the check that evaluated
each valuation through one compiled-formula call per side.  The inputs:

- membership ambients of small seeded graphs, with every shipped pack,
  over hull carriers (which pass), carriers less one element and random
  subsets (which mostly fail), at budgets 0-60 and the default;
- random formulas, constants and relativized variants included, over
  random structures;
- 400-deep ``|``, ``~`` and ``Ex`` chains, which the generated code
  splits into functions of their own;
- a formula with 24 free variables on subsets of at most 2 elements.

The charge order is part of the outcome: a check that evaluated the
host side of every valuation before the substructure side, or that
reported another mismatch than the first, changes the digest.  Only
public names are used, so the test runs against any version of the
check.
"""

import hashlib
import json

from finmodel.corpus import random_formula, random_structure
from finmodel.formula import (
    Const,
    Disjunction,
    Equality,
    Exists,
    Membership,
    Negation,
    Var,
    relativize,
    render,
)
from finmodel.graph import make_graph
from finmodel.hull import PACKS, Hull, get_pack, hull, verify_hull
from finmodel.structure import (
    BudgetExceededError,
    is_absolute,
    is_sigma_elementary,
)
from finmodel.universe import build_hierarchy, membership_structure, recode_graph

from conftest import seeded

BUDGETS = list(range(61)) + [None]
# the deep chains spend hundreds of steps per valuation
DEEP_BUDGETS = list(range(0, 3000, 61)) + [None]


def _outcome(fn, *args, budget):
    kwargs = {} if budget is None else {"budget": budget}
    try:
        check = fn(*args, **kwargs)
    except (BudgetExceededError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(check, bool):
        return check
    formula = getattr(check, "formula", None)
    return [check.ok, check.counterexample, None if formula is None else render(formula)]


def _ambients():
    """Membership ambients of seeded graphs on 2-4 vertices."""
    rng = seeded(1618)
    for _ in range(6):
        n = rng.randint(2, 4)
        slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [e for e in slots if rng.random() < 0.6]
        coded, codes = recode_graph(make_graph(range(n), edges))
        yield membership_structure(codes.all_codes()), rng


def _pack_records():
    for N, rng in _ambients():
        for name in sorted(PACKS):
            pack = get_pack(name)
            seed = [e for e in range(N.size) if rng.random() < 0.25]
            h = hull(N, pack, seed)
            carrier = sorted(h.carrier)
            subsets = [carrier, [e for e in range(N.size) if rng.random() < 0.5]]
            if carrier:
                subsets.append(carrier[:-1])
            # a hull whose trace replays but whose carrier is not closed
            unclosed = Hull(frozenset(seed), frozenset(seed), ())
            for budget in BUDGETS:
                yield [
                    name,
                    budget,
                    [_outcome(is_sigma_elementary, M, N, pack, budget=budget) for M in subsets],
                    [_outcome(is_absolute, subsets[-1], N, phi, budget=budget) for phi in pack.formulas],
                    [_outcome(verify_hull, N, pack, g, budget=budget) for g in (h, unclosed)],
                ]


def _formula_records():
    rng = seeded(31415)
    for depth in [0] * 5 + [1] * 20 + [2] * 20 + [3] * 5:
        n = rng.randint(1, 6)
        N = random_structure(n, rng, rng.uniform(0.1, 0.6))
        phi = random_formula(rng, depth, max_const=3 if rng.random() < 0.3 else None, max_nodes=14)
        subsets = [[e for e in range(n) if rng.random() < 0.6] for _ in range(2)]
        subsets.append(list(range(n)) + [n])  # an element outside the universe
        variants = (phi, relativize(phi))
        for budget in BUDGETS:
            yield [
                render(phi),
                budget,
                [_outcome(is_absolute, M, N, f, budget=budget) for M in subsets for f in variants],
            ]


def _chain(step, base, depth=400):
    phi = base
    for i in reversed(range(depth)):
        phi = step(i, phi)
    return phi


def _deep_records():
    x, z = Var("x"), Var("z")
    has_member = Exists("z", Membership(z, x))
    chains = {
        "or": _chain(lambda i, phi: Disjunction(Membership(x, x), phi), has_member),
        "not": _chain(lambda i, phi: Negation(phi), has_member),
        "ex": _chain(
            lambda i, phi: Exists(f"v{i}", phi),
            Disjunction(Equality(Var("v399"), x), has_member),
        ),
    }
    for N, rng in _ambients():
        subsets = [[e for e in range(N.size) if rng.random() < 0.4] for _ in range(2)]
        for name, phi in chains.items():
            for budget in DEEP_BUDGETS:
                yield [name, budget, [_outcome(is_absolute, M, N, phi, budget=budget) for M in subsets]]


def _wide_records():
    """24 free variables: only the first valuation of a 2-element subset
    is ever reached, so the subsets are chosen to fail there."""
    xs = [Var(f"x{i}") for i in range(24)]
    phi = Exists("z", Membership(Var("z"), xs[0]))
    for a, b in reversed(list(zip(xs, xs[1:]))):
        phi = Disjunction(Membership(a, b), phi)
    with_constant = Disjunction(Equality(xs[23], Const(3)), phi)
    V3 = build_hierarchy(3).structure  # 0 in 1, 1 in 2, 0 and 1 in 3
    for budget in BUDGETS:
        yield [
            "wide",
            budget,
            [_outcome(is_absolute, M, V3, f, budget=budget)
             for M in ([], [0], [1], [3], [1, 2], [1, 3]) for f in (phi, with_constant)],
        ]


def test_absolute_outcomes_match_recorded_digest():
    digest = hashlib.sha256()
    count = 0
    for records in (_pack_records(), _formula_records(), _deep_records(), _wide_records()):
        for record in records:
            digest.update(json.dumps(record).encode())
            count += 1
    assert count == 6 * len(PACKS) * len(BUDGETS) + 50 * len(BUDGETS) + 6 * 3 * len(DEEP_BUDGETS) + len(BUDGETS)
    assert digest.hexdigest() == (
        "5f6ee05f2d14a70f5115547d51f973f6a4274ad536865a30a622bbd1da0a131d"
    )
