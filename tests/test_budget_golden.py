"""Golden digest for step-exact evaluation budgets.

Every call below runs at each budget from 0 to 60 steps and at the
default budget, on relativized and partly relativized variants too; its outcome (the value, or the exception class and
message) goes into one SHA-256 digest, recorded from the closure-tree
evaluator that the generated code replaced.  A change to what one step
is charged for, or to when ``BudgetExceededError`` is raised, changes
the digest.  Only public names are used, so the test runs against any
version of the evaluator.
"""

import hashlib
import json

from finmodel.corpus import random_formula, random_structure
from finmodel.formula import (
    BoundedExists,
    Disjunction,
    Exists,
    Negation,
    free_vars,
    relativize,
    render,
)
from finmodel.hull import get_pack, hull
from finmodel.structure import (
    BudgetExceededError,
    EvalError,
    eval_formula,
    eval_relativized,
    is_absolute,
)

from conftest import seeded

BUDGETS = list(range(61)) + [None]
PACK = get_pack("pairing,members")


def _partly_relativized(rng, phi):
    """Bound a random selection of the plain quantifiers to the subset."""
    if isinstance(phi, Negation):
        return Negation(_partly_relativized(rng, phi.body))
    if isinstance(phi, Disjunction):
        return Disjunction(_partly_relativized(rng, phi.left), _partly_relativized(rng, phi.right))
    if isinstance(phi, Exists):
        node = BoundedExists if rng.random() < 0.5 else Exists
        return node(phi.var, _partly_relativized(rng, phi.body))
    return phi


def _outcome(fn, *args, budget):
    kwargs = {} if budget is None else {"budget": budget}
    try:
        return repr(fn(*args, **kwargs))
    except (BudgetExceededError, EvalError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _hull_outcome(N, seed, budget):
    kwargs = {} if budget is None else {"budget": budget}
    try:
        h = hull(N, PACK, seed, **kwargs)
    except BudgetExceededError as exc:
        return f"BudgetExceededError: {exc}"
    return [sorted(h.carrier), [[render(s.formula), list(s.valuation), s.witness] for s in h.trace]]


def _cases():
    rng = seeded(2718)
    for depth in [0] * 10 + [1] * 40 + [2] * 40 + [3] * 20:
        n = rng.randint(1, 6)
        N = random_structure(n, rng, rng.uniform(0.1, 0.6))
        phi = random_formula(rng, depth, max_const=3 if rng.random() < 0.3 else None, max_nodes=14)
        subset = [e for e in range(n) if rng.random() < 0.6]
        yield N, phi, subset, rng


def _records():
    for N, phi, subset, rng in _cases():
        free = free_vars(phi)
        valuation = {name: rng.randrange(N.size) for name in free}
        inside = {name: rng.choice(subset) for name in free} if subset else valuation
        variants = [relativize(phi), _partly_relativized(rng, phi)]
        # the existential closure, whose bounded quantifiers an empty
        # subset still reaches and charges
        closed = phi
        for name in reversed(free):
            closed = Exists(name, closed)
        sentences = [relativize(closed), _partly_relativized(rng, closed)]
        seed = [e for e in range(N.size) if rng.random() < 0.3]
        for budget in BUDGETS:
            yield [
                render(phi),
                budget,
                [_outcome(eval_formula, N, f, valuation, budget=budget) for f in [phi] + variants],
                [_outcome(eval_relativized, N, subset, rel, inside, budget=budget) for rel in variants],
                [_outcome(eval_relativized, N, M, rel, budget=budget) for rel in sentences for M in (subset, [])],
                [_outcome(is_absolute, subset, N, f, budget=budget) for f in [phi] + variants],
                _hull_outcome(N, seed, budget),
            ]


def test_budget_outcomes_match_recorded_digest():
    digest = hashlib.sha256()
    count = 0
    for record in _records():
        digest.update(json.dumps(record).encode())
        count += 1
    assert count == 110 * len(BUDGETS)
    assert digest.hexdigest() == (
        "4b536a921590ea3b5bf9d599a07a7c35a10c8b87cd02050ce6131885882db44a"
    )
