"""Delta-systems (sunflowers) and set-mapping free sets.

The interesting algorithm here is the trace-kernel extraction: given a
subset M of the ground objects, pick a family member outside M, let the
kernel be its trace on M, then greedily grow a maximal delta-system with
that kernel.  Exhaustive searches double as oracles for it.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InputError, read_int

MAX_EXHAUSTIVE_FAMILY = 20
# free_set also computes the true maximum on grounds up to this size
_BRUTE_FORCE_LIMIT = 18


class SetFamily(NamedTuple):
    sets: tuple[frozenset[int], ...]

    def __len__(self) -> int:
        return len(self.sets)


def make_family(sets: Iterable[Iterable[int]]) -> SetFamily:
    """The family of *sets*, whose elements must be integers."""
    return SetFamily(tuple(
        frozenset(read_int(x, f"family member {i}", strings=False) for x in s) for i, s in enumerate(sets)
    ))


class DeltaSystem(NamedTuple):
    """A subfamily whose members pairwise intersect in exactly the
    kernel.  ``degenerate`` flags the sub-two-member cases, where any
    kernel is vacuously valid and a convention was applied."""

    indices: tuple[int, ...]
    members: tuple[frozenset[int], ...]
    kernel: frozenset[int]
    degenerate: bool = False


def is_delta_system(family: SetFamily | Sequence[frozenset[int]]) -> frozenset[int] | None:
    """The common pairwise intersection, if there is one.

    Families with at most one member are degenerate delta-systems; by
    convention the kernel is the unique member, or empty for the empty
    family.
    """
    sets = family.sets if isinstance(family, SetFamily) else tuple(family)
    if not sets:
        return frozenset()
    if len(sets) == 1:
        return frozenset(sets[0])
    kernel = sets[0] & sets[1]
    for a, b in itertools.combinations(sets, 2):
        if a & b != kernel:
            return None
    return kernel


def trace_kernel_sunflower(family: SetFamily, M: Iterable) -> DeltaSystem:
    """Extract a maximal delta-system via the trace kernel.

    M is a set of ground elements (ints) and family members
    (frozensets).  The lowest-index member outside M is the anchor A,
    the kernel is A's trace on M's ground elements, and members are
    greedily admitted in index order whenever all pairwise intersections
    stay exactly at the kernel.
    """
    mset = set(M)
    ground_part = {x for x in mset if isinstance(x, int)}
    anchor_idx = next(
        (i for i, s in enumerate(family.sets) if s not in mset), None
    )
    if anchor_idx is None:
        raise InputError("every family member already belongs to M")
    anchor = family.sets[anchor_idx]
    kernel = frozenset(anchor & ground_part)
    indices = [anchor_idx]
    members = [anchor]
    for i, candidate in enumerate(family.sets):
        if i == anchor_idx:
            continue
        if kernel <= candidate and all(candidate & m == kernel for m in members):
            indices.append(i)
            members.append(candidate)
    indices_sorted = tuple(sorted(indices))
    members_sorted = tuple(family.sets[i] for i in indices_sorted)
    return DeltaSystem(
        indices_sorted, members_sorted, kernel, degenerate=len(members_sorted) < 2
    )


def max_sunflower(family: SetFamily, petals_required: int | None = None) -> DeltaSystem | None:
    """A maximum-size delta-subfamily by exhaustive subset scan.

    Ties break lexicographically on the index set.  With
    ``petals_required`` set, returns None when the maximum falls short.
    """
    n = len(family.sets)
    if n > MAX_EXHAUSTIVE_FAMILY:
        raise InputError(f"family of {n} sets exceeds the exhaustive scan gate")
    best: tuple[int, tuple[int, ...]] | None = None
    for size in range(n, 0, -1):
        if best is not None:
            break
        for indices in itertools.combinations(range(n), size):
            members = [family.sets[i] for i in indices]
            if is_delta_system(members) is not None:
                best = (size, indices)
                break
    if best is None:
        if petals_required is not None and petals_required > 0:
            return None
        return DeltaSystem((), (), frozenset(), degenerate=True)
    size, indices = best
    members = tuple(family.sets[i] for i in indices)
    kernel = is_delta_system(members)
    assert kernel is not None
    if petals_required is not None and size < petals_required:
        return None
    return DeltaSystem(indices, members, kernel, degenerate=size < 2)


def is_maximal_for_kernel(family: SetFamily, system: DeltaSystem) -> bool:
    """No further family member can join without breaking the kernel."""
    chosen = set(system.indices)
    for i, candidate in enumerate(family.sets):
        if i in chosen:
            continue
        if system.kernel <= candidate and all(
            candidate & m == system.kernel for m in system.members
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# set-mapping free sets


class FreeSetReport(NamedTuple):
    chosen: frozenset[int]
    maximum_size: int | None  # brute-force optimum on small grounds


def is_free(chosen: Iterable[int], F: Mapping[int, frozenset[int]]) -> bool:
    picked = list(chosen)
    return all(
        y2 not in F[y1]
        for y1 in picked
        for y2 in picked
        if y1 != y2
    )


def free_set(
    ground: Iterable[int],
    F: Mapping[int, Iterable[int]],
) -> FreeSetReport:
    """Greedy maximal free set for a set mapping, ascending scan.

    x joins when x avoids the images of everything kept so far and its
    own image avoids the kept set.  On grounds up to the brute-force
    limit the true maximum size is computed alongside for comparison.
    """
    members = sorted(set(ground))
    images = {x: frozenset(F[x]) for x in members}
    kept: list[int] = []
    blocked: set[int] = set()
    for x in members:
        if x in blocked:
            continue
        if images[x] & set(kept):
            continue
        kept.append(x)
        blocked |= images[x]
    chosen = frozenset(kept)
    assert is_free(chosen, images)
    maximum = None
    if len(members) <= _BRUTE_FORCE_LIMIT:
        maximum = 0
        for size in range(len(members), 0, -1):
            if any(
                is_free(combo, images)
                for combo in itertools.combinations(members, size)
            ):
                maximum = size
                break
    return FreeSetReport(chosen, maximum)
