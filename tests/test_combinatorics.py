import itertools

import pytest

from finmodel.combinatorics import (
    free_set,
    is_delta_system,
    is_free,
    is_maximal_for_kernel,
    make_family,
    max_sunflower,
    trace_kernel_sunflower,
)
from finmodel.errors import InputError
from finmodel.oracles import max_sunflower_by_kernels

from conftest import seeded


def test_is_delta_system_known_cases():
    assert is_delta_system(make_family([[]])) == frozenset()
    assert is_delta_system(make_family([[1, 2], [1, 3], [1, 4]])) == frozenset({1})
    assert is_delta_system(make_family([[1, 2], [2, 3], [1, 3]])) is None


def test_is_delta_system_degenerate_conventions():
    assert is_delta_system(make_family([])) == frozenset()
    assert is_delta_system(make_family([[4, 5]])) == frozenset({4, 5})


def test_family_keeps_duplicate_members():
    family = make_family([[1], [1]])
    assert len(family) == 2 and family.sets[0] == family.sets[1]


def test_family_elements_are_integers():
    for bad in (1.0, True, "1"):
        with pytest.raises(InputError, match=f"family member 0 holds {bad!r}, which is not an integer"):
            make_family([[bad]])


def test_trace_kernel_known_cases():
    disjoint = make_family([[1], [2], [3], [4]])
    system = trace_kernel_sunflower(disjoint, {frozenset({1})})
    # anchor is the least member outside M; kernel empty; everything joins
    assert system.kernel == frozenset()
    assert system.indices == (0, 1, 2, 3)

    fam = make_family([[1, 2], [1, 3]])
    system2 = trace_kernel_sunflower(fam, {1})
    assert system2.kernel == frozenset({1})
    assert system2.indices == (0, 1)

    single = make_family([[7, 8]])
    system3 = trace_kernel_sunflower(single, set())
    assert system3.indices == (0,) and system3.degenerate


def test_trace_kernel_requires_member_outside():
    fam = make_family([[1], [2]])
    with pytest.raises(ValueError):
        trace_kernel_sunflower(fam, {frozenset({1}), frozenset({2})})


def test_trace_kernel_output_valid_and_maximal_random():
    rng = seeded(3)
    for _ in range(300):
        ground = range(rng.randint(1, 12))
        fam = make_family(
            [rng.sample(ground, rng.randint(0, min(4, len(ground)))) for _ in range(rng.randint(1, 9))]
        )
        m: set = {x for x in ground if rng.random() < 0.4}
        m |= {s for s in fam.sets if rng.random() < 0.5}
        if all(s in m for s in fam.sets):
            m.discard(fam.sets[0])  # membership is by value, keep one out
        system = trace_kernel_sunflower(fam, m)
        if len(system.members) >= 2:
            assert is_delta_system(system.members) == system.kernel
        else:
            assert all(system.kernel <= s for s in system.members)
        assert is_maximal_for_kernel(fam, system)


def test_max_sunflower_known_cases():
    fam = make_family([[1], [2], [3]])
    best = max_sunflower(fam)
    assert best.indices == (0, 1, 2) and best.kernel == frozenset()

    triple = make_family([[1, 2], [2, 3], [1, 3]])
    best2 = max_sunflower(triple)
    assert len(best2.indices) == 2  # no two intersections agree three ways

    # nine distinct pairs over seven points must contain three disjoint
    # petals or a common-element bouquet; the scan should find size >= 3
    pairs = make_family(list(itertools.combinations(range(7), 2))[:9])
    assert len(max_sunflower(pairs).indices) >= 3


def test_max_sunflower_petal_threshold():
    fam = make_family([[1, 2], [2, 3], [1, 3]])
    assert max_sunflower(fam, petals_required=3) is None
    assert max_sunflower(fam, petals_required=2) is not None


def test_max_sunflower_gate():
    big = make_family([[i] for i in range(21)])
    with pytest.raises(ValueError):
        max_sunflower(big)


def test_max_sunflower_matches_second_oracle():
    rng = seeded(17)
    for _ in range(250):
        ground = range(rng.randint(1, 9))
        fam = make_family(
            [rng.sample(ground, rng.randint(0, min(3, len(ground)))) for _ in range(rng.randint(0, 8))]
        )
        ours = max_sunflower(fam)
        other = max_sunflower_by_kernels(fam)
        assert ours.indices == other.indices
        assert ours.kernel == other.kernel


def test_free_set_known_cases():
    report = free_set(range(5), {i: frozenset() for i in range(5)})
    assert report.chosen == frozenset(range(5))
    assert report.maximum_size == 5

    report2 = free_set([1, 2], {1: frozenset({2}), 2: frozenset()})
    assert report2.chosen == frozenset({1})
    assert report2.maximum_size == 1

    ground = range(4)
    full = {x: frozenset(set(ground) - {x}) for x in ground}
    report3 = free_set(ground, full)
    assert len(report3.chosen) == 1 and report3.maximum_size == 1


def test_free_set_always_free_random():
    rng = seeded(23)
    for _ in range(200):
        n = rng.randint(1, 10)
        mapping = {
            x: frozenset(rng.sample(range(n), rng.randint(0, min(3, n))))
            for x in range(n)
        }
        report = free_set(range(n), mapping)
        assert is_free(report.chosen, mapping)
        assert report.maximum_size >= len(report.chosen)
