"""The benchmark's independent answers agree with plain enumeration.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from itertools import combinations

import pytest

import workloads as w


@pytest.mark.parametrize("n1,n2,k", [(3, 5, 2), (6, 6, 2), (7, 4, 3), (1, 9, 2)])
def test_odd_meet_and_degree_count_the_parity_construction(n1, n2, k):
    n = n1 + n2
    part1 = (1 << n1) - 1
    edges = w.parity_edges(n, k, part1)
    assert len(edges) == w.odd_meet(n1, n2, k)
    assert sum(1 for e in edges if e & 1) == w.odd_degree(n1, n2, k)
    assert sum(1 for e in edges if e >> (n - 1) & 1) == w.odd_degree(n2, n1, k)


@pytest.mark.parametrize("n,k,p", [(8, 2, 2), (12, 2, 2), (8, 2, 1), (16, 3, 3)])
def test_character_sum_counts_the_xor_construction(n, k, p):
    assert w.xor_edges(n, k, p) == len(w.xor_block_edges(n, k, p))


def test_best_shifts_matches_a_known_value():
    assert w.best_shifts(8, 2) == (40, (4,))
    assert w.best_shifts(7, 2) == (20, (3, 5))


def test_expanded_triangle_brute_force():
    n = 8
    assert not w.has_expanded_triangle(n, frozenset(w.parity_edges(n, 2, 0b1111_00)))
    assert w.has_expanded_triangle(6, frozenset(w.subsets(6, 4)))


def test_maximality_brute_force_on_a_parity_construction():
    edges = frozenset(w.parity_edges(10, 2, (1 << 7) - 1))
    assert w.every_non_edge_completes(10, edges)


def test_expansion_problems_accepts_only_real_copies():
    edges = frozenset(m for m in w.subsets(6, 4))
    parts = (0b000011, 0b001100, 0b110000)
    assert w.expansion_problems(parts, 2, 3, edges) == []
    assert w.expansion_problems(parts[:2], 2, 3, edges)
    assert w.expansion_problems((0b000011, 0b000110, 0b110000), 2, 3, edges)


def test_stratified_draws_one_value_per_stratum_in_range():
    import random

    values = w.stratified(random.Random(3), 8, 4000, 24)
    assert len(values) == 24
    assert all(8 <= v < 4000 for v in values)
    assert values == sorted(values)


@pytest.mark.parametrize("name", w.WORKLOADS)
@pytest.mark.parametrize("seed", [0, -7, 2**61 + 1])
def test_any_seed_builds_and_repeats(name, seed):
    a, b = w.build(name, seed), w.build(name, seed)
    assert [j.id for j in a.jobs] == [j.id for j in b.jobs]
    assert [c.argv for c in a.cli] == [c.argv for c in b.cli]
    assert a.cli_inputs == b.cli_inputs


def test_relabel_moves_every_bit():
    perm = [2, 0, 1]
    assert w.relabel(0b011, perm) == 0b101
    assert all(
        w.relabel(sum(1 << v for v in c), perm).bit_count() == 2 for c in combinations(range(3), 2)
    )


def test_census_by_counts_matches_a_walk_over_all_tuples():
    import random

    from turanhg import construct, core

    rng = random.Random(5)
    n, k = 10, 2
    tuples = w.subsets(n, 2 * k)
    h = core.hypergraph(n, k, rng.sample(tuples, 90))
    part = construct.Bipartition(n, tuple(rng.choice((1, 2)) for _ in range(n)))
    mask1, edges = part.mask(1), h.edge_set()
    walk = [0, 0, 0, 0]
    for m in tuples:
        walk[(0 if (m & mask1).bit_count() & 1 else 1) + (0 if m in edges else 2)] += 1
    assert w.census_by_counts(h, part) == tuple(walk)
