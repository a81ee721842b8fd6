import random
from itertools import combinations

import pytest

from turanhg import freeness as fr
from turanhg.construct import build_parity, build_sidorenko
from turanhg.core import binom_exact, enumerate_ksubsets, hypergraph, indices_of
from turanhg.krawtchouk import Shift


def brute_force_expansion(h, r):
    """Reference search: try every family of r pairwise-disjoint k-sets."""
    edges = h.edge_set()
    subsets = list(enumerate_ksubsets(h.n, h.k))

    def grow(chosen, start):
        if len(chosen) == r:
            return tuple(chosen)
        for i in range(start, len(subsets)):
            s = subsets[i]
            if any(s & c for c in chosen):
                continue
            if all((s | c) in edges for c in chosen):
                got = grow(chosen + [s], i + 1)
                if got:
                    return got
        return None

    return grow([], 0)


def validate_copy(h, r, copy):
    assert len(copy) == r
    assert all(p.bit_count() == h.k for p in copy)
    union = 0
    for p in copy:
        assert union & p == 0
        union |= p
    edges = h.edge_set()
    for a, b in combinations(copy, 2):
        assert (a | b) in edges


def test_auxiliary_graph_edge_identity():
    h, _ = build_parity(8, 2, Shift(4))
    g = fr.auxiliary_graph(h)
    assert g.n == 8 and g.k == 2
    assert len(g.subsets) == binom_exact(8, 2)
    assert 2 * g.edge_count == binom_exact(4, 2) * h.edge_count


def test_find_clique_complete_graph():
    n = 7
    adj = [((1 << n) - 1) ^ (1 << v) for v in range(n)]
    for r in range(1, n + 1):
        got = fr.find_clique(adj, r)
        assert got is not None and len(got) == len(set(got)) == r
    assert fr.find_clique(adj, n + 1) is None


def test_find_clique_triangle_free():
    # C_5 has cliques of size 2 only
    adj = [0] * 5
    for i in range(5):
        adj[i] |= 1 << ((i + 1) % 5)
        adj[(i + 1) % 5] |= 1 << i
    assert fr.find_clique(adj, 2) is not None
    assert fr.find_clique(adj, 3) is None


def test_find_clique_against_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(3, 11)
        adj = [0] * n
        for i, j in combinations(range(n), 2):
            if rng.random() < 0.5:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        # brute force maximum clique size
        best = 0
        for size in range(n, 0, -1):
            for c in combinations(range(n), size):
                if all(adj[i] >> j & 1 for i, j in combinations(c, 2)):
                    best = size
                    break
            if best:
                break
        for r in range(1, n + 1):
            assert (fr.find_clique(adj, r) is not None) == (r <= best)


def test_find_expansion_on_complete_hypergraph():
    h = hypergraph(8, 2, list(enumerate_ksubsets(8, 4)))
    copy = fr.find_expansion(h, 3)
    assert copy is not None
    validate_copy(h, 3, copy)
    assert fr.find_expansion(h, 5) is None  # needs 10 > 8 vertices


def test_find_expansion_r1_and_r2():
    h, _ = build_parity(6, 2, Shift(0))
    one = fr.find_expansion(h, 1)
    assert one is not None and len(one) == 1
    two = fr.find_expansion(h, 2)
    assert two is not None
    validate_copy(h, 2, two)
    empty = hypergraph(6, 2, [])
    assert fr.find_expansion(empty, 2) is None
    # r=1 needs no edges, just k disjoint vertices
    assert fr.find_expansion(empty, 1) is not None


def test_parity_constructions_are_free():
    for n in range(4, 13):
        for two_t in range(n % 2, n + 1, 2):
            h, _ = build_parity(n, 2, Shift(two_t))
            assert fr.find_expansion(h, 3) is None


def test_sidorenko_construction_freeness():
    h, _ = build_sidorenko(12, 2, 2)
    assert fr.find_expansion(h, 5) is None
    assert fr.find_expansion(h, 4) is not None  # r < 2^p + 1 copies do exist


def test_find_expansion_matches_brute_force():
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randrange(4, 9)
        pool = list(enumerate_ksubsets(n, 4))
        edges = [m for m in pool if rng.random() < 0.3]
        h = hypergraph(n, 2, edges)
        for r in (2, 3):
            want = brute_force_expansion(h, r)
            got = fr.find_expansion(h, r)
            assert (got is None) == (want is None)
            if got is not None:
                validate_copy(h, r, got)


def test_find_expansion_matches_brute_force_up_to_n9():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randrange(5, 10)
        pool = list(enumerate_ksubsets(n, 4))
        h = hypergraph(n, 2, [m for m in pool if rng.random() < 0.25])
        got = fr.find_expansion(h, 3)
        assert (got is None) == (brute_force_expansion(h, 3) is None)
        if got is not None:
            validate_copy(h, 3, got)


def test_is_maximal_free():
    h, _ = build_parity(8, 2, Shift(4))
    assert fr.is_maximal_free(h, 3)
    # dropping an edge leaves the construction free but no longer maximal
    h2 = hypergraph(8, 2, h.edges[1:])
    assert fr.find_expansion(h2, 3) is None
    assert not fr.is_maximal_free(h2, 3)


def test_is_maximal_free_rejects_non_free():
    h = hypergraph(8, 2, list(enumerate_ksubsets(8, 4)))
    with pytest.raises(ValueError):
        fr.is_maximal_free(h, 3)


def brute_force_maximal(h, r):
    """Reference: every non-edge e gives h + e a copy, found by brute force."""
    edges = h.edge_set()
    return all(
        brute_force_expansion(hypergraph(h.n, h.k, h.edges + (e,)), r) is not None
        for e in enumerate_ksubsets(h.n, 2 * h.k)
        if e not in edges
    )


def greedy_completion(h, r, rng):
    """Add the non-edges of h in random order while h stays free."""
    edges = h.edge_set()
    pool = [e for e in enumerate_ksubsets(h.n, 2 * h.k) if e not in edges]
    rng.shuffle(pool)
    for e in pool:
        grown = hypergraph(h.n, h.k, h.edges + (e,))
        if brute_force_expansion(grown, r) is None:
            h = grown
    return h


def test_is_maximal_free_matches_brute_force():
    rng = random.Random(29)
    cases = []
    for _ in range(60):
        n = rng.randrange(5, 10)
        r = rng.choice((2, 3, 4))
        pool = list(enumerate_ksubsets(n, 4))
        h = hypergraph(n, 2, [m for m in pool if rng.random() < 0.1])
        if brute_force_expansion(h, r) is None:
            # the sparse input, a free completion of it (maximal) and that
            # completion less one edge (free, and not maximal)
            full = greedy_completion(h, r, rng)
            cases += [(h, r), (full, r)]
            if full.edges:
                cases.append((hypergraph(n, 2, full.edges[1:]), r))
    for n in range(6, 10):
        for two_t in range(n % 2, n + 1, 2):
            cases.append((build_parity(n, 3, Shift(two_t))[0], 3))
    answers = set()
    for h, r in cases:
        want = brute_force_maximal(h, r)
        assert fr.is_maximal_free(h, r) == want, (h, r)
        answers.add(want)
    assert answers == {True, False}


def test_expansion_vertex_budget():
    # r*k > n can never embed
    h = hypergraph(5, 2, [0b01111, 0b10111, 0b11011, 0b11101, 0b11110])
    assert fr.find_expansion(h, 3) is None
