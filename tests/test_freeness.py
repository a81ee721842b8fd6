import random
from itertools import combinations

import pytest

from turanhg import freeness as fr
from turanhg.construct import build_parity, build_sidorenko
from turanhg.core import binom_exact, enumerate_ksubsets, hypergraph, indices_of, mask_of
from turanhg.krawtchouk import Shift, optimal_shift


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


def reference_splits(edge, k):
    """Unordered pairs (P, Q) of disjoint k-subsets with P | Q == edge."""
    verts = indices_of(edge)
    low = verts[0]
    for rest in combinations(verts[1:], k - 1):
        p = 1 << low
        for v in rest:
            p |= 1 << v
        yield p, edge ^ p


def covered_ksubsets(h):
    """The k-subsets of the vertices some edge holds, lexicographic."""
    covered = sorted({v for e in h.edges for v in indices_of(e)})
    return [mask_of(c) for c in combinations(covered, h.k)]


def reference_auxiliary_graph(h):
    """Reference build: one dict lookup and two big-int ORs per split."""
    subsets = tuple(covered_ksubsets(h))
    index = {s: i for i, s in enumerate(subsets)}
    adj = [0] * len(subsets)
    for e in h.edges:
        for p, q in reference_splits(e, h.k):
            ip, iq = index[p], index[q]
            adj[ip] |= 1 << iq
            adj[iq] |= 1 << ip
    return fr.AuxGraph(h.n, h.k, subsets, tuple(adj))


def relabel(mask, perm):
    return mask_of(perm[v] for v in indices_of(mask))


def best_parity(n, k):
    return build_parity(n, k, optimal_shift(n, k).maximizers[0])[0]




def test_auxiliary_graph_matches_reference_on_random_inputs():
    rng = random.Random(41)
    cases = [hypergraph(n, k, []) for k in (1, 2, 3) for n in (0, 2 * k, 2 * k + 3)]
    for _ in range(60):
        k = rng.choice((1, 2, 3))
        n = rng.randrange(2 * k, 11)
        density = rng.uniform(0.05, 0.5)
        pool = list(enumerate_ksubsets(n, 2 * k))
        cases.append(hypergraph(n, k, [m for m in pool if rng.random() < density]))
    for h in cases:
        assert fr.auxiliary_graph(h) == reference_auxiliary_graph(h)


def test_auxiliary_graph_matches_reference_on_certify_inputs():
    # the inputs of the benchmark's certify workload
    inputs = [best_parity(n, 2) for n in (16, 20, 24, 28)] + [best_parity(18, 3)]
    inputs += [build_sidorenko(n, 2, 2)[0] for n in (16, 20)]
    for h in inputs:
        assert fr.auxiliary_graph(h) == reference_auxiliary_graph(h)


def verify_free_certificate(h, r, classes):
    """Check, from h.edges alone, that classes over the indices of the
    covered k-subsets properly color the auxiliary graph with < r colors."""
    subsets = covered_ksubsets(h)
    if len(classes) >= r:
        return False
    color = {}
    for c, cls in enumerate(classes):
        for i in indices_of(cls):
            if i >= len(subsets) or subsets[i] in color:
                return False
            color[subsets[i]] = c
    if len(color) != len(subsets):
        return False
    for e in h.edges:
        verts = indices_of(e)
        for part in combinations(verts, h.k):
            p = mask_of(part)
            if color[p] == color[e ^ p]:
                return False
    return True


def certificate(h, r):
    return fr._colouring_below(fr.auxiliary_graph(h).adj, r)


def moved_vertex(adj, classes):
    """The certificate with one vertex of class 0 moved into class 1."""
    v = next(i for i in indices_of(classes[0]) if adj[i] & classes[1])
    return (classes[0] ^ 1 << v, classes[1] | 1 << v, *classes[2:])


def test_colouring_certifies_the_constructions():
    cases = []
    for k in (1, 2, 3):
        for n in range(2 * k, 13):
            for two_t in range(n % 2, n + 1, 2):
                cases.append((build_parity(n, k, Shift(two_t))[0], 3))
    cases += [(build_sidorenko(32, 2, 2)[0], 5), (build_sidorenko(32, 2, 3)[0], 9)]
    for h, r in cases:
        classes = certificate(h, r)
        assert classes is not None, (h.n, h.k, r)
        assert verify_free_certificate(h, r, classes)
        if h.edges:
            adj = fr.auxiliary_graph(h).adj
            assert not verify_free_certificate(h, r, moved_vertex(adj, classes))
            assert not verify_free_certificate(h, len(classes), classes)


def test_colouring_below_never_hides_a_copy():
    # the inputs of test_find_expansion_matches_brute_force
    rng = random.Random(5)
    fired = 0
    for _ in range(120):
        n = rng.randrange(4, 9)
        pool = list(enumerate_ksubsets(n, 4))
        edges = [m for m in pool if rng.random() < 0.3]
        h = hypergraph(n, 2, edges)
        for r in (2, 3):
            classes = certificate(h, r)
            if classes is not None:
                fired += 1
                assert verify_free_certificate(h, r, classes)
                assert brute_force_expansion(h, r) is None
    assert fired


def test_colouring_gives_up_on_graphs_with_cliques():
    n = 7
    adj = [((1 << n) - 1) ^ (1 << v) for v in range(n)]
    for r in range(0, n + 1):
        assert fr._colouring_below(adj, r) is None
    assert len(fr._colouring_below(adj, n + 1)) == n
    assert fr._colouring_below([], 1) == ()
    assert fr._colouring_below([], 0) is None


def test_certify_inputs_never_reach_the_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("fell back to the branch and bound")

    monkeypatch.setattr(fr, "_clique_in", refuse)
    for h, r in [(best_parity(28, 2), 3), (best_parity(28, 2), 5), (build_sidorenko(32, 2, 2)[0], 5)]:
        assert fr.find_clique(fr.auxiliary_graph(h).adj, r) is None
        assert fr.find_expansion(h, r) is None


def graph_route(h, r):
    """find_expansion without the odd part: the auxiliary graph's clique."""
    g = fr.auxiliary_graph(h)
    got = fr.find_clique(g.adj, r)
    return None if got is None else tuple(g.subsets[i] for i in got)


def brute_force_odd_part(h):
    """Some vertex set that every edge meets in an odd number of vertices."""
    for part in range(1 << h.n):
        if all((e & part).bit_count() % 2 for e in h.edges):
            return part
    return None


def parity_like(rng, n, k):
    """The 2k-sets meeting a random part oddly, with 0-2 of them toggled."""
    part = rng.randrange(1 << n)
    pool = list(enumerate_ksubsets(n, 2 * k))
    edges = {m for m in pool if (m & part).bit_count() % 2}
    for m in rng.sample(pool, min(len(pool), rng.randrange(3))):
        edges ^= {m}
    return hypergraph(n, k, edges)


def test_odd_part_route_agrees_with_the_graph_route():
    rng = random.Random(29)
    fired = 0
    for i in range(1200):
        k = rng.choice((1, 2, 3))
        n = rng.randrange(2 * k, 11)
        if i % 2:
            h = parity_like(rng, n, k)
        else:
            density = rng.uniform(0.05, 0.5)
            h = hypergraph(n, k, [m for m in enumerate_ksubsets(n, 2 * k) if rng.random() < density])
        part = fr._odd_part(h.edges, h.n)
        assert (part is None) == (brute_force_odd_part(h) is None)
        if part is not None:
            fired += 1
            assert all((e & part).bit_count() % 2 for e in h.edges)
        for r in range(2, 6):
            assert fr.find_expansion(h, r) == graph_route(h, r), (h, r)
    assert fired > 300


def test_thinly_spread_vertices_go_to_the_graph(monkeypatch):
    # 8 covered vertices spread over a span of 7,001, above 64: the graph
    # decides
    h = build_parity(8, 2, Shift(4))[0]
    spread = range(0, 7001, 1000)
    wide = hypergraph(7001, 2, [relabel(e, spread) for e in h.edges])
    monkeypatch.setattr(fr, "_odd_part", None)
    assert fr.find_expansion(wide, 3) is None
    assert fr.find_expansion(wide, 2) == tuple(relabel(p, spread) for p in fr.find_expansion(h, 2))


def test_odd_part_proves_the_certify_inputs_without_the_graph(monkeypatch):
    rng = random.Random(3)
    inputs = [best_parity(n, 2) for n in (16, 20, 24, 28)] + [best_parity(18, 3)]
    perms = [rng.sample(range(h.n), h.n) for h in inputs]
    inputs += [hypergraph(h.n, h.k, [relabel(e, p) for e in h.edges]) for h, p in zip(inputs, perms)]
    best8 = build_parity(8, 2, Shift(4))[0]  # the README's best8.hg
    validate_copy(best8, 2, fr.find_expansion(best8, 2))  # one edge is a copy at r = 2

    def refuse(*args):
        raise AssertionError("built the auxiliary graph")

    monkeypatch.setattr(fr, "_graph_on", refuse)
    for h in inputs + [best8]:
        assert fr.find_expansion(h, 3) is None


def test_odd_part_route_ends_at_vertex_63(monkeypatch):
    h = build_parity(8, 2, Shift(4))[0]
    for top, route in [(63, "_graph_on"), (64, "_odd_part")]:
        spread = [*range(7), top]
        wide = hypergraph(top + 1, 2, [relabel(e, spread) for e in h.edges])
        with monkeypatch.context() as patched:
            patched.setattr(fr, route, None)
            assert fr.find_expansion(wide, 3) is None


def test_xor_constructions_still_reach_the_colouring(monkeypatch):
    # a GF(2)^p labelling is no odd part: the r = 5 proof stays with DSATUR
    h = build_sidorenko(16, 2, 2)[0]
    assert fr._odd_part(h.edges, h.n) is None
    calls = []
    colouring_below = fr._colouring_below

    def record(adj, r):
        calls.append(r)
        return colouring_below(adj, r)

    monkeypatch.setattr(fr, "_colouring_below", record)
    assert fr.find_expansion(h, 5) is None
    assert calls == [5]


def test_find_expansion_ignores_uncovered_vertices():
    # a copy on vertices 0..5 inside a header of 10^12 vertices, and the
    # same copy relabelled in order into a smaller vertex set
    edges = [mask_of(a + b) for a, b in combinations([(0, 3), (1, 4), (2, 5)], 2)]
    big = hypergraph(10**12, 2, edges)
    assert fr.find_expansion(big, 4) is None
    copy = fr.find_expansion(big, 3)
    validate_copy(big, 3, copy)
    assert fr.find_expansion(hypergraph(10**12, 2, []), 2) is None
    spread = {0: 2, 1: 5, 2: 7, 3: 8, 4: 11, 5: 13}
    wide = hypergraph(14, 2, [mask_of(spread[v] for v in indices_of(e)) for e in edges])
    assert fr.find_expansion(wide, 3) == tuple(
        mask_of(spread[v] for v in indices_of(p)) for p in copy
    )


def test_is_maximal_free_on_uncovered_vertices():
    # answered without listing the k-subsets of a 10^12-vertex header
    empty = hypergraph(10**12, 2, [])
    assert fr.is_maximal_free(empty, 2)
    assert not fr.is_maximal_free(empty, 3)
    # vertex 6 is in no edge: the triangle copy's complement is not maximal
    edges = [mask_of(a + b) for a, b in combinations([(0, 3), (1, 4), (2, 5)], 2)]
    h = hypergraph(7, 2, edges)
    assert not fr.is_maximal_free(h, 4)
    assert brute_force_maximal(h, 4) is False
    # below 2k vertices no new edge exists
    assert fr.is_maximal_free(hypergraph(3, 2, []), 3)


AUX = "auxiliary graph built"


@pytest.mark.parametrize(
    "name, count, what, where, call",
    [
        ("MAX_AUX_VERTICES", 28, "auxiliary vertices", AUX, fr.auxiliary_graph),
        ("MAX_AUX_EDGES", 120, "auxiliary edges", AUX, fr.auxiliary_graph),
        (
            "MAX_MAXIMAL_SCAN",
            70,
            "candidate edges",
            "maximality scan",
            lambda h: fr.is_maximal_free(h, 3),
        ),
    ],
    ids=["vertices", "edges", "maximal-scan"],
)
def test_size_limits_are_exact(name, count, what, where, call, monkeypatch):
    # the parity construction on 6 + 2 vertices covers all 8: C(8, 2)
    # auxiliary vertices, C(4, 2) / 2 * 40 auxiliary edges and C(8, 4)
    # candidates for maximality; a limit of exactly that size is met, one
    # less is refused
    h, _ = build_parity(8, 2, Shift(4))
    monkeypatch.setattr(fr, name, count)
    call(h)
    monkeypatch.setattr(fr, name, count - 1)
    with pytest.raises(ValueError) as err:
        call(h)
    assert str(err.value) == f"{count} {what} exceed the largest {where}, {count - 1}"


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
    # at r=1 the edges do not matter: a copy exists exactly when n >= k
    rng = random.Random(11)
    for n in range(7):
        for k in range(1, 4):
            pool = list(enumerate_ksubsets(n, 2 * k))
            h = hypergraph(n, k, rng.sample(pool, rng.randrange(len(pool) + 1)))
            want = brute_force_expansion(h, 1)
            got = fr.find_expansion(h, 1)
            assert (got is None) == (want is None), (n, k)
            if got is None:
                assert brute_force_maximal(h, 1) and fr.is_maximal_free(h, 1)
                continue
            assert got == (mask_of(range(k)),)
            validate_copy(h, 1, got)
            with pytest.raises(ValueError):
                fr.is_maximal_free(h, 1)


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


def test_maximality_at_r3_reads_common_neighbours(monkeypatch):
    # at r = 3 a non-edge extends when its two halves share a neighbour,
    # so the scan asks for no 1-clique; at r = 4 it still asks for 2-cliques
    # (the freeness check before the scan asks for r-cliques)
    rng = random.Random(31)
    cases = [
        build_parity(n, 2, Shift(two_t))[0] for n in (6, 7, 8) for two_t in range(n % 2, n + 1, 2)
    ]
    for _ in range(20):
        n = rng.randrange(6, 9)
        h = hypergraph(n, 2, [m for m in enumerate_ksubsets(n, 4) if rng.random() < 0.1])
        if brute_force_expansion(h, 3) is None:
            full = greedy_completion(h, 3, rng)
            cases += [h, full, hypergraph(n, 2, full.edges[1:])]
    want = [brute_force_maximal(h, 3) for h in cases]
    assert set(want) == {True, False}
    clique_in = fr._clique_in
    calls = []

    def counted(adj, cand, r):
        calls.append(r)
        return clique_in(adj, cand, r)

    monkeypatch.setattr(fr, "_clique_in", counted)
    assert [fr.is_maximal_free(h, 3) for h in cases] == want
    assert 1 not in calls
    h = build_parity(8, 2, Shift(4))[0]
    assert fr.is_maximal_free(h, 4) == brute_force_maximal(h, 4)
    assert 2 in calls


def test_expansion_vertex_budget():
    # r*k > n can never embed
    h = hypergraph(5, 2, [0b01111, 0b10111, 0b11011, 0b11101, 0b11110])
    assert fr.find_expansion(h, 3) is None
