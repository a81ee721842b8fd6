import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from turanhg import construct as cn
from turanhg.core import binom_exact, enumerate_ksubsets, vertex_degrees
from turanhg.krawtchouk import Shift, optimal_shift


def parity_edges_by_sum(n1, n2, k):
    """Oracle: the 2k-subsets taking an odd number i from the part of n1."""
    return sum(binom_exact(n1, i) * binom_exact(n2, 2 * k - i) for i in range(1, 2 * k, 2))


def parity_degree_by_sum(n1, n2, k, side):
    """Oracle: deleting a vertex of the addressed part deletes its edges."""
    own, other = (n1, n2) if side == "large" else (n2, n1)
    return parity_edges_by_sum(own, other, k) - parity_edges_by_sum(own - 1, other, k)


def brute_parity_edges(n, k, two_t):
    """Reference: filter all 2k-subsets by the odd/odd condition."""
    n1 = (n + two_t) // 2
    part1 = (1 << n1) - 1
    out = []
    for m in enumerate_ksubsets(n, 2 * k):
        if (m & part1).bit_count() % 2 == 1:
            out.append(m)
    return out


def test_build_parity_matches_brute_force():
    for k in (1, 2, 3):
        for n in range(2 * k, 13):
            for two_t in range(-n, n + 1, 2) if n % 2 == 0 else range(-n, n + 1, 2):
                h, part = cn.build_parity(n, k, Shift(two_t))
                assert list(h.edges) == sorted(brute_parity_edges(n, k, two_t))
                n1, n2 = part.sizes()
                assert n1 == (n + two_t) // 2 and n1 + n2 == n


def test_parity_edge_count_frozen():
    assert cn.parity_edge_count(6, 2, Shift(0)) == 6
    assert cn.parity_edge_count(6, 2, Shift(2)) == 8
    assert cn.parity_edge_count(6, 2, Shift(4)) == 10
    assert cn.parity_edge_count(6, 2, Shift(6)) == 0
    assert cn.parity_edge_count(8, 2, Shift(4)) == 40
    assert cn.parity_edge_count(4, 1, Shift(0)) == 4
    assert cn.parity_edge_count(12, 2, Shift(6)) == 261


def test_parity_count_negative_shift_symmetry():
    for n in range(4, 16):
        for two_t in range(n % 2, n + 1, 2):
            assert cn.parity_edge_count(n, 2, Shift(two_t)) == cn.parity_edge_count(
                n, 2, Shift(-two_t)
            )


def test_parity_below_uniformity_is_empty():
    # n < 2k leaves nothing to enumerate
    h, _ = cn.build_parity(3, 2, Shift(1))
    assert h.edge_count == 0
    assert cn.parity_edge_count(3, 2, Shift(1)) == 0


def test_infeasible_shift_raises():
    with pytest.raises(ValueError):
        cn.build_parity(8, 2, Shift(3))  # parity mismatch
    with pytest.raises(ValueError):
        cn.parity_edge_count(8, 2, Shift(10))  # exceeds n
    with pytest.raises(ValueError):
        cn.parity_degree(8, 2, Shift(3), "large")


def test_parity_degree_frozen():
    assert cn.parity_degree(8, 2, Shift(4), "large") == 20
    assert cn.parity_degree(8, 2, Shift(4), "small") == 20
    # handshake at (8,2,t=2): 6*20 + 2*20 = 4*40
    assert 6 * 20 + 2 * 20 == 4 * cn.parity_edge_count(8, 2, Shift(4))


def test_parity_degree_matches_enumeration():
    for k in (1, 2, 3):
        for n in range(2 * k, 12):
            for two_t in range(n % 2, n + 1, 2):
                h, part = cn.build_parity(n, k, Shift(two_t))
                degs = vertex_degrees(h)
                n1, n2 = part.sizes()
                if n1:
                    want = cn.parity_degree(n, k, Shift(two_t), "large")
                    assert all(degs[v] == want for v in range(n1))
                if n2:
                    want = cn.parity_degree(n, k, Shift(two_t), "small")
                    assert all(degs[v] == want for v in range(n1, n))


def test_parity_counts_match_closed_forms():
    # the Krawtchouk closed forms of the module docstring against the
    # binomial sums over the part sizes, and for k = 2 the quartic b and
    # the cubic degree in n and t
    for k in (1, 2, 3, 4):
        for n in range(2 * k, 61):
            for two_t in range(-n, n + 1, 2):
                sh = Shift(two_t)
                n1, n2 = sh.part_sizes(n)
                assert cn.parity_edge_count(n, k, sh) == parity_edges_by_sum(n1, n2, k)
                for side, own in (("large", n1), ("small", n2)):
                    if own:
                        d = cn.parity_degree(n, k, sh, side)
                        assert d == parity_degree_by_sum(n1, n2, k, side)
    for n in range(4, 201):
        for two_t in range(-n, n + 1, 2):
            sh = Shift(two_t)
            n1, n2 = sh.part_sizes(n)
            b = cn.parity_edge_count(n, 2, sh)
            assert 48 * b == (n * n - 3 * n + 4) ** 2 - (two_t**2 - 3 * n + 4) ** 2
            for side, own, other in (("large", n1, n2), ("small", n2, n1)):
                if own:
                    d = cn.parity_degree(n, 2, sh, side)
                    assert d == other * binom_exact(own - 1, 2) + binom_exact(other, 3)
    # a large k: 400 recurrence steps per count
    start = time.perf_counter()
    for two_t in (-2000, -600, 0, 2, 64, 1998):
        sh = Shift(two_t)
        n1, n2 = sh.part_sizes(2000)
        assert cn.parity_edge_count(2000, 200, sh) == parity_edges_by_sum(n1, n2, 200)
        for side, own in (("large", n1), ("small", n2)):
            if own:
                d = cn.parity_degree(2000, 200, sh, side)
                assert d == parity_degree_by_sum(n1, n2, 200, side)
    assert time.perf_counter() - start < 1


def test_parity_degree_empty_side_raises():
    with pytest.raises(ValueError):
        cn.parity_degree(8, 2, Shift(8), "small")


def test_handshake_identity():
    for n in range(4, 16):
        for two_t in range(n % 2, n - 1, 2):
            n1 = (n + two_t) // 2
            n2 = n - n1
            total = n1 * cn.parity_degree(n, 2, Shift(two_t), "large")
            if n2:
                total += n2 * cn.parity_degree(n, 2, Shift(two_t), "small")
            assert total == 4 * cn.parity_edge_count(n, 2, Shift(two_t))


def brute_sidorenko_edges(n, k, labels):
    out = []
    for m in enumerate_ksubsets(n, 2 * k):
        x = 0
        mm = m
        while mm:
            low = mm & -mm
            x ^= labels[low.bit_length() - 1]
            mm ^= low
        if x:
            out.append(m)
    return out


def test_build_sidorenko_matches_brute_force():
    for p in (1, 2, 3):
        for n in range(2**p, 17):
            for k in (1, 2, 3):
                h, lab = cn.build_sidorenko(n, k, p, allow_remainder=True)
                assert list(h.edges) == sorted(brute_sidorenko_edges(n, k, lab.labels))
                assert h.edge_count == cn.sidorenko_edge_count(n, k, p, allow_remainder=True)
                if n % 2**p == 0:
                    assert (h, lab) == cn.build_sidorenko(n, k, p)
                    assert h.edge_count == cn.sidorenko_edge_count(n, k, p)


def dp_zero_xor_count(k, sizes):
    """Reference: 2k-subsets with label XOR zero, by a DP over blocks of
    the given sizes, block w labelled w."""
    # ways[c][x]: c vertices chosen so far, with label XOR x
    ways = [[0] * len(sizes) for _ in range(2 * k + 1)]
    ways[0][0] = 1
    for w, s in enumerate(sizes):
        nxt = [[0] * len(sizes) for _ in range(2 * k + 1)]
        for c in range(2 * k + 1):
            for x, cnt in enumerate(ways[c]):
                if not cnt:
                    continue
                for j in range(min(s, 2 * k - c) + 1):
                    nxt[c + j][x ^ w if j & 1 else x] += cnt * binom_exact(s, j)
        ways = nxt
    return ways[2 * k][0]


def test_sidorenko_edge_count_matches_block_dp():
    for p in (1, 2, 3, 4):
        for n in range(2**p, 201):
            sizes = [n // 2**p + (w < n % 2**p) for w in range(2**p)]
            for k in (1, 2, 3, 4, 5):
                want = binom_exact(n, 2 * k) - dp_zero_xor_count(k, sizes)
                assert cn.sidorenko_edge_count(n, k, p, allow_remainder=True) == want
                if n % 2**p == 0:
                    assert cn.sidorenko_edge_count(n, k, p) == want


def test_sidorenko_edge_count_with_remainder_at_large_p():
    # 2^14 blocks: the count walks the remainder's bits, not the blocks
    # (a sum over blocks per a took seconds at p = 11); at k = 1 the
    # zero-XOR pairs are exactly the pairs inside one block
    p = 14
    for n in (2**p + 1, 2**p + 5000, 3 * 2**p - 1):
        sizes = [n // 2**p + (w < n % 2**p) for w in range(2**p)]
        t0 = time.perf_counter()
        got = cn.sidorenko_edge_count(n, 1, p, allow_remainder=True)
        assert time.perf_counter() - t0 < 5
        assert got == binom_exact(n, 2) - sum(binom_exact(s, 2) for s in sizes)


def test_sidorenko_edge_count_counts_each_odd_side_once(monkeypatch):
    # the a with equal odd sides share one parity count: with 2^p | n all
    # 2^20 - 1 of them do, and the refusal of this construction took one
    # count per a
    calls = []
    count = cn.parity_edge_count
    monkeypatch.setattr(cn, "parity_edge_count", lambda *args: calls.append(args) or count(*args))
    assert cn.sidorenko_edge_count(2**20, 1, 20) == binom_exact(2**20, 2)
    assert len(calls) == 1
    calls.clear()
    sizes = [1000 // 32 + (w < 1000 % 32) for w in range(32)]
    got = cn.sidorenko_edge_count(1000, 1, 5, allow_remainder=True)
    assert got == binom_exact(1000, 2) - sum(binom_exact(s, 2) for s in sizes)
    assert 1 < len(calls) == len(set(calls)) < 31


def test_odd_sides_match_the_walk():
    # _odd_sides against #{w < r : <a, w> odd} walked over every nonzero a
    def walked(p, r):
        return Counter(sum((a & w).bit_count() & 1 for w in range(r)) for a in range(1, 1 << p))

    rng = random.Random(8)
    for p in range(1, 9):
        for r in range(1 << p) if p <= 6 else rng.sample(range(1 << p), 6):
            assert cn._odd_sides(p, r) == walked(p, r), (p, r)


def kraw_by_sum(m, n, x):
    return sum((-1) ** i * binom_exact(x, i) * binom_exact(n - x, m - i) for i in range(m + 1))


def zero_xor_free_count(n, k, p):
    """With 2^p | n every nonzero a splits the vertices in halves, so
    C(n, 2k) - (C(n, 2k) + (2^p - 1) K_{2k}^n(n/2)) / 2^p sets have a
    nonzero label XOR (the character sum over a)."""
    c = binom_exact(n, 2 * k)
    return c - (c + ((1 << p) - 1) * kraw_by_sum(2 * k, n, n // 2) >> p)


def test_sidorenko_edge_count_matches_the_character_sum():
    for p in range(1, 9):
        for n in (2**p, 3 * 2**p, 5 * 2**p):
            for k in (1, 2, 3):
                if 2 * k <= n:
                    assert cn.sidorenko_edge_count(n, k, p) == zero_xor_free_count(n, k, p)


def test_sidorenko_edge_count_at_p_30():
    # the odd sides are listed in O(p) steps, not one per label
    n, p = 2**30, 30
    start = time.perf_counter()
    for k in (1, 2):
        assert cn.sidorenko_edge_count(n, k, p) == zero_xor_free_count(n, k, p)
    # with 12,345 blocks of two, the zero-XOR pairs are those 12,345 pairs
    got = cn.sidorenko_edge_count(n + 12345, 1, p, allow_remainder=True)
    assert time.perf_counter() - start < 1
    assert got == binom_exact(n + 12345, 2) - 12345


def test_sidorenko_needs_a_vertex_per_label():
    # p < 1, or n < 2^p (some label class empty), is refused by the
    # builder and the count alike; tests/test_cli.py covers a large p
    for n, k, p, rem in [(8, 2, 0, False), (8, 2, -1, False), (0, 2, 1, False), (3, 1, 2, True)]:
        for f in (cn.build_sidorenko, cn.sidorenko_edge_count):
            with pytest.raises(ValueError) as err:
                f(n, k, p, allow_remainder=rem)
            assert f"n={n} p={p}" in str(err.value)


@pytest.mark.parametrize(
    "build, count",
    [
        (lambda: cn.build_parity(10, 2, Shift(2)), cn.parity_edge_count(10, 2, Shift(2))),
        (lambda: cn.build_sidorenko(8, 2, 2), cn.sidorenko_edge_count(8, 2, 2)),
    ],
)
def test_construction_limit_is_exact(build, count, monkeypatch):
    # a construction of exactly the limit is built, one edge more is refused
    monkeypatch.setattr(cn, "MAX_CONSTRUCTION_EDGES", count)
    assert build()[0].edge_count == count
    monkeypatch.setattr(cn, "MAX_CONSTRUCTION_EDGES", count - 1)
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == (
        f"{count} edges exceed the largest construction built, {count - 1}"
    )


def test_sidorenko_labels_contiguous():
    _, lab = cn.build_sidorenko(8, 2, 2)
    assert lab.labels == (0, 0, 1, 1, 2, 2, 3, 3)
    _, lab = cn.build_sidorenko(8, 2, 1)
    assert lab.labels == (0, 0, 0, 0, 1, 1, 1, 1)


def test_sidorenko_frozen_counts():
    assert cn.sidorenko_edge_count(8, 2, 2) == 48  # 70 - 22 zero-sum 4-sets
    assert cn.sidorenko_edge_count(8, 2, 1) == 32


def test_sidorenko_p1_equals_parity_t0():
    # one-bit labels: XOR != 0 is exactly the odd/odd condition at t=0
    for n in (4, 6, 8, 10):
        hs, _ = cn.build_sidorenko(n, 2, 1)
        hp, _ = cn.build_parity(n, 2, Shift(0))
        assert hs == hp


def test_sidorenko_divisibility():
    with pytest.raises(ValueError):
        cn.build_sidorenko(6, 2, 2)
    with pytest.raises(ValueError):
        cn.sidorenko_edge_count(6, 2, 2)
    # remainder mode distributes the extra vertices round-robin
    h, lab = cn.build_sidorenko(6, 2, 2, allow_remainder=True)
    assert lab.labels == (0, 0, 1, 1, 2, 3)
    assert h.edge_count == cn.sidorenko_edge_count(6, 2, 2, allow_remainder=True)
    assert list(h.edges) == sorted(brute_sidorenko_edges(6, 2, lab.labels))


def test_sidorenko_density_approaches_limit():
    # density tends to (r-2)/(r-1), r = 2^p + 1, monotonically in the gap
    for p in (1, 2):
        r = 2**p + 1
        target = Fraction(r - 2, r - 1)
        prev_gap = None
        for n in (8, 16, 32, 64, 128):
            e = cn.sidorenko_edge_count(n, 2, p)
            gap = abs(Fraction(e, binom_exact(n, 4)) - target)
            if prev_gap is not None:
                assert gap <= prev_gap
            prev_gap = gap
        assert prev_gap < Fraction(1, 10)


def test_max_degree_cubic_bound():
    # max degree of the edge-maximal parity construction stays below
    # n^3/12 - n^2/2 + n^(3/2) for 100 <= n <= 1000 (k=2)
    for n in range(100, 1001):
        for sh in optimal_shift(n, 2).maximizers:
            dmax = max(
                cn.parity_degree(n, 2, sh, "large"),
                cn.parity_degree(n, 2, sh, "small"),
            )
            delta = dmax - Fraction(n**3, 12) + Fraction(n**2, 2)
            assert delta < 0 or delta * delta < n**3
