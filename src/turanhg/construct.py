"""Extremal 2k-uniform constructions: parity bipartition and GF(2) labels.

The parity construction splits 0..n-1 into parts of sizes n/2 + t and
n/2 - t and takes as edges all 2k-subsets meeting both parts in an odd
number of vertices (one odd count forces the other since edges have
even size).  Edge and degree counts have closed forms in terms of
Krawtchouk polynomials:

    edges(n, t)        = (C(n, 2k)     - K_{2k}^n(n/2 + t)) / 2
    degree(n, t, side) = (C(n-1, 2k-1) + K_{2k-1}^{n-1}(size - 1)) / 2

where `size` is the size of the addressed part.  The library computes
both counts by their direct combinatorial sums; the tests check them
against these closed forms (and, for k = 2, against polynomial
identities in n and t).

The GF(2) construction labels vertices with vectors of GF(2)^p in
2^p equal blocks and keeps the 2k-subsets whose label XOR is nonzero.
Its edge density tends to (r - 2)/(r - 1) with r = 2^p + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import Hypergraph, binom_exact, enumerate_ksubsets, mask_of


@dataclass(frozen=True, order=True)
class Shift:
    """Bipartition shift t stored as the integer 2t."""

    two_t: int

    def feasible(self, n: int) -> bool:
        """True iff n/2 + t and n/2 - t are both nonnegative integers."""
        return abs(self.two_t) <= n and (n + self.two_t) % 2 == 0

    def part_sizes(self, n: int) -> tuple[int, int]:
        """(n/2 + t, n/2 - t) as exact integers."""
        if not self.feasible(n):
            raise ValueError(f"shift 2t={self.two_t} infeasible for n={n}")
        return (n + self.two_t) // 2, (n - self.two_t) // 2


@dataclass(frozen=True)
class Bipartition:
    """Assignment of each vertex to part 1 or part 2."""

    n: int
    part_of: tuple[int, ...]

    def __post_init__(self):
        if len(self.part_of) != self.n:
            raise ValueError(f"part_of has {len(self.part_of)} entries, expected {self.n}")
        if any(p not in (1, 2) for p in self.part_of):
            raise ValueError("parts must be 1 or 2")

    def mask(self, part: int) -> int:
        """Bitmask of the vertices in the given part."""
        return mask_of(v for v, p in enumerate(self.part_of) if p == part)

    def sizes(self) -> tuple[int, int]:
        n1 = sum(1 for p in self.part_of if p == 1)
        return n1, self.n - n1


@dataclass(frozen=True)
class GF2Labeling:
    """Assignment of a GF(2)^p label (an int < 2^p) to each vertex."""

    p: int
    labels: tuple[int, ...]

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"need p >= 1, got {self.p}")
        if any(not 0 <= w < (1 << self.p) for w in self.labels):
            raise ValueError("labels must lie in 0 .. 2^p - 1")


def build_parity(n: int, k: int, shift: Shift) -> tuple[Hypergraph, Bipartition]:
    """The parity construction; part 1 is the prefix 0 .. n/2+t-1."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    n1, n2 = shift.part_sizes(n)
    edges: list[int] = []
    for i in range(1, 2 * k, 2):
        j = 2 * k - i
        if i > n1 or j > n2:
            continue
        right = [m << n1 for m in enumerate_ksubsets(n2, j)]
        edges.extend(a | b for a in enumerate_ksubsets(n1, i) for b in right)
    h = Hypergraph(n, k, tuple(sorted(edges)))
    return h, Bipartition(n, (1,) * n1 + (2,) * n2)


def parity_edge_count(n: int, k: int, shift: Shift) -> int:
    """Edge count of the parity construction, by its binomial sum."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    n1, n2 = shift.part_sizes(n)
    return sum(
        binom_exact(n1, i) * binom_exact(n2, 2 * k - i) for i in range(1, 2 * k, 2)
    )


def parity_degree(n: int, k: int, shift: Shift, side: str) -> int:
    """Vertex degree in the parity construction on the addressed part.

    side="large" addresses the part of size n/2 + t, side="small" the
    part of size n/2 - t (the names read naturally for t >= 0).
    """
    if side not in ("large", "small"):
        raise ValueError(f"side must be 'large' or 'small', got {side!r}")
    n1, n2 = shift.part_sizes(n)
    own, other = (n1, n2) if side == "large" else (n2, n1)
    if own == 0:
        raise ValueError(f"the {side} part is empty for n={n}, 2t={shift.two_t}")
    return sum(
        binom_exact(own - 1, i - 1) * binom_exact(other, 2 * k - i)
        for i in range(1, 2 * k, 2)
    )


def _block_sizes(n: int, p: int, allow_remainder: bool) -> list[int]:
    blocks = 1 << p
    base, rem = divmod(n, blocks)
    if rem and not allow_remainder:
        raise ValueError(
            f"n={n} is not divisible by 2^p={blocks}; "
            "pass allow_remainder=True to distribute the remainder round-robin"
        )
    return [base + (1 if w < rem else 0) for w in range(blocks)]


def build_sidorenko(
    n: int, k: int, p: int, *, allow_remainder: bool = False
) -> tuple[Hypergraph, GF2Labeling]:
    """The GF(2)^p construction: edges are 2k-subsets with nonzero label XOR.

    Labels are assigned in contiguous blocks, vector 0 first.  Equal
    block sizes require 2^p | n; allow_remainder=True instead gives the
    first n mod 2^p blocks one extra vertex (a convention, not part of
    the equal-blocks setting).
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    sizes = _block_sizes(n, p, allow_remainder)
    labels: list[int] = []
    for w, s in enumerate(sizes):
        labels.extend([w] * s)
    lab = GF2Labeling(p, tuple(labels))
    edges = []
    for combo in combinations(range(n), 2 * k):
        acc = 0
        m = 0
        for v in combo:
            acc ^= labels[v]
            m |= 1 << v
        if acc:
            edges.append(m)
    h = Hypergraph(n, k, tuple(sorted(edges)))
    return h, lab


def label_xor(mask: int, labeling: GF2Labeling) -> int:
    """XOR of the labels of the vertices in the mask."""
    acc = 0
    v = 0
    while mask:
        if mask & 1:
            acc ^= labeling.labels[v]
        mask >>= 1
        v += 1
    return acc


def sidorenko_edge_count(
    n: int, k: int, p: int, *, allow_remainder: bool = False
) -> int:
    """Edge count of build_sidorenko without materializing it.

    Counts 2k-subsets with label XOR zero by dynamic programming over
    the label blocks, then subtracts from C(n, 2k).
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    sizes = _block_sizes(n, p, allow_remainder)
    vals = 1 << p
    # ways[c][x]: chosen c vertices so far with label XOR x
    ways = [[0] * vals for _ in range(2 * k + 1)]
    ways[0][0] = 1
    for w, s in enumerate(sizes):
        nxt = [[0] * vals for _ in range(2 * k + 1)]
        for c in range(2 * k + 1):
            row = ways[c]
            for x in range(vals):
                cnt = row[x]
                if not cnt:
                    continue
                for j in range(0, min(s, 2 * k - c) + 1):
                    y = x ^ w if j & 1 else x
                    nxt[c + j][y] += cnt * binom_exact(s, j)
        ways = nxt
    return binom_exact(n, 2 * k) - ways[2 * k][0]
