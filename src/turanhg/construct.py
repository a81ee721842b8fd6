"""Extremal 2k-uniform constructions: GF(2) labels and the parity bipartition.

The GF(2) construction labels vertices with vectors of GF(2)^p in
2^p equal blocks and keeps the 2k-subsets whose label XOR is nonzero.
Its edge density tends to (r - 2)/(r - 1) with r = 2^p + 1.  The parity
construction is its p = 1 case: parts of sizes n/2 + t and n/2 - t
labelled 0 and 1, so the edges are the 2k-subsets meeting both parts
in an odd number of vertices.  As K_m^n(x) (see krawtchouk) counts the
m-subsets meeting x fixed vertices evenly less those meeting them
oddly, its counts are

    edges(n, t)        = (C(n, 2k)     - K_{2k}^n(n/2 + t)) / 2
    degree(n, t, side) = (C(n-1, 2k-1) + K_{2k-1}^{n-1}(size - 1)) / 2

where `size` is the size of the addressed part: an edge meets part 1
oddly, and the rest of an edge at v meets the rest of v's part evenly.
Both are read off the recurrence in m, the library's one route; the
binomial sums over the part sizes are oracles in the tests.

The XOR count is the sum over nonzero a in GF(2)^p of the parity count
for the bipartition by the parity of <a, label>, divided by 2^(p-1): a
set with label XOR x meets the odd side oddly iff <a, x> = 1, which
holds for 2^(p-1) of the a when x != 0 and for none when x = 0,
whatever the block sizes.
"""

from __future__ import annotations

from collections import Counter
from functools import total_ordering

from .core import (
    Hypergraph, _Record, _balanced_sizes, _kraw_value, binom_exact, enumerate_ksubsets, mask_of
)


@total_ordering
class Shift(_Record):
    """Bipartition shift t stored as the integer 2t, ordered by it."""

    __slots__ = ("two_t",)

    def __lt__(self, other):
        if other.__class__ is Shift:
            return self.two_t < other.two_t
        return NotImplemented

    def feasible(self, n: int) -> bool:
        """True iff n/2 + t and n/2 - t are both nonnegative integers."""
        return abs(self.two_t) <= n and (n + self.two_t) % 2 == 0

    def part_sizes(self, n: int) -> tuple[int, int]:
        """(n/2 + t, n/2 - t) as exact integers."""
        if not self.feasible(n):
            raise ValueError(f"shift 2t={self.two_t} infeasible for n={n}")
        return (n + self.two_t) // 2, (n - self.two_t) // 2


class Bipartition(_Record):
    """Assignment of each vertex to part 1 or part 2."""

    __slots__ = ("n", "part_of")

    def __init__(self, n: int, part_of: tuple[int, ...]):
        _Record.__init__(self, n, part_of)
        if len(part_of) != n:
            raise ValueError(f"part_of has {len(part_of)} entries, expected {n}")
        if any(p not in (1, 2) for p in part_of):
            raise ValueError("parts must be 1 or 2")

    def mask(self, part: int) -> int:
        """Bitmask of the vertices in the given part."""
        return mask_of(v for v, p in enumerate(self.part_of) if p == part)

    def sizes(self) -> tuple[int, int]:
        n1 = sum(1 for p in self.part_of if p == 1)
        return n1, self.n - n1


class GF2Labeling(_Record):
    """Assignment of a GF(2)^p label (an int < 2^p) to each vertex."""

    __slots__ = ("p", "labels")

    def __init__(self, p: int, labels: tuple[int, ...]):
        _Record.__init__(self, p, labels)
        if p < 1:
            raise ValueError(f"need p >= 1, got {p}")
        if any(not 0 <= w < (1 << p) for w in labels):
            raise ValueError("labels must lie in 0 .. 2^p - 1")


# build_parity and build_sidorenko refuse larger constructions before
# building any edge: at about 150 bytes per edge at the peak of a build
# and its turan-hg v1 text, this many already take some 160 MB
MAX_CONSTRUCTION_EDGES = 1 << 20


def _check_edge_count(count: int) -> None:
    if count > MAX_CONSTRUCTION_EDGES:
        raise ValueError(
            f"{count} edges exceed the largest construction built, {MAX_CONSTRUCTION_EDGES}"
        )


def _labelled(k: int, sizes: list[int]) -> Hypergraph:
    """The 2k-subsets with nonzero label XOR; block w of `sizes` is
    contiguous and labelled w.  The count taken from each block fixes
    the XOR, so the edges are products of per-block subset lists.  The
    callers, build_parity and build_sidorenko, check k >= 1 through the
    edge count they take first."""
    starts = [sum(sizes[:w]) for w in range(len(sizes))]
    subsets: dict[tuple[int, int], list[int]] = {}
    edges: list[int] = []

    def count_vectors(left: int, first: int):
        # (block, count) pairs, blocks increasing, positive counts summing to left
        if not left:
            yield ()
            return
        for w in range(first, len(sizes)):
            for c in range(1, min(left, sizes[w]) + 1):
                for rest in count_vectors(left - c, w + 1):
                    yield ((w, c),) + rest

    for vec in count_vectors(2 * k, 0):
        x = 0
        for w, c in vec:
            if c & 1:
                x ^= w
        if not x:
            continue
        acc = [0]
        for w, c in vec:
            if (w, c) not in subsets:
                subsets[w, c] = [m << starts[w] for m in enumerate_ksubsets(sizes[w], c)]
            acc = [a | b for a in acc for b in subsets[w, c]]
        edges.extend(acc)
    return Hypergraph(sum(sizes), k, tuple(sorted(edges)))


def build_parity(n: int, k: int, shift: Shift) -> tuple[Hypergraph, Bipartition]:
    """The parity construction; part 1 is the prefix 0 .. n/2+t-1.

    Larger constructions than MAX_CONSTRUCTION_EDGES are refused.
    """
    n1, n2 = shift.part_sizes(n)
    _check_edge_count(parity_edge_count(n, k, shift))
    return _labelled(k, [n1, n2]), Bipartition(n, (1,) * n1 + (2,) * n2)


def _meeting(n: int, m: int, x: int, sign: int) -> int:
    """(C(n, m) + sign * K_m^n(x)) / 2: the m-subsets of n vertices that
    meet x fixed ones evenly (sign 1) or oddly (sign -1); 0 when m > n."""
    if m > n:
        return 0
    return (binom_exact(n, m) + sign * _kraw_value(m, n, x)) // 2


def parity_edge_count(n: int, k: int, shift: Shift) -> int:
    """Edge count of the parity construction, by its closed form."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return _meeting(n, 2 * k, shift.part_sizes(n)[0], -1)


def parity_degree(n: int, k: int, shift: Shift, side: str) -> int:
    """Vertex degree in the parity construction on the addressed part.

    side="large" addresses the part of size n/2 + t, side="small" the
    part of size n/2 - t (the names read naturally for t >= 0).
    """
    if side not in ("large", "small"):
        raise ValueError(f"side must be 'large' or 'small', got {side!r}")
    n1, n2 = shift.part_sizes(n)
    own = n1 if side == "large" else n2
    if own == 0:
        raise ValueError(f"the {side} part is empty for n={n}, 2t={shift.two_t}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return _meeting(n - 1, 2 * k - 1, own - 1, 1)


def _check_blocks(n: int, p: int, allow_remainder: bool) -> None:
    if p < 1 or n >> p == 0:
        raise ValueError(
            f"need p >= 1 and n >= 2^p so that every label has a vertex, got n={n} p={p}"
        )
    blocks = 1 << p
    if n % blocks and not allow_remainder:
        raise ValueError(
            f"n={n} is not divisible by 2^p={blocks}; "
            "pass allow_remainder=True to distribute the remainder round-robin"
        )


def _odd_sides(p: int, r: int) -> Counter:
    """How many nonzero a < 2^p give each #{w < r : <a, w> odd}, r < 2^p.

    Split the w < r at each set bit i of r into the 2^i that agree with
    r above bit i, have bit i clear and are free below it.  Take a with
    lowest set bit j.  For i > j the free bit j splits those w evenly:
    2^(i-1) odd.  For i <= j, <a, w> is the same for all of them: with q
    the parity of a & r above bit j, it is q at i = j and q + r_j below.
    So the count depends only on j and q, and the 2^(p-1-j) such a are
    split evenly by q unless r has no bits above j (then q = 0).
    """
    sides: Counter = Counter()
    for j in range(p):
        high, r_j, below = r >> (j + 1), r >> j & 1, r & ((1 << j) - 1)
        many = 1 << (p - 1 - j)
        for q, times in ((0, many >> 1), (1, many >> 1)) if high else ((0, many),):
            sides[(high << j) + ((r_j & q) << j) + (r_j ^ q) * below] += times
    return sides


def build_sidorenko(
    n: int, k: int, p: int, *, allow_remainder: bool = False
) -> tuple[Hypergraph, GF2Labeling]:
    """The GF(2)^p construction: edges are 2k-subsets with nonzero label XOR.

    Labels are assigned in contiguous blocks, vector 0 first.  Equal
    block sizes require 2^p | n; allow_remainder=True instead gives the
    first n mod 2^p blocks one extra vertex (a convention, not part of
    the equal-blocks setting).  Larger constructions than
    MAX_CONSTRUCTION_EDGES are refused.
    """
    _check_edge_count(sidorenko_edge_count(n, k, p, allow_remainder=allow_remainder))
    sizes = _balanced_sizes(n, 1 << p)
    labels = tuple(w for w, s in enumerate(sizes) for _ in range(s))
    return _labelled(k, sizes), GF2Labeling(p, labels)


def sidorenko_edge_count(
    n: int, k: int, p: int, *, allow_remainder: bool = False
) -> int:
    """Edge count of build_sidorenko without materializing it, as a sum
    of parity counts (see the module docstring).  The first n mod 2^p
    blocks hold one vertex more, so the odd side of a has
    (n >> p) * 2^(p-1) vertices plus those of the larger blocks w with
    <a, w> odd; the a with equal odd sides share one count, and
    _odd_sides lists them in O(p) steps, not one per a."""
    _check_blocks(n, p, allow_remainder)
    base = (n >> p) << (p - 1)
    total = sum(
        times * parity_edge_count(n, k, Shift(2 * (base + odd) - n))
        for odd, times in _odd_sides(p, n & ((1 << p) - 1)).items()
    )
    return total >> (p - 1)
