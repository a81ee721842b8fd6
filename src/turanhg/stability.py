"""Partition quality measures and stability procedures.

For a 2k-uniform hypergraph with a candidate bipartition, a 2k-subset
is "good" when it meets both parts in an odd number of vertices and
"bad" otherwise; a perfect parity construction has every edge good and
every good tuple present.  classify_tuples and improve_partition work
on one bitset per vertex over the edge indices, its incidence row
(core.incidence_rows).  The rows are transposed once per hypergraph and
kept with it, so a census after a search, or many searches from other
starts, reuse them.  The XOR of the part-1 rows, odd, has a bit set
exactly at the good edges, so the bad edges number edge_count minus its
popcount; _odd_and_bad is that one formula, and both call it.
classify_tuples takes the full census from counts: the good tuples
number the parity edge count for the part sizes, and the bad edges come
from odd.  improve_partition runs the obvious local search: while some
vertex is incident to strictly more bad than good edges, move the first
such vertex to the other side (each move strictly lowers the bad-edge
count, so the search terminates).  A vertex's good count is one AND and
popcount of its row with odd, and a move is one XOR into odd.  The
counts are those of a walk over the vertex's edges, so the scan takes
the same moves in the same order.

simonovits_partition approximately partitions a K_{s+1}-free graph G on
N vertices into s classes with few internal edges.  Write
e(G) = ((s-1)/(2s) - c) N^2.  First repeatedly delete a vertex of
degree strictly below (1 - 1/s - 2 sqrt(c)) times the current order
(threshold comparisons are exact: c is rational and the square root is
compared by squaring).  Deleting more than sqrt(c) N vertices is
impossible under the density hypothesis, so the loop stops early and
flags the run instead.  On the residual graph an s-clique A = a_1..a_s
is located by exact search; every vertex adjacent to all of A except
a_i joins class i, and the remaining vertices (including the deleted
ones) go, in ascending vertex order, to the currently smallest class
(ties to the lowest class index).

Text formats:

    turan-g v1                       partition file
    n=<int>                          p <vertex> <1|2>
    g <i> <j>                        (one line per vertex)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .construct import Bipartition, Shift, parity_edge_count
from .core import (
    FormatError,
    Hypergraph,
    _Record,
    _balanced_sizes,
    _data_lines,
    _read_header,
    _read_rows,
    _transpose,
    _write_rows,
    binom_exact,
    incidence_rows,
    indices_of,
    mask_of,
)
from .freeness import _clique_in, find_clique


class SimpleGraph(_Record):
    """An undirected graph on 0..n-1 as adjacency bitmask rows."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        _Record.__init__(self, n, adj)
        if len(adj) != n:
            raise ValueError(f"adjacency has {len(adj)} rows, expected {n}")
        # Column v of the transpose holds the u whose row has v; row v must
        # lie inside it.  The transpose costs about n^2/64 word operations
        # whatever the density, a scan of each row's set bits a few big-int
        # operations per bit; measured, they break even near one set bit in
        # a hundred cells of the n x n matrix, so sparser graphs are scanned.
        columns = None
        if 100 * sum(row.bit_count() for row in adj) >= n * n:
            full = (1 << n) - 1
            columns = _transpose([row & full for row in adj], n)
        for v, row in enumerate(adj):
            if row >> n:
                raise ValueError(f"row {v} mentions vertices >= {n}")
            if row >> v & 1:
                raise ValueError(f"self loop at {v}")
            if columns is None:
                u = next((u for u in indices_of(row) if not adj[u] >> v & 1), -1)
            else:
                one_way = row & ~columns[v]
                u = (one_way & -one_way).bit_length() - 1  # -1 when one_way is 0
            if u >= 0:
                raise ValueError(f"edge ({v}, {u}) is not symmetric")

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(v, u) for v in range(self.n) for u in indices_of(self.adj[v]) if u > v]

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()


def simple_graph(n: int, edges) -> SimpleGraph:
    """Build a SimpleGraph from (i, j) pairs."""
    adj = [0] * n
    for i, j in edges:
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"({i}, {j}) is not an edge on 0..{n - 1}")
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return SimpleGraph(n, tuple(adj))


def turan_graph(s: int, n: int) -> SimpleGraph:
    """The complete s-partite graph on n vertices with balanced parts."""
    if s < 1 or n < 0:
        raise ValueError(f"need s >= 1 and n >= 0, got s={s} n={n}")
    masks = []
    start = 0
    for size in _balanced_sizes(n, s):
        masks.append(((1 << size) - 1) << start)
        start += size
    full = (1 << n) - 1 if n else 0
    adj = []
    for m in masks:
        row = full & ~m
        adj.extend([row] * m.bit_count())
    return SimpleGraph(n, tuple(adj))


@dataclass(frozen=True)
class TupleCensus:
    """Counts of 2k-subsets by parity quality and edge membership.

    Unlike the package's other records it is a dataclass, because
    callers unpack it with dataclasses.astuple.
    """

    good_edges: int
    bad_edges: int
    good_non_edges: int
    bad_non_edges: int

    @property
    def incorrect(self) -> int:
        """Tuples out of line with a perfect parity construction."""
        return self.bad_edges + self.good_non_edges


def classify_tuples(
    h: Hypergraph, part: Bipartition, *, force: bool = False
) -> TupleCensus:
    """Full census over all C(n, 2k) tuples, taken from counts.

    The bad edges are bad_edge_count, read from the incidence rows; the
    good tuples number parity_edge_count for the part sizes, and the
    other two cells follow by subtraction.  force has no effect; it is
    accepted so that existing callers keep working.
    """
    bad_edges = bad_edge_count(h, part)
    n1, n2 = part.sizes()
    good = parity_edge_count(h.n, h.k, Shift(n1 - n2))
    good_edges = h.edge_count - bad_edges
    bad = binom_exact(h.n, 2 * h.k) - good
    return TupleCensus(good_edges, bad_edges, good - good_edges, bad - bad_edges)


def bad_edge_count(h: Hypergraph, part: Bipartition) -> int:
    """Edges meeting part 1 in an even number of vertices."""
    if part.n != h.n:
        raise ValueError(f"partition is over {part.n} vertices, hypergraph over {h.n}")
    return _odd_and_bad(h, incidence_rows(h), part.mask(1))[1]


def _odd_and_bad(h: Hypergraph, rows: list[int], mask1: int) -> tuple[int, int]:
    """(odd, bad): the bitset of good edges, the XOR of the part-1 rows,
    and the number of bad edges, the edges whose bit in odd is clear."""
    odd = 0
    for v in indices_of(mask1):
        odd ^= rows[v]
    return odd, h.edge_count - odd.bit_count()


def improve_partition(
    h: Hypergraph, start: Bipartition, *, trace: list[int] | None = None
) -> Bipartition:
    """Move-one-vertex local search from the given bipartition.

    Scans vertices in ascending order; the first vertex incident to
    strictly more bad than good edges is moved to the other part and the
    scan restarts.  The returned partition has no such vertex.  When a
    list is passed as trace, the bad-edge count is appended before the
    first move and after every move.

    The edges at vertex v are its incidence row (core.incidence_rows),
    and the good edges are the set bits of odd, the XOR of the rows of
    the part-1 vertices.  So v has (row & odd).bit_count() good edges
    and deg - good bad ones, and moving v is odd ^= row.  These are the
    counts an edge-by-edge walk gives, so the moves and the trace are
    the same.
    """
    if start.n != h.n:
        raise ValueError(f"partition is over {start.n} vertices, hypergraph over {h.n}")
    rows = incidence_rows(h)
    deg = [row.bit_count() for row in rows]
    mask1 = start.mask(1)
    odd, total_bad = _odd_and_bad(h, rows, mask1)
    if trace is not None:
        trace.append(total_bad)
    while True:
        for v in range(h.n):
            good = (rows[v] & odd).bit_count()
            bad = deg[v] - good
            if bad > good:
                break
        else:
            break
        odd ^= rows[v]
        mask1 ^= 1 << v
        total_bad += good - bad
        if trace is not None:
            trace.append(total_bad)
    return Bipartition(
        h.n, tuple(1 if mask1 >> v & 1 else 2 for v in range(h.n))
    )


class SimonovitsReport(_Record):
    """Outcome of simonovits_partition.

    parts: the s vertex classes (sorted tuples covering 0..n-1).
    internal_edges: total edge count inside the classes.
    deleted: vertices removed by the low-degree loop, in removal order.
    c: the density defect, e(G) = ((s-1)/(2s) - c) n^2.
    alpha: the min-degree slack, delta(G) = (1 - 1/s - alpha) n.
    clique: the located s-clique, or None.
    hypothesis_failure: None, or why the guarantees do not apply.
    """

    __slots__ = (
        "parts", "internal_edges", "deleted", "c", "alpha", "clique", "hypothesis_failure"
    )


def _internal_edges(g: SimpleGraph, parts: list[list[int]]) -> int:
    total = 0
    for part in parts:
        m = mask_of(part)
        total += sum((g.adj[v] & m).bit_count() for v in part) // 2
    return total


def simonovits_partition(g: SimpleGraph, s: int) -> SimonovitsReport:
    """Partition a K_{s+1}-free graph into s classes with few internal edges.

    Raises ValueError when the graph contains K_{s+1}.  All threshold
    comparisons are exact; the low-degree loop deletes only on strict
    inequality, so graphs sitting exactly at the degree threshold (the
    balanced complete s-partite graphs) are left untouched.
    """
    if s < 2:
        raise ValueError(f"need s >= 2, got {s}")
    if g.n < 1:
        raise ValueError("need at least one vertex")
    witness = find_clique(g.adj, s + 1)
    if witness is not None:
        raise ValueError(f"graph contains K_{s + 1}: {witness}")

    n = g.n
    c = Fraction(s - 1, 2 * s) - Fraction(g.edge_count, n * n)
    assert c >= 0  # guaranteed by the clique-free check
    min_deg = min(g.degree(v) for v in range(n))
    alpha = Fraction(s - 1, s) - Fraction(min_deg, n)

    failure = None
    alive = (1 << n) - 1
    deleted: list[int] = []
    while True:
        m = alive.bit_count()
        target = None
        for v in range(n):
            if not alive >> v & 1:
                continue
            # degree < (1 - 1/s - 2 sqrt(c)) m, compared exactly
            slack = Fraction((g.adj[v] & alive).bit_count()) - Fraction(m * (s - 1), s)
            if slack < 0 and slack * slack > 4 * c * m * m:
                target = v
                break
        if target is None:
            break
        if (len(deleted) + 1) ** 2 > c * n * n:
            failure = "deletion budget exceeded"
            break
        alive ^= 1 << target
        deleted.append(target)

    clique = _clique_in(g.adj, alive, s)

    parts: list[list[int]] = [[] for _ in range(s)]
    leftovers: list[int] = []
    if clique is None:
        failure = failure or "residual graph contains no K_s"
        leftovers = list(range(n))
    else:
        clique = tuple(sorted(clique))
        a_mask = mask_of(clique)
        for i, a in enumerate(clique):
            parts[i].append(a)
        for v in indices_of(alive):
            if v in clique:
                continue
            nbrs = g.adj[v] & a_mask
            cnt = nbrs.bit_count()
            assert cnt < s  # else clique + v would be a K_{s+1}
            if cnt == s - 1:
                missing = (a_mask & ~nbrs).bit_length() - 1
                parts[clique.index(missing)].append(v)
            else:
                leftovers.append(v)
        leftovers.extend(deleted)
        leftovers.sort()

    for v in leftovers:
        smallest = min(range(s), key=lambda i: (len(parts[i]), i))
        parts[smallest].append(v)

    parts_sorted = [sorted(p) for p in parts]
    return SimonovitsReport(
        tuple(tuple(p) for p in parts_sorted),
        _internal_edges(g, parts_sorted),
        tuple(deleted),
        c,
        alpha,
        clique,
        failure,
    )


# --- turan-g v1 and partition files --------------------------------------

_G_MAGIC = "turan-g v1"
# read_graph refuses larger orders before it allocates a row: a dense
# graph of this order already takes about 10^8 `g` lines, 32 MiB of rows
# and seconds of checking, and each grows as n^2
MAX_GRAPH_ORDER = 1 << 14


def read_graph(text: str) -> SimpleGraph:
    """Parse turan-g v1; raises FormatError with line numbers."""
    (n,), lineno, lines = _read_header(text, _G_MAGIC, ("n",))
    if n < 0:
        raise FormatError("n must be nonnegative", lineno)
    if n > MAX_GRAPH_ORDER:
        raise FormatError(f"n={n} exceeds the largest graph order read, {MAX_GRAPH_ORDER}", lineno)
    adj = [0] * n
    for lineno, (i, j) in _read_rows(lines, "g", 2):
        if i == j:
            raise FormatError(f"self loop at {i}", lineno)
        if not (0 <= i < n and 0 <= j < n):
            raise FormatError(f"vertex index out of range 0..{n - 1}", lineno)
        if adj[i] >> j & 1:
            raise FormatError(f"duplicate edge ({min(i, j)}, {max(i, j)})", lineno)
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return SimpleGraph(n, tuple(adj))


def write_graph(g: SimpleGraph) -> str:
    """Serialize to turan-g v1, edges lexicographic."""
    return _write_rows(_G_MAGIC, f"n={g.n}", "g", g.edges())


def read_bipartition(text: str, n: int) -> Bipartition:
    """Parse `p <vertex> <1|2>` lines; every vertex must appear once."""
    part_of: dict[int, int] = {}
    for lineno, (v, side) in _read_rows(_data_lines(text), "p", 2):
        if not 0 <= v < n:
            raise FormatError(f"vertex index out of range 0..{n - 1}", lineno)
        if side not in (1, 2):
            raise FormatError(f"part must be 1 or 2, got {side}", lineno)
        if v in part_of:
            raise FormatError(f"vertex {v} assigned twice", lineno)
        part_of[v] = side
    if len(part_of) != n:
        missing = next(v for v in range(n) if v not in part_of)
        raise FormatError(f"vertex {missing} has no part assignment")
    return Bipartition(n, tuple(part_of[v] for v in range(n)))


def write_bipartition(b: Bipartition) -> str:
    return "".join(f"p {v} {side}\n" for v, side in enumerate(b.part_of))
