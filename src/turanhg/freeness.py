"""Expanded-clique detection via the auxiliary k-subset graph.

An expanded clique with r branch sets in a 2k-uniform hypergraph H is a
family of r pairwise disjoint k-subsets whose C(r, 2) pairwise unions
are all edges of H.  Build the auxiliary graph G whose vertices are the
k-subsets of the covered vertices (those some edge holds) and whose
edges join P and Q exactly when P union Q is an edge of H (which forces
P and Q disjoint): copies of the expanded clique correspond to r-cliques
of G, and every edge of H splits into C(2k, k)/2 auxiliary edges, so
e(G) = C(2k, k)/2 * e(H).  A k-subset holding an uncovered vertex would
be isolated, so for r >= 2 leaving it out changes no answer.

Every question is answered on the materialized graph (one adjacency
bitset per vertex) by one clique engine in two stages.  First a
DSATUR coloring (Brelaz 1979) looks for a proper coloring with fewer
than r colors, which proves that no r-clique exists: this is the
paper's pigeonhole argument, found rather than assumed (parity of
|P & V1| 2-colors the parity constructions, the GF(2)^p label
2^p-colors the XOR ones).  The classes are checked to be independent
before they are trusted, so a coloring fault can only cost time, never
give a wrong "free".  When no such coloring turns up, an exact branch
and bound with a greedy coloring bound decides.  r = 1 needs no graph:
a copy is a single k-subset, so one exists exactly when n >= k.
Maximality needs no second graph: a new edge e creates a copy exactly
when some split (P, Q) of e has an (r - 2)-clique inside N(P) & N(Q),
and that common neighbourhood is always disjoint from e.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations

from .core import Hypergraph, _Record, binom_exact, enumerate_ksubsets, indices_of, mask_of

# auxiliary_graph refuses a larger graph before it builds a vertex: the
# adjacency alone takes MAX_AUX_VERTICES^2 / 8 bytes, 32 MiB, and the
# neighbour lists some 70 bytes an edge; is_maximal_free a longer scan
MAX_AUX_VERTICES = 1 << 14
MAX_AUX_EDGES = 1 << 22
MAX_MAXIMAL_SCAN = 1 << 24


def _check_size(count: int, what: str, limit: int, where: str = "auxiliary graph built") -> None:
    if count > limit:
        raise ValueError(f"{count} {what} exceed the largest {where}, {limit}")


class AuxGraph(_Record):
    """Materialized auxiliary graph; vertex i is the k-subset subsets[i].

    subsets are the k-subsets of the covered vertices, lexicographic;
    adj holds the adjacency bitsets over subset indices.
    """

    __slots__ = ("n", "k", "subsets", "adj")

    @property
    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2


def _split_patterns(k: int) -> list[tuple[int, ...]]:
    """Positions of P among an edge's sorted vertices; P holds the lowest."""
    return [(0, *rest) for rest in combinations(range(1, 2 * k), k - 1)]


def _splits(edge: int, patterns: list[tuple[int, ...]]) -> Iterator[int]:
    """P of each unordered split (P, edge ^ P) into disjoint k-subsets."""
    bits = [1 << v for v in indices_of(edge)]
    for pattern in patterns:
        p = 0
        for i in pattern:
            p |= bits[i]
        yield p


def auxiliary_graph(h: Hypergraph) -> AuxGraph:
    """Build the auxiliary graph of H: P ~ Q when P | Q is an edge."""
    k = h.k
    covered = 0
    for e in h.edges:
        covered |= e
    _check_size(binom_exact(covered.bit_count(), k), "auxiliary vertices", MAX_AUX_VERTICES)
    _check_size(binom_exact(2 * k, k) // 2 * len(h.edges), "auxiliary edges", MAX_AUX_EDGES)
    subsets = tuple(map(mask_of, combinations(indices_of(covered), k)))
    index = {s: i for i, s in enumerate(subsets)}
    patterns = _split_patterns(k) if h.edges else []
    nbrs: list[list[int]] = [[] for _ in subsets]
    for e in h.edges:
        # _splits inlined: this loop is most of a freeness call
        bits = []
        rest = e
        while rest:
            low = rest & -rest
            bits.append(low)
            rest ^= low
        for pattern in patterns:
            p = 0
            for i in pattern:
                p |= bits[i]
            ip, iq = index[p], index[e ^ p]
            nbrs[ip].append(iq)
            nbrs[iq].append(ip)
    # each bitset is read once from an ASCII binary numeral: digit j is
    # set, then the row is reversed to put the highest index first
    adj = []
    for row in nbrs:
        digits = bytearray(b"0" * len(subsets))
        for j in row:
            digits[j] = 49  # ord("1")
        digits.reverse()
        adj.append(int(digits, 2))
    return AuxGraph(h.n, k, subsets, tuple(adj))


def _clique_in(adj: tuple[int, ...], cand: int, r: int) -> tuple[int, ...] | None:
    """Some r-clique among the vertices of the bitset cand, or None.

    Exact branch and bound: candidates are greedily colored at each node
    and a branch is cut when clique size plus the candidate's color
    index cannot reach r.
    """
    stack: list[int] = []

    def expand(cand: int) -> tuple[int, ...] | None:
        if len(stack) >= r:
            return tuple(stack)
        if len(stack) + cand.bit_count() < r:
            return None
        colored: list[tuple[int, int]] = []  # (vertex, color index)
        rem = cand
        color = 0
        while rem:
            color += 1
            avail = rem
            cls = 0
            while avail:
                lowbit = avail & -avail
                v = lowbit.bit_length() - 1
                colored.append((v, color))
                cls |= lowbit
                avail &= ~(adj[v] | lowbit)
            rem &= ~cls
        local = cand
        for v, color in reversed(colored):
            if len(stack) + color < r:
                return None
            stack.append(v)
            got = expand(local & adj[v])
            if got is not None:
                return got
            stack.pop()
            local &= ~(1 << v)
        return None

    return expand(cand)


def _colouring_below(adj: tuple[int, ...], r: int) -> tuple[int, ...] | None:
    """Color classes (bitsets) of a proper coloring with fewer than r colors, or None.

    DSATUR on bitsets: bysat[j] holds the uncolored vertices that see j
    colors and near[c] the vertices adjacent to class c.  The lowest
    vertex of the highest nonempty bucket takes the least color its
    neighbours lack, and its neighbours new to that color move up one
    bucket.  Gives up as soon as a vertex needs color r - 1.  None is
    also returned for a coloring that fails the final check (every
    vertex colored, every class independent), so a fault here can only
    send the caller to the exact search.
    """
    if r < 1:
        return None  # the empty set is a clique of every size below 1
    full = (1 << len(adj)) - 1
    bysat = [full]
    near: list[int] = []
    classes: list[int] = []
    top = 0  # highest possibly nonempty bucket
    while True:
        while top >= 0 and not bysat[top]:
            top -= 1
        if top < 0:
            break
        low = bysat[top] & -bysat[top]
        bysat[top] ^= low
        v = low.bit_length() - 1
        c = 0
        while c < len(near) and near[c] & low:
            c += 1
        if c >= r - 1:
            return None
        if c == len(near):
            near.append(0)
            classes.append(0)
            bysat.append(0)
        classes[c] |= low
        fresh = adj[v] & ~near[c]
        near[c] |= adj[v]
        for j in range(top, -1, -1):
            moved = bysat[j] & fresh
            if moved:
                bysat[j] ^= moved
                bysat[j + 1] |= moved
                top = max(top, j + 1)
    covered = 0
    for cls in classes:
        rest = cls
        while rest:
            low = rest & -rest
            if adj[low.bit_length() - 1] & cls:
                return None
            rest ^= low
        covered |= cls
    return tuple(classes) if covered == full else None


def find_clique(adj: tuple[int, ...], r: int) -> tuple[int, ...] | None:
    """Some r-clique of the graph given as adjacency bitsets, or None.

    A proper coloring with fewer than r colors, once its classes are
    checked independent, proves there is none; otherwise the exact
    branch and bound decides.
    """
    if _colouring_below(adj, r) is not None:
        return None
    return _clique_in(adj, (1 << len(adj)) - 1, r)


def find_expansion(h: Hypergraph, r: int) -> tuple[int, ...] | None:
    """Branch sets of some expanded-clique copy with r parts, or None.

    Returns r pairwise disjoint k-subset masks whose pairwise unions are
    all edges of h: the subsets of an r-clique of the auxiliary graph.
    At r = 1 a copy is a single k-subset, so the answer is 0..k-1 when
    n >= k.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if r == 1:
        return (mask_of(range(h.k)),) if h.n >= h.k else None
    g = auxiliary_graph(h)
    got = find_clique(g.adj, r)
    return None if got is None else tuple(g.subsets[i] for i in got)


def is_maximal_free(h: Hypergraph, r: int) -> bool:
    """True iff h is expanded-clique free and adding any new edge is not.

    Raises ValueError when h already contains a copy.  At r = 1 any
    k-subset is a copy, so h has one exactly when n >= k; otherwise no
    2k-subset exists either and h is maximal by default.  When some
    vertex u lies in no edge, no scan is needed.  For r >= 3 each branch
    set of a copy through a new edge e also lies in an old edge, so a
    new edge through u (one exists when n >= 2k) creates no copy and h
    is not maximal.  For r = 2 a free h has no edges, and every new edge
    is a copy by itself.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    has_copy = "hypergraph already contains an expanded clique"
    if r == 1:
        if h.n >= h.k:
            raise ValueError(has_copy)
        return True
    g = auxiliary_graph(h)
    if find_clique(g.adj, r) is not None:
        raise ValueError(has_copy)
    covered = 0
    for p in g.subsets:
        covered |= p
    if covered.bit_count() < h.n:
        return r == 2 or h.n < 2 * h.k
    _check_size(binom_exact(h.n, 2 * h.k), "candidate edges", MAX_MAXIMAL_SCAN, "maximality scan")
    index = {s: i for i, s in enumerate(g.subsets)}
    adj = g.adj
    patterns = _split_patterns(h.k)
    edge_set = h.edge_set()
    for e in enumerate_ksubsets(h.n, 2 * h.k):
        if e in edge_set:
            continue
        if not any(
            _clique_in(adj, adj[index[p]] & adj[index[e ^ p]], r - 2) is not None
            for p in _splits(e, patterns)
        ):
            return False
    return True
