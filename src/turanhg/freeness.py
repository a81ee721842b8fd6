"""Expanded-clique detection via the auxiliary k-subset graph.

An expanded clique with r branch sets in a 2k-uniform hypergraph H is a
family of r pairwise disjoint k-subsets whose C(r, 2) pairwise unions
are all edges of H.  Build the auxiliary graph G whose vertices are the
k-subsets of 0..n-1 and whose edges join P and Q exactly when P union Q
is an edge of H (which forces P and Q disjoint): copies of the expanded
clique correspond to r-cliques of G, and every edge of H splits into
C(2k, k)/2 auxiliary edges, so e(G) = C(2k, k)/2 * e(H).

Every question is answered on the materialized graph (C(n, k) vertices,
one adjacency bitset each) by one exact branch and bound with a greedy
coloring bound.  Maximality needs no second graph: a new edge e creates
a copy exactly when some split (P, Q) of e has an (r - 2)-clique inside
N(P) & N(Q), and that common neighbourhood is always disjoint from e.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import Hypergraph, enumerate_ksubsets, indices_of


@dataclass(frozen=True)
class AuxGraph:
    """Materialized auxiliary graph; vertex i is the k-subset subsets[i]."""

    n: int
    k: int
    subsets: tuple[int, ...]
    adj: tuple[int, ...]  # adjacency bitsets over subset indices

    @property
    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2


def _edge_splits(edge: int, k: int):
    """Unordered pairs (P, Q) of disjoint k-subsets with P | Q == edge."""
    verts = indices_of(edge)
    low = verts[0]
    for rest in combinations(verts[1:], k - 1):
        p = 1 << low
        for v in rest:
            p |= 1 << v
        yield p, edge ^ p


def auxiliary_graph(h: Hypergraph) -> AuxGraph:
    """Build the auxiliary graph of H: P ~ Q when P | Q is an edge."""
    subsets = tuple(enumerate_ksubsets(h.n, h.k))
    index = {s: i for i, s in enumerate(subsets)}
    adj = [0] * len(subsets)
    for e in h.edges:
        for p, q in _edge_splits(e, h.k):
            ip, iq = index[p], index[q]
            adj[ip] |= 1 << iq
            adj[iq] |= 1 << ip
    return AuxGraph(h.n, h.k, subsets, tuple(adj))


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


def find_clique(adj: tuple[int, ...], r: int) -> tuple[int, ...] | None:
    """Some r-clique of the graph given as adjacency bitsets, or None."""
    return _clique_in(adj, (1 << len(adj)) - 1, r)


def find_expansion(h: Hypergraph, r: int) -> tuple[int, ...] | None:
    """Branch sets of some expanded-clique copy with r parts, or None.

    Returns r pairwise disjoint k-subset masks whose pairwise unions are
    all edges of h: the subsets of an r-clique of the auxiliary graph.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    g = auxiliary_graph(h)
    got = find_clique(g.adj, r)
    if got is None:
        return None
    return tuple(g.subsets[i] for i in got)


def is_maximal_free(h: Hypergraph, r: int) -> bool:
    """True iff h is expanded-clique free and adding any new edge is not.

    Raises ValueError when h already contains a copy.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    g = auxiliary_graph(h)
    if find_clique(g.adj, r) is not None:
        raise ValueError("hypergraph already contains an expanded clique")
    if r < 2:
        return False  # any k-subset alone is a copy with r = 1
    index = {s: i for i, s in enumerate(g.subsets)}
    adj = g.adj
    edge_set = h.edge_set()
    for e in enumerate_ksubsets(h.n, 2 * h.k):
        if e in edge_set:
            continue
        if not any(
            _clique_in(adj, adj[index[p]] & adj[index[q]], r - 2) is not None
            for p, q in _edge_splits(e, h.k)
        ):
            return False
    return True
