"""Exact maximum edge counts for small ground sets, k = 2.

The expanded triangle is three pairwise disjoint pairs P1, P2, P3 with
the unions Pi | Pj as its edges, so a 4-uniform hypergraph contains one
exactly when the three unions of some such pairs are all edges.  Over a
fixed ground set this turns the maximum edge count into a maximum
independent set problem in a 3-uniform conflict system: items are the
4-subsets, and every triple of pairwise disjoint pairs contributes the
conflict of its three unions.

exact_turan solves that system by branch and bound over item bitsets:

* the incumbent is seeded with the parity construction at the best
  shift, which is known conflict free: the items that meet its first
  part (the prefix 0 .. n/2+t-1) in an odd number of vertices;
* conflict_triples lists the conflicts in increasing order of their
  item mask, and each item keeps the bitset of the conflicts that hold
  it, so a node reads conflict state with one AND per item rather than
  a scan of every conflict;
* a `dead` bitset of conflicts travels down the recursion next to the
  included and excluded items: every exclusion (a branch or a forced
  one) ORs in the excluded item's conflicts, and the rest are live;
* including an item immediately excludes the third item of any live
  conflict whose other two items are already included;
* items in no live conflict are included for free;
* the bound is items_in + items_undecided - (greedy packing of live
  conflicts with pairwise disjoint undecided supports), since each such
  conflict forces one more exclusion; the packing takes the two-item
  supports of live conflicts touching an included item first, sorted,
  then the untouched live conflicts, lowest index first.  That order
  (support size, then mask value) fixes which conflicts get packed, and
  with it the bound and so the node count;
* branching picks an undecided item in the most live conflicts
  (include branch first), with an optional seeded tie-break order;
* the root takes the include branch alone.  Relabelling the vertices
  maps conflicts to conflicts, so S_n acts on the free families, and
  it is transitive on the 4-subsets.  For n >= 4 every optimum is
  nonempty (one 4-subset is free), so some relabelling of it contains
  the root's pick, and the root's exclude branch holds no larger value
  than its include branch.  Every other node branches both ways.

The search is exhaustive, so the returned value is exact whenever the
node budget is not exceeded.
"""

from __future__ import annotations

import random
from itertools import combinations

from .core import Hypergraph, _Record, enumerate_ksubsets
from .krawtchouk import optimal_shift


class ConflictSystem(_Record):
    """Items (4-subset masks, lexicographic) and sorted conflict index
    triples, in increasing order of their item mask."""

    __slots__ = ("n", "items", "conflicts")


def conflict_triples(n: int) -> ConflictSystem:
    """All conflict triples over 0..n-1, ordered by (t[2], t[1], t[0]):
    the three unions of each triple of pairwise disjoint pairs.  Each
    such triple of pairs gives a different triple of items."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    items = tuple(enumerate_ksubsets(n, 4))
    index = {m: i for i, m in enumerate(items)}
    conflicts = []
    for p, q, r in combinations(enumerate_ksubsets(n, 2), 3):
        if not (p & q or p & r or q & r):
            conflicts.append(tuple(sorted((index[p | q], index[p | r], index[q | r]))))
    conflicts.sort(key=lambda t: (t[2], t[1], t[0]))
    return ConflictSystem(n, items, tuple(conflicts))


class SearchResult(_Record):
    __slots__ = ("n", "value", "witness", "nodes", "proof_of_optimality")


def exact_turan(
    n: int,
    *,
    cap: int = 8,
    seed: int | None = None,
    max_nodes: int | None = None,
) -> SearchResult:
    """Maximum number of 4-subsets of 0..n-1 avoiding expanded triangles.

    Exhaustive branch and bound; n above the cap is refused (raise the
    cap explicitly to go further, runtimes grow quickly).  The result
    value never depends on the seed, which only shuffles branching
    tie-breaks.  When max_nodes is exceeded the incumbent is returned
    with proof_of_optimality=False.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n > cap:
        raise ValueError(
            f"n={n} exceeds the search cap {cap}; raise the cap to {n}"
        )
    system = conflict_triples(n)
    items = system.items
    nitems = len(items)
    full = (1 << nitems) - 1

    # conflicts come in increasing item mask order, so the lowest set bit
    # of a conflict bitset is the conflict with the smallest mask
    triples = system.conflicts
    conflict_masks = [(1 << a) | (1 << b) | (1 << d) for a, b, d in triples]
    all_conflicts = (1 << len(triples)) - 1
    conf_of = [0] * nitems  # bitset of the conflicts holding each item
    for ci, triple in enumerate(triples):
        for it in triple:
            conf_of[it] |= 1 << ci

    # incumbent: the parity construction is conflict free
    best_mask = 0
    if n >= 4:
        first = (1 << optimal_shift(n, 2).maximizers[0].part_sizes(n)[0]) - 1
        for i, m in enumerate(items):
            if (m & first).bit_count() & 1:
                best_mask |= 1 << i
    best_val = best_mask.bit_count()

    tie_break = list(range(nitems))
    if seed is not None:
        random.Random(seed).shuffle(tie_break)

    nodes = 0
    truncated = False

    def include(inc: int, exc: int, dead: int, item: int) -> tuple[int, int, int]:
        """Add an undecided item; exclude the items it forces out.

        No live conflict of item has its other two items included: the
        second of them would have excluded item (dead only grows down
        the tree, and free inclusion takes only items in no live
        conflict).  Two items of a conflict fix the third (A|B and A|C
        give B|C), so a forced exclusion kills no other live conflict
        of item."""
        inc |= 1 << item
        around = conf_of[item] & ~dead
        while around:
            low = around & -around
            around ^= low
            undecided = conflict_masks[low.bit_length() - 1] & ~inc
            if undecided & (undecided - 1) == 0:
                exc |= undecided
                dead |= conf_of[undecided.bit_length() - 1]
        return inc, exc, dead

    def rec(inc: int, exc: int, dead: int) -> None:
        nonlocal best_val, best_mask, nodes, truncated
        if truncated:
            return
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            truncated = True
            return
        root = not inc | exc  # every other node has a decided item

        live = all_conflicts & ~dead
        undecided = full & ~inc & ~exc
        # one pass over the items: free ones (in no live conflict) join
        # inc, the rest are scored by their number of live conflicts, and
        # included ones mark the live conflicts they touch
        touched = 0
        pick, pick_count, pick_rank = -1, 0, 0
        for v in range(nitems):
            if undecided >> v & 1:
                count = (conf_of[v] & live).bit_count()
                if not count:
                    inc |= 1 << v
                    undecided ^= 1 << v
                elif count > pick_count or (
                    count == pick_count and tie_break[v] < pick_rank
                ):
                    pick, pick_count, pick_rank = v, count, tie_break[v]
            elif inc >> v & 1:
                touched |= conf_of[v]
        touched &= live

        # greedy packing bound: disjoint undecided supports, the two-item
        # supports of touched conflicts first, then untouched conflicts,
        # each in increasing mask order; packing only lowers the bound, so
        # it stops once the bound cannot beat the incumbent
        bound = inc.bit_count() + undecided.bit_count()
        if bound <= best_val:
            return
        supports = []
        rest = touched
        while rest:
            low = rest & -rest
            rest ^= low
            supports.append(conflict_masks[low.bit_length() - 1] & ~inc)
        supports.sort()
        used = 0
        for sup in supports:
            if not sup & used:
                used |= sup
                bound -= 1
        candidates = live & ~touched
        while used:
            top = used.bit_length() - 1
            candidates &= ~conf_of[top]
            used ^= 1 << top
        while candidates and bound > best_val:
            bound -= 1
            for it in triples[(candidates & -candidates).bit_length() - 1]:
                candidates &= ~conf_of[it]
        if bound <= best_val:
            return
        if pick < 0:
            best_val, best_mask = inc.bit_count(), inc
            return

        # branch on the undecided item in the most live conflicts; the
        # root's exclude branch is a relabelling of its include branch
        rec(*include(inc, exc, dead, pick))
        if not root:
            rec(inc, exc | (1 << pick), dead | conf_of[pick])

    rec(0, 0, 0)

    edges = tuple(sorted(items[i] for i in range(nitems) if best_mask >> i & 1))
    witness = Hypergraph(n, 2, edges)
    return SearchResult(n, best_val, witness, nodes, not truncated)
