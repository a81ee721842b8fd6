"""Exact maximum edge counts for small ground sets, k = 2.

A 4-uniform hypergraph contains an expanded triangle exactly when some
6 of its vertices split into three disjoint pairs whose three pairwise
unions are all edges.  Over a fixed ground set this turns the maximum
edge count into a maximum independent set problem in a 3-uniform
conflict system: items are the 4-subsets, and every 6-subset
contributes one conflict triple per perfect matching of its six
vertices (15 of them).

exact_turan solves that system by branch and bound over item bitsets:

* the incumbent is seeded with the parity construction, which is known
  conflict free;
* including an item immediately excludes the third item of any conflict
  whose other two items are already included;
* items in no live conflict are included for free;
* the bound is items_in + items_undecided - (greedy packing of live
  conflicts with pairwise disjoint undecided supports), since each such
  conflict forces one more exclusion;
* branching picks an undecided item in the most live conflicts
  (include branch first), with an optional seeded tie-break order.

The search is exhaustive, so the returned value is exact whenever the
node budget is not exceeded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .core import Hypergraph, enumerate_ksubsets, perfect_matchings
from .construct import build_parity
from .krawtchouk import optimal_shift


@dataclass(frozen=True)
class ConflictSystem:
    """Items (4-subset masks, lexicographic) and conflict index triples."""

    n: int
    items: tuple[int, ...]
    conflicts: tuple[tuple[int, int, int], ...]


def conflict_triples(n: int) -> ConflictSystem:
    """All conflict triples over 0..n-1, deduplicated and sorted."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    items = tuple(enumerate_ksubsets(n, 4))
    index = {m: i for i, m in enumerate(items)}
    conflicts = set()
    for six in combinations(range(n), 6):
        for pairs in perfect_matchings(six):
            masks = [(1 << a) | (1 << b) for a, b in pairs]
            triple = tuple(
                sorted(
                    index[masks[x] | masks[y]]
                    for x, y in ((0, 1), (0, 2), (1, 2))
                )
            )
            conflicts.add(triple)
    return ConflictSystem(n, items, tuple(sorted(conflicts)))


def lower_bound_construction(n: int) -> Hypergraph:
    """The parity construction at the best shift (smallest maximizer)."""
    report = optimal_shift(n, 2)
    h, _ = build_parity(n, 2, report.maximizers[0])
    return h


@dataclass(frozen=True)
class SearchResult:
    n: int
    value: int
    witness: Hypergraph
    nodes: int
    proof_of_optimality: bool


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
            f"n={n} exceeds the search cap {cap}; raise cap= to search anyway"
        )
    system = conflict_triples(n)
    items = system.items
    nitems = len(items)
    full = (1 << nitems) - 1

    conflict_masks = []
    item_conf: list[list[int]] = [[] for _ in range(nitems)]
    for ci, (a, b, d) in enumerate(system.conflicts):
        conflict_masks.append((1 << a) | (1 << b) | (1 << d))
        for it in (a, b, d):
            item_conf[it].append(ci)

    # incumbent: the parity construction is conflict free
    if n >= 4:
        seed_items = 0
        idx = {m: i for i, m in enumerate(items)}
        for e in lower_bound_construction(n).edges:
            seed_items |= 1 << idx[e]
        best_mask = seed_items
        best_val = seed_items.bit_count()
    else:
        best_mask, best_val = 0, 0

    tie_break = list(range(nitems))
    if seed is not None:
        random.Random(seed).shuffle(tie_break)

    nodes = 0
    truncated = False

    def include(inc: int, exc: int, item: int) -> tuple[int, int] | None:
        """Add an item; propagate forced exclusions; None on violation."""
        inc |= 1 << item
        for ci in item_conf[item]:
            cm = conflict_masks[ci]
            if cm & exc:
                continue
            undecided = cm & ~inc
            if not undecided:
                return None
            if undecided.bit_count() == 1 and (cm & inc).bit_count() == 2:
                exc |= undecided
        return inc, exc

    def rec(inc: int, exc: int) -> None:
        nonlocal best_val, best_mask, nodes, truncated
        if truncated:
            return
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            truncated = True
            return

        undecided = full & ~inc & ~exc
        # free items (in no live conflict) can always be included
        busy = 0
        live: list[int] = []
        for ci, cm in enumerate(conflict_masks):
            if cm & exc:
                continue
            live.append(ci)
            busy |= cm
        free = undecided & ~busy
        inc |= free
        undecided &= ~free

        # greedy packing bound: disjoint undecided supports, small first
        supports = []
        for ci in live:
            sup = conflict_masks[ci] & undecided
            assert sup  # fully included conflicts are caught on inclusion
            supports.append((sup.bit_count(), sup))
        supports.sort()
        used = 0
        packing = 0
        for _, sup in supports:
            if not sup & used:
                used |= sup
                packing += 1
        bound = inc.bit_count() + undecided.bit_count() - packing
        if bound <= best_val:
            return
        if not undecided or not live:
            val = inc.bit_count()
            if val > best_val:
                best_val, best_mask = val, inc
            return

        # branch on the undecided item hitting the most live conflicts
        counts = [0] * nitems
        for ci in live:
            cm = conflict_masks[ci] & undecided
            while cm:
                low = cm & -cm
                counts[low.bit_length() - 1] += 1
                cm ^= low
        pick = max(
            (v for v in range(nitems) if undecided >> v & 1),
            key=lambda v: (counts[v], -tie_break[v]),
        )
        grown = include(inc, exc, pick)
        if grown is not None:
            rec(*grown)
        rec(inc, exc | (1 << pick))

    rec(0, 0)

    edges = tuple(sorted(items[i] for i in range(nitems) if best_mask >> i & 1))
    witness = Hypergraph(n, 2, edges)
    return SearchResult(n, best_val, witness, nodes, not truncated)
