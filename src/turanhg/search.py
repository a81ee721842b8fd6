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
  item mask; each item keeps the bitset of the conflicts that hold it,
  its complement `keep` and the masks of their other two items, and
  each conflict the bitset `clear` of the conflicts disjoint from it;
* down the recursion travel the included and excluded items, the
  `dead` conflicts (those holding an excluded item), `touch` (the
  conflicts of the branch-included items) and the sorted two-item
  supports of the touched live conflicts.  A live conflict has at
  most one included item, since a second forces the third out, and
  its support fixes it (A|B and A|C give B|C), so no support repeats;
* including an item excludes the third item of each live conflict
  whose other two items are included, adds the supports of its other
  live conflicts and drops the carried supports that meet the new
  exclusions; the exclude child drops those holding its item, if a
  touched live conflict holds it;
* each node first bounds: the items not excluded, less a greedy
  packing of live conflicts with pairwise disjoint undecided supports,
  since each forces one more exclusion; the carried supports go first,
  then the untouched live conflicts, lowest index first, each packed
  one leaving only the conflicts in `keep` of its two undecided items
  or in its `clear`.  That order (support size, then mask value) fixes
  which conflicts get packed, and with it the bound and so the node
  count;
* `occ` travels down beside `dead`: one W-bit field per item, bit j of
  item v's field set while the j-th conflict holding v is live, W the
  smallest power of two >= 8 above the 3*C(n-4, 2) conflicts an item
  holds.  Each exclusion ANDs a mask that clears the bits of the
  item's conflicts, and an inclusion also clears the item's own field,
  so a decided item reads 0;
* only a node the bound keeps scans its items, all at once: a SWAR
  popcount of every field (2-bit, 4-bit and byte sums, then W/8 bytes
  folded into each field's low byte) read one byte per item gives the
  live counts.  Undecided items counting 0 are included for free (the
  bound's item count stays), and branching picks an item with the
  largest count (include branch first), the lowest index first or, with
  a seed, the lowest rank in a shuffled tie-break order;
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
from collections.abc import Callable
from itertools import combinations

from .core import Hypergraph, _Record, binom_exact, enumerate_ksubsets
from .krawtchouk import optimal_shift

# The `clear` table alone takes MAX_CONFLICTS^2 / 8 bytes, 128 MiB, and
# every live count fits one byte (at most 108 per item at n = 13).
MAX_CONFLICTS = 1 << 15


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


def _field_popcounts(nitems: int, width: int) -> Callable[[int], bytes]:
    """The reader of an int made of nitems fields of width bits (a power
    of two from 8 to 128): it returns the popcount of field i as byte i.

    SWAR steps sum bits in pairs, then nibbles, then bytes, and fold
    width/8 bytes into each field's low byte; no partial sum exceeds
    width, so no byte carries into the next."""
    nbytes = nitems * width // 8
    full = (1 << 8 * nbytes) - 1
    m1, m2, m4 = full // 3, full // 5, full // 17  # 0x55.., 0x33.., 0x0f..
    folds = [8 << f for f in range(width.bit_length() - 4)]
    step = width // 8

    def read(occ: int) -> bytes:
        x = occ - (occ >> 1 & m1)
        x = (x & m2) + (x >> 2 & m2)
        x = (x + (x >> 4)) & m4
        for f in folds:
            x += x >> f
        return x.to_bytes(nbytes, "little")[::step]

    return read


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
    cap explicitly to go further, runtimes grow quickly), and so is any
    n with more than MAX_CONFLICTS = 2^15 conflicts, 15*C(n, 6): n <= 13
    is admitted, n >= 14 is not.  The result value never depends on the
    seed, which only shuffles branching tie-breaks.  When max_nodes (at
    least 0) is exceeded the incumbent is returned with
    proof_of_optimality=False.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n > cap:
        raise ValueError(f"n={n} exceeds the search cap {cap}; raise the cap to {n}")
    if max_nodes is not None and max_nodes < 0:
        raise ValueError(f"need max_nodes >= 0, got {max_nodes}")
    count = 15 * binom_exact(n, 6)
    if count > MAX_CONFLICTS:
        raise ValueError(f"{count} conflicts exceed the largest exact search, {MAX_CONFLICTS}")
    system = conflict_triples(n)
    items = system.items
    nitems = len(items)
    full = (1 << nitems) - 1

    # occ fields: W bits per item, above the 3*C(n-4, 2) conflicts it holds
    width = 8
    while width <= 3 * binom_exact(max(n - 4, 0), 2):
        width *= 2
    full_occ = (1 << nitems * width) - 1

    # conflicts come in increasing item mask order, so the lowest set bit
    # of a conflict bitset is the conflict with the smallest mask
    triples = system.conflicts
    all_conflicts = (1 << len(triples)) - 1
    conf_of = [0] * nitems  # bitset of the conflicts holding each item
    others = [[] for _ in range(nitems)]  # their other two items, as masks
    hit = [0] * nitems  # occ bits of the conflicts holding each item
    occ = 0
    for ci, (a, b, d) in enumerate(triples):
        mask = (1 << a) | (1 << b) | (1 << d)
        bits = 0
        for it in a, b, d:
            bits |= 1 << (it * width + len(others[it]))
            conf_of[it] |= 1 << ci
            others[it].append(mask ^ 1 << it)
        for it in a, b, d:
            hit[it] |= bits
        occ |= bits
    keep = [all_conflicts ^ c for c in conf_of]  # the conflicts without item i
    clear = [keep[a] & keep[b] & keep[d] for a, b, d in triples]  # disjoint from c
    drop = [full_occ ^ h for h in hit]  # occ & drop[i]: item i excluded
    field = (1 << width) - 1
    mine = [full_occ ^ field << i * width for i in range(nitems)]  # i included
    live_counts = _field_popcounts(nitems, width)
    zero = b"1" + b"0" * 255  # a count byte -> "1" when it is 0

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

    def include(
        inc: int, exc: int, dead: int, occ: int, item: int, supports: list[int]
    ) -> tuple[int, int, int, int, list[int]]:
        """Add an undecided item, exclude the items it forces out, and
        return the supports of the touched live conflicts, sorted.

        No live conflict of item has its other two items included: the
        second of them would have excluded item.  Two items of a
        conflict fix the third, so a forced exclusion kills no other
        live conflict of item; those others add their supports.  A
        parent support holding item loses its other item to exc, so
        only the new exclusions can drop a parent support."""
        inc |= 1 << item
        occ &= mine[item]
        old_exc = exc
        grown = []
        for pair in others[item]:
            if pair & exc:  # dead
                continue
            rest = pair & ~inc
            if rest == pair:
                grown.append(pair)
            else:
                exc |= rest
                out = rest.bit_length() - 1
                dead |= conf_of[out]
                occ &= drop[out]
        new = exc ^ old_exc
        grown += [sup for sup in supports if not sup & new] if new else supports
        grown.sort()
        return inc, exc, dead, occ, grown

    def rec(inc: int, exc: int, dead: int, occ: int, supports: list[int], touch: int) -> None:
        nonlocal best_val, best_mask, nodes, truncated
        if truncated:
            return
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            truncated = True
            return
        root = not inc | exc  # every other node has a decided item

        # greedy packing bound, cut short once it cannot beat the incumbent
        bound = nitems - exc.bit_count()
        if bound <= best_val:
            return
        live = all_conflicts ^ dead
        candidates = live & ~touch
        used = 0
        for sup in supports:
            if not sup & used:
                used |= sup
                bound -= 1
                if bound <= best_val:
                    return
                low = sup & -sup
                candidates &= keep[low.bit_length() - 1] & keep[sup.bit_length() - 1]
        while candidates:
            bound -= 1
            if bound <= best_val:
                return
            candidates &= clear[(candidates & -candidates).bit_length() - 1]

        # the scan: every item's live count at once, decided items read 0
        counts = live_counts(occ)
        top = max(counts)
        rest = full ^ inc ^ exc
        if not top:  # every undecided item is free
            best_mask = inc | rest
            best_val = best_mask.bit_count()
            return
        inc |= int(counts.translate(zero)[::-1], 2) & rest
        pick = counts.index(top)
        if seed is not None:
            rank = tie_break[pick]
            tie = counts.find(top, pick + 1)
            while tie >= 0:
                if tie_break[tie] < rank:
                    pick, rank = tie, tie_break[tie]
                tie = counts.find(top, tie + 1)

        # branch on the undecided item in the most live conflicts; the
        # root's exclude branch is a relabelling of its include branch
        rec(*include(inc, exc, dead, occ, pick, supports), touch | conf_of[pick])
        if not root:
            # only a touched live conflict of pick has a support holding it
            pick_bit = 1 << pick
            if conf_of[pick] & touch & live:
                supports = [sup for sup in supports if not sup & pick_bit]
            rec(inc, exc | pick_bit, dead | conf_of[pick], occ & drop[pick], supports, touch)

    rec(0, 0, 0, occ, [], 0)

    edges = tuple(sorted(items[i] for i in range(nitems) if best_mask >> i & 1))
    witness = Hypergraph(n, 2, edges)
    return SearchResult(n, best_val, witness, nodes, not truncated)
