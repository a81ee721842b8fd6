"""Edge colorings of complete graphs and the group they generate.

The setting: the edges of K_s are colored with s - 1 colors so that
every color class is a perfect matching and every 4 vertices span
either exactly 3 or exactly 6 distinct colors.  Under those conditions
the colors, together with a formal zero, form an elementary abelian
2-group: the sum of two distinct colors c_i, c_j is read off by fixing
any base vertex x, following its color-i and color-j matching partners
y_i and y_j, and taking the color of the edge y_i y_j.  The result must
not depend on the base vertex, the operation must be associative, and
the group order s must then be a power of 2.

generate_gf2_coloring builds the model instance: vertices are the
vectors of GF(2)^p and the color of an edge is the XOR of its ends.

The text format `turan-col v1` stores a total edge coloring:

    turan-col v1
    s=<int> colors=<int>
    c <i> <j> <color>       (one line per pair, i < j)
"""

from __future__ import annotations

from itertools import combinations

from .core import FormatError, _Record, _read_header, _read_rows, _write_rows, perfect_matchings


def _pair_index(i: int, j: int, s: int) -> int:
    # index of (i, j), i < j, in lexicographic pair order
    return i * s - i * (i + 1) // 2 + (j - i - 1)


class EdgeColoring(_Record):
    """A total coloring of the edges of K_s with colors 0 .. color_count-1.

    colors is flat, in lexicographic pair order.
    """

    __slots__ = ("s", "color_count", "colors")

    def __init__(self, s: int, color_count: int, colors: tuple[int, ...]):
        _Record.__init__(self, s, color_count, colors)
        if s < 0 or color_count < 0:
            raise ValueError("need s >= 0 and color_count >= 0")
        npairs = s * (s - 1) // 2
        if len(colors) != npairs:
            raise ValueError(f"expected {npairs} pair colors, got {len(colors)}")
        if any(not 0 <= c < color_count for c in colors):
            raise ValueError("pair color out of range")

    def color_of(self, i: int, j: int) -> int:
        if i == j or not 0 <= i < self.s or not 0 <= j < self.s:
            raise ValueError(f"({i}, {j}) is not an edge of K_{self.s}")
        if i > j:
            i, j = j, i
        return self.colors[_pair_index(i, j, self.s)]


def edge_coloring(s: int, color_count: int, color_of) -> EdgeColoring:
    """Build an EdgeColoring from a function color_of(i, j), i < j."""
    return EdgeColoring(
        s, color_count, tuple(color_of(i, j) for i, j in combinations(range(s), 2))
    )


# generate_gf2_coloring refuses larger colorings before building any pair:
# `color gen --p 11`, C(2^11, 2) pair colors, peaked near 290 MB, and each
# step of p multiplies that by four
MAX_COLORING_PAIRS = 1 << 20


def generate_gf2_coloring(p: int) -> EdgeColoring:
    """Color K_{2^p} on vertex set GF(2)^p by color({u, v}) = u XOR v.

    Colors are indexed 0 .. 2^p - 2 so that color({0, w}) has index w-1.
    """
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    s = 1 << p
    pairs = s * (s - 1) // 2
    if pairs > MAX_COLORING_PAIRS:
        raise ValueError(
            f"p={p} gives {pairs} pair colors, more than the largest coloring built, "
            f"{MAX_COLORING_PAIRS}"
        )
    return edge_coloring(s, s - 1, lambda i, j: (i ^ j) - 1)


class ColoringReport(_Record):
    """Outcome of the three structural checks on an EdgeColoring."""

    __slots__ = (
        "is_full_coloring",
        "every_color_perfect_matching",
        "four_set_condition",
        "first_violation",
        "detail",
    )

    @property
    def passed(self) -> bool:
        return (
            self.is_full_coloring
            and self.every_color_perfect_matching
            and self.four_set_condition
        )


def verify_coloring(c: EdgeColoring) -> ColoringReport:
    """Check color count, perfect-matching classes, and the 4-set rule.

    The 4-set rule: every 4 vertices span exactly 3 or exactly 6
    distinct colors.  The first violating 4-set (lexicographically) is
    reported.
    """
    detail = None

    full = c.color_count == c.s - 1
    if not full:
        detail = f"color count {c.color_count} differs from s - 1 = {c.s - 1}"

    matchings = True
    for col in range(c.color_count):
        covered = [0] * c.s
        for i, j in combinations(range(c.s), 2):
            if c.color_of(i, j) == col:
                covered[i] += 1
                covered[j] += 1
        if any(d != 1 for d in covered):
            matchings = False
            if detail is None:
                detail = f"color {col} is not a perfect matching"
            break

    four_ok = True
    violation = None
    for quad in combinations(range(c.s), 4):
        spanned = {c.color_of(i, j) for i, j in combinations(quad, 2)}
        if len(spanned) not in (3, 6):
            four_ok = False
            violation = quad
            if detail is None:
                detail = f"vertices {quad} span {len(spanned)} colors"
            break

    return ColoringReport(full, matchings, four_ok, violation, detail)


class GroupError(ValueError):
    """Group reconstruction failed; the message names the witness."""


class ColorGroup(_Record):
    """Elementary abelian 2-group on 0..order-1; element c+1 is color c."""

    __slots__ = ("order", "dimension", "table")

    def add(self, a: int, b: int) -> int:
        return self.table[a][b]


def build_group(c: EdgeColoring) -> ColorGroup:
    """Recover the group structure on the colors plus a formal zero.

    Requires verify_coloring(c) to pass.  The sum of distinct colors is
    read through matching partners of a base vertex; agreement over all
    base vertices, associativity, and |group| = 2^dimension are all
    checked exhaustively and failures name the violating vertices or
    triple.
    """
    report = verify_coloring(c)
    if not report.passed:
        raise GroupError(f"coloring fails verification: {report.detail}")
    s = c.s
    if s < 2:
        raise GroupError("need at least one color to build a group")

    partner = [[-1] * s for _ in range(c.color_count)]
    for i, j in combinations(range(s), 2):
        col = c.color_of(i, j)
        partner[col][i] = j
        partner[col][j] = i

    base_sum: list[list[int]] = [[-1] * c.color_count for _ in range(c.color_count)]
    for x in range(s):
        for ci in range(c.color_count):
            yi = partner[ci][x]
            for cj in range(ci + 1, c.color_count):
                yj = partner[cj][x]
                val = c.color_of(yi, yj)
                if base_sum[ci][cj] == -1:
                    base_sum[ci][cj] = val
                elif base_sum[ci][cj] != val:
                    raise GroupError(
                        f"colors {ci}+{cj} disagree between base vertices: "
                        f"got {val} at vertex {x}, {base_sum[ci][cj]} earlier"
                    )

    table = [[0] * s for _ in range(s)]
    for a in range(s):
        table[0][a] = table[a][0] = a
        table[a][a] = 0
    for ci in range(c.color_count):
        for cj in range(ci + 1, c.color_count):
            val = base_sum[ci][cj] + 1
            table[ci + 1][cj + 1] = table[cj + 1][ci + 1] = val

    for a in range(s):
        for b in range(s):
            ab = table[a][b]
            for d in range(s):
                if table[ab][d] != table[a][table[b][d]]:
                    raise GroupError(f"associativity fails on triple ({a}, {b}, {d})")

    if s & (s - 1):
        raise GroupError(f"group order {s} is not a power of 2")
    return ColorGroup(s, s.bit_length() - 1, tuple(tuple(row) for row in table))


def enumerate_one_factorizations(s: int) -> list[EdgeColoring]:
    """All partitions of E(K_s) into perfect matchings, as colorings.

    Colors are numbered by the matching partner of vertex 0, ascending,
    which makes the enumeration order deterministic.  s must be even.
    """
    if s < 2 or s % 2:
        raise ValueError(f"K_{s} has no one-factorization")
    all_pairs = list(combinations(range(s), 2))
    factorizations: list[EdgeColoring] = []

    def grow(uncovered: frozenset[tuple[int, int]], chosen: list[tuple]):
        if not uncovered:
            ordered = sorted(chosen, key=lambda m: dict(m)[0])
            color_map = {}
            for col, matching in enumerate(ordered):
                for pair in matching:
                    color_map[pair] = col
            factorizations.append(EdgeColoring(
                s, s - 1, tuple(color_map[p] for p in all_pairs)
            ))
            return
        pivot = min(uncovered)
        rest = tuple(v for v in range(s) if v not in pivot)
        for tail in perfect_matchings(rest):
            matching = (pivot,) + tail
            if all(pair in uncovered for pair in matching):
                grow(uncovered - set(matching), chosen + [matching])

    grow(frozenset(all_pairs), [])
    return factorizations


# --- turan-col v1 --------------------------------------------------------

_COL_MAGIC = "turan-col v1"


def read_coloring(text: str) -> EdgeColoring:
    """Parse turan-col v1; raises FormatError with line numbers."""
    (s, ncolors), lineno, lines = _read_header(text, _COL_MAGIC, ("s", "colors"))
    if s < 0 or ncolors < 0:
        raise FormatError("s and colors must be nonnegative", lineno)

    seen: dict[tuple[int, int], int] = {}
    for lineno, (i, j, col) in _read_rows(lines, "c", 3):
        if not (0 <= i < s and 0 <= j < s) or i == j:
            raise FormatError(f"({i}, {j}) is not an edge of K_{s}", lineno)
        if not 0 <= col < ncolors:
            raise FormatError(f"color {col} out of range 0..{ncolors - 1}", lineno)
        key = (min(i, j), max(i, j))
        if key in seen:
            raise FormatError(f"pair ({key[0]}, {key[1]}) colored twice", lineno)
        seen[key] = col
    if len(seen) != s * (s - 1) // 2:
        missing = next(p for p in combinations(range(s), 2) if p not in seen)
        raise FormatError(f"pair {missing} has no color")
    return edge_coloring(s, ncolors, lambda i, j: seen[i, j])


def write_coloring(c: EdgeColoring) -> str:
    """Serialize to turan-col v1 in lexicographic pair order."""
    rows = ((i, j, c.color_of(i, j)) for i, j in combinations(range(c.s), 2))
    return _write_rows(_COL_MAGIC, f"s={c.s} colors={c.color_count}", "c", rows)
