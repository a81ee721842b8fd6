"""Edge colorings of complete graphs and the group they generate.

The setting: the edges of K_s are colored with s - 1 colors so that
every color class is a perfect matching and every 4 vertices span
exactly 3 or exactly 6 distinct colors (verify_coloring).  Color c is
then a fixed-point-free involution sigma_c, and a 4-set with two
disjoint edges of one color spans 3 colors, one on each pair of
disjoint edges.  On {x, sigma_i x, sigma_j x, sigma_j sigma_i x}, with
color j twice, this makes sigma_i and sigma_j commute and gives
color(x, sigma_j sigma_i x) = color(sigma_i x, sigma_j x).  On
{x, sigma_l x, tau x, sigma_l tau x}, tau = sigma_j sigma_i, it shows
that moving x along any color l keeps color(x, tau x), so tau is
sigma_{i+j} for one color i + j.  The identity and the sigma_c thus
form a group of commuting involutions, elementary abelian of order
s = 2^d, that acts regularly.  build_group reads it off vertex 0:
vertex v stands for color(0, v), and the sum of the elements of u and
v is color(u, v).  No later check can fail; tests/test_algebra.py
keeps the exhaustive ones (all base vertices and triples) as oracles.

generate_gf2_coloring builds the model instance: vertices are the
vectors of GF(2)^p and the color of an edge is the XOR of its ends.

The text format `turan-col v1` stores a total edge coloring:

    turan-col v1
    s=<int> colors=<int>
    c <i> <j> <color>       (one line per pair, i < j)
"""

from __future__ import annotations

from itertools import combinations

from .core import FormatError, _Record, _read_header, _read_rows, _write_rows


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
    """The coloring fails verification or has no color."""


class ColorGroup(_Record):
    """Elementary abelian 2-group on 0..order-1; element c+1 is color c."""

    __slots__ = ("order", "dimension", "table")

    def add(self, a: int, b: int) -> int:
        return self.table[a][b]


def build_group(c: EdgeColoring) -> ColorGroup:
    """The group on the colors plus a formal zero, element c + 1 for
    color c; requires verify_coloring(c) to pass."""
    report = verify_coloring(c)
    if not report.passed:
        raise GroupError(f"coloring fails verification: {report.detail}")
    s = c.s
    if s < 2:
        raise GroupError("need at least one color to build a group")
    # the pairs (0, 1) .. (0, s - 1) lead the lexicographic pair order
    elem = [0, *(col + 1 for col in c.colors[: s - 1])]
    table = [[0] * s for _ in range(s)]
    for (u, v), col in zip(combinations(range(s), 2), c.colors):
        a, b = elem[u], elem[v]
        table[a][b] = table[b][a] = col + 1
    return ColorGroup(s, s.bit_length() - 1, tuple(map(tuple, table)))


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
