"""Shared ground types: bitmask subsets, exact binomials, hypergraphs.

Conventions used across the package:

* Vertices of an n-vertex structure are the integers 0..n-1.
* A subset of vertices is an int bitmask; vertex v is in the set iff
  bit v is set.  All arithmetic on counts is exact (Python ints).
* k-subsets are enumerated in lexicographic order on their sorted
  index lists, i.e. the order of itertools.combinations.
* Hypergraph edge lists are kept sorted by mask value and duplicate
  free, so equal hypergraphs compare equal structurally.

The text format `turan-hg v1` stores a 2k-uniform hypergraph:

    turan-hg v1
    n=<int> k=<int>
    e v1 v2 ... v2k        (vertex indices, strictly increasing)

Every text format shares its line syntax: a data line is a tag followed
by integers, blank lines and lines starting with `#` are ignored, and
readers report offending line numbers on malformed input.  The row
reader and writer below are shared by all of them.

The subset formats (`turan-hg v1` here, `turan-fam v1` in shadow) are
written, and read back, a block of rows at a time.  The block reader
takes only the writer's own form: the exact magic line, the header line
as `key=<digits> key=<digits>`, and a body of `tag` lines of ASCII
digits and single spaces, each row on its own line, with a final
newline.  Any other text (comments, blank lines, other whitespace, signs,
non-ASCII digits, or any failed check) goes through the line reader,
which gives the same result and raises every FormatError, so the
errors and their line numbers are the line reader's alone.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import combinations, islice, repeat
from operator import and_, lt, neg, or_, xor


class FormatError(ValueError):
    """Malformed text input; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# C(n, k) as an exact integer, 0 when k > n; ValueError on negatives
binom_exact = math.comb


def _kraw_values(n: int, x: int) -> Iterator[int]:
    """K_0^n(x), ..., K_n^n(x) by the recurrence in m (see krawtchouk)."""
    prev, cur = 0, 1
    for m in range(n + 1):
        yield cur
        prev, cur = cur, ((n - 2 * x) * cur - (n - m + 1) * prev) // (m + 1)


# _kraw_value refuses a value whose recurrence takes more bit-steps: m
# steps on integers of at most _kraw_bits(m, n) bits.  On a 2-CPU VM
# (Intel Xeon) the bit-steps ran at 0.08-0.38 ns each, so this many take
# about 0.4-1.6 s.  krawtchouk.optimal_shift refuses a longer scan.
MAX_KRAW_BIT_STEPS = 1 << 32


def _kraw_bits(m: int, n: int) -> int:
    """min(n, m * (bitlen(n // m) + 2)), for 0 < m <= n: no K_j^n(x) with
    j <= m is longer, as |K_j^n(x)| <= C(n, j) <= min(2^n, (e n / m)^m)
    for j <= m <= n / 2, and above n / 2 the second term exceeds n."""
    return min(n, m * ((n // m).bit_length() + 2))


def _check_bit_steps(steps: int, what: str) -> None:
    if steps > MAX_KRAW_BIT_STEPS:
        raise ValueError(
            f"{what} takes up to {steps} bit-steps, more than the most spent on one "
            f"Krawtchouk value, {MAX_KRAW_BIT_STEPS}"
        )


def _kraw_value(m: int, n: int, x: int) -> int:
    """K_m^n(x) for 0 <= m <= n, entry m of _kraw_values by the same
    recurrence, refused above MAX_KRAW_BIT_STEPS."""
    if m * n > MAX_KRAW_BIT_STEPS:  # m * n bounds the steps below, and is cheaper
        _check_bit_steps(m * _kraw_bits(m, n), f"K_{m}^{n}")
    prev, cur = 0, 1
    for j in range(m):
        prev, cur = cur, ((n - 2 * x) * cur - (n - j + 1) * prev) // (j + 1)
    return cur


def mask_of(indices: Iterable[int]) -> int:
    """Bitmask of a vertex index collection."""
    m = 0
    for v in indices:
        m |= 1 << v
    return m


def indices_of(mask: int) -> tuple[int, ...]:
    """Sorted vertex indices of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def enumerate_ksubsets(n: int, k: int) -> Iterator[int]:
    """All k-subset masks of 0..n-1, lexicographic on sorted index lists."""
    if n < 0 or k < 0:
        raise ValueError(f"enumerate_ksubsets needs nonnegative arguments, got ({n}, {k})")
    for combo in combinations(range(n), k):
        m = 0
        for v in combo:
            m |= 1 << v
        yield m


def _balanced_sizes(n: int, s: int) -> list[int]:
    """Sizes of s parts of 0..n-1 that differ by at most one, larger first."""
    return [n // s + (1 if i < n % s else 0) for i in range(s)]


def _check_members(n: int, size: int, masks: Sequence[int], what: str) -> None:
    for m in masks:
        if m < 0:
            raise ValueError(f"{what} {m} out of range for n={n}")
        if m >> n:
            raise ValueError(f"{what} {indices_of(m >> n << n)} out of range for n={n}")
        if m.bit_count() != size:
            raise ValueError(
                f"{what} {indices_of(m)} has {m.bit_count()} vertices, expected {size}"
            )
    if not all(map(lt, masks, islice(masks, 1, None))):
        raise ValueError(f"{what}s must be sorted ascending and duplicate free")


class _Record:
    """Base of the package's immutable value records.

    A subclass lists its fields once, in `__slots__`, and the base
    `__init__` takes them positionally in that order.  A subclass
    overrides `__init__` only to check its values, and then hands them
    on with `_Record.__init__(self, ...)`.  The base compares, hashes
    and prints the field tuple the way a frozen dataclass does
    (`Shift(two_t=4)`): a record equals only a record of the same
    class, and assigning or deleting a field raises AttributeError.
    """

    __slots__ = ()

    def __init__(self, *values):
        names = type(self).__slots__
        if len(values) != len(names):
            raise TypeError(
                f"{type(self).__qualname__}() takes {len(names)} fields "
                f"({', '.join(names)}), got {len(values)}"
            )
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in type(self).__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self).__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which reruns its checks
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__qualname__}")


class _KeepsRows:
    """A slot for incidence_rows to keep its transpose in.  It is not a
    field: a record's fields are its own class's `__slots__`, so it is
    never compared, hashed, printed, copied or pickled."""

    __slots__ = ("_rows",)


class Hypergraph(_Record, _KeepsRows):
    """A 2k-uniform hypergraph on vertices 0..n-1.

    `edges` holds one bitmask per edge, sorted ascending, no duplicates.
    """

    __slots__ = ("n", "k", "edges")

    def __init__(self, n: int, k: int, edges: tuple[int, ...]):
        _Record.__init__(self, n, k, edges)
        if n < 0 or k < 1:
            raise ValueError(f"need n >= 0 and k >= 1, got n={n} k={k}")
        _check_members(n, 2 * k, edges, "edge")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge_set(self) -> frozenset[int]:
        return frozenset(self.edges)


def hypergraph(n: int, k: int, edges: Iterable[int]) -> Hypergraph:
    """Build a Hypergraph, canonicalizing the edge order."""
    return Hypergraph(n, k, tuple(sorted(set(edges))))


class SetFamily(_Record):
    """A family of k-subsets of a ground set 0..m-1, sorted, duplicate free."""

    __slots__ = ("m", "k", "members")

    def __init__(self, m: int, k: int, members: tuple[int, ...]):
        _Record.__init__(self, m, k, members)
        if m < 0 or k < 0:
            raise ValueError(f"need m >= 0 and k >= 0, got m={m} k={k}")
        _check_members(m, k, members, "member")

    @property
    def size(self) -> int:
        return len(self.members)


def set_family(m: int, k: int, members: Iterable[int]) -> SetFamily:
    """Build a SetFamily, canonicalizing the member order."""
    return SetFamily(m, k, tuple(sorted(set(members))))


_WORD = (1 << 64) - 1

# Hacker's Delight transpose8: (shift, mask) rounds that swap bit 8i+j
# with bit 8j+i of a 64-bit word; each mask keeps a bit's partner in its word.
_TRANSPOSE8 = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


def incidence_rows(h: Hypergraph) -> list[int]:
    """Per-vertex bitsets over edge indices: bit i of row v is set iff v is in edges[i].

    The transpose is taken on the first call for h and kept with it, as
    a tuple in a slot that is not a field, so it lives as long as h and
    later calls cost one list copy.  The rows depend only on n and the
    edges, which never change.  The returned list is the caller's own.
    """
    try:
        rows = h._rows
    except AttributeError:
        rows = tuple(_transpose(h.edges, h.n))
        object.__setattr__(h, "_rows", rows)
    return list(rows)


def _transpose(words: Sequence[int], n: int) -> list[int]:
    """Bit i of row v of the result is bit v of words[i], for v < n.

    The words must lie in 0 .. 2^n - 1.  The transpose is a few big-int
    operations per 64 rows.  The words (or, above n = 64, one 64-bit limb
    of each) are packed little-endian as an array of unsigned 64-bit
    items, padded with zero words to whole blocks of 8 words.  Byte
    column j of that array holds bits 8j..8j+7 of every word, and each 8
    bytes of it are an 8x8 bit block: words by bits.  The columns are joined into one int, and the three Hacker's
    Delight rounds transpose every block at once, so byte t of block b
    then holds words 8b..8b+7 at bit 8j+t.  Row 8j+t is the strided
    slice of those bytes, read little-endian.
    """
    from array import array  # loaded on the first transpose, not by every command

    m = len(words)
    if not m:
        return [0] * n
    col = 8 * -(-m // 8)  # words, and so bytes in a byte column, padded to whole blocks
    pad = bytes(8 * (col - m))
    rows: list[int] = []
    for low in range(0, n, 64):
        limbs = array("Q", words if n <= 64 else [e >> low & _WORD for e in words])
        if sys.byteorder == "big":
            limbs.byteswap()
        raw = limbs.tobytes() + pad
        width = -(-min(64, n - low) // 8)
        x = int.from_bytes(b"".join([raw[j::8] for j in range(width)]), "little")
        # a 1 at the bottom of every 64-bit word: times a word mask, it repeats the mask
        ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * (col * width // 8), "little")
        for shift, word_mask in _TRANSPOSE8:
            t = (x ^ x >> shift) & ones * word_mask
            x ^= t ^ t << shift
        x_bytes = x.to_bytes(col * width, "little")
        rows.extend(
            int.from_bytes(x_bytes[j * col + b : (j + 1) * col : 8], "little")
            for j in range(width)
            for b in range(8)
        )
    return rows[:n]


def vertex_degrees(h: Hypergraph) -> list[int]:
    """Degree of every vertex, i.e. the number of edges containing it."""
    return [row.bit_count() for row in incidence_rows(h)]


# --- turan-hg v1 ---------------------------------------------------------

_HG_MAGIC = "turan-hg v1"


def _data_lines(text: str) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped content) for non-blank non-comment lines."""
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield i, line


def _read_header(
    text: str, magic: str, keys: tuple[str, ...]
) -> tuple[list[int], int, Iterator[tuple[int, str]]]:
    """Check the magic line and parse the `key=<int> ...` line after it.

    Returns the integers in key order, the field line's number (for the
    reader's own range checks) and the `_data_lines` iterator over the
    remaining lines.
    """
    lines = _data_lines(text)
    lineno, line = next(lines, (None, None))
    if line is None:
        raise FormatError(f"missing `{magic}` header")
    if line != magic:
        raise FormatError(f"expected `{magic}` header, got `{line}`", lineno)
    form = " ".join(key + "=<int>" for key in keys)
    lineno, line = next(lines, (None, None))
    if line is None:
        raise FormatError(f"missing `{form}` line")
    parts = line.split()
    if len(parts) != len(keys):
        raise FormatError(f"expected `{form}`", lineno)
    vals = []
    for part, key in zip(parts, keys):
        prefix = key + "="
        if not part.startswith(prefix):
            raise FormatError(f"expected `{prefix}<int>`, got `{part}`", lineno)
        try:
            vals.append(int(part[len(prefix):]))
        except ValueError:
            raise FormatError(f"`{part}` is not an integer assignment", lineno) from None
    return vals, lineno, lines


def _read_rows(
    lines: Iterable[tuple[int, str]], tag: str, arity: int | None = None
) -> Iterator[tuple[int, list[int]]]:
    """(line number, integers) for each `tag int ...` data line.

    Raises FormatError on a wrong tag, on a field count other than arity
    (when given) and on a field that is not an integer.
    """
    for lineno, line in lines:
        fields = line.split()
        if fields[0] != tag:
            raise FormatError(f"expected a `{tag}` line, got `{fields[0]}`", lineno)
        if arity is not None and len(fields) != arity + 1:
            raise FormatError(
                f"expected {arity} integers after `{tag}`, got {len(fields) - 1}", lineno
            )
        try:
            ints = [int(f) for f in fields[1:]]
        except ValueError:
            raise FormatError(f"`{tag}` line entries must be integers", lineno) from None
        yield lineno, ints


def _read_subsets(
    lines: Iterable[tuple[int, str]], tag: str, size: int, ground: int, what: str
) -> tuple[int, ...]:
    """Sorted masks of `tag v1 ... v_size` lines over the ground set 0..ground-1.

    Each line must list size indices, strictly increasing and in range,
    and no subset may appear twice.
    """
    seen: set[int] = set()
    for lineno, idx in _read_rows(lines, tag):
        if len(idx) != size:
            raise FormatError(f"{what} has {len(idx)} vertices, expected {size}", lineno)
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise FormatError(f"{what} vertices must be strictly increasing", lineno)
        if idx and (idx[0] < 0 or idx[-1] >= ground):
            raise FormatError(f"vertex index out of range 0..{ground - 1}", lineno)
        m = mask_of(idx)
        if m in seen:
            raise FormatError(" ".join(("duplicate", what, *map(str, idx))), lineno)
        seen.add(m)
    return tuple(sorted(seen))


def _write_rows(magic: str, header: str, tag: str, rows: Iterable[Iterable[int]]) -> str:
    """The magic line, the header line and one `tag int ...` line per row."""
    out = [magic, header]
    out.extend(" ".join((tag, *map(str, row))) for row in rows)
    return "\n".join(out) + "\n"


# the block reader and writer work this many rows at a time
_BLOCK_ROWS = 1024


def _write_subsets(magic: str, header: str, tag: str, masks: Sequence[int], size: int) -> str:
    """_write_rows(magic, header, tag, map(indices_of, masks)) for masks of
    `size` bits each, a block of rows at a time.

    Each block peels the lowest set bit off every mask at once, size
    times, so column j holds the j-th smallest index of every row as a
    bit; each bit is turned into its index text once per call.
    """
    out = [magic, header]
    names: dict[int, str] = {}
    for start in range(0, len(masks), _BLOCK_ROWS):
        rest = masks[start : start + _BLOCK_ROWS]
        cols = []
        for _ in range(size):
            low = list(map(and_, rest, map(neg, rest)))
            rest = list(map(xor, rest, low))
            cols.append(low)
        for bit in set().union(*cols).difference(names):
            names[bit] = str(bit.bit_length() - 1)
        texts = [map(names.__getitem__, col) for col in cols]
        out.append("\n".join(map(" ".join, zip(repeat(tag, len(rest)), *texts))))
    return "\n".join(out) + "\n"


def _read_written(
    text: str, magic: str, keys: tuple[str, str], tag: str, per_k: int
) -> tuple[int, int, tuple[int, ...]] | None:
    """(ground, k, sorted masks) of text in _write_subsets's form, rows of
    per_k * k indices, a block of rows at a time; None for any other text.

    None also stands for every failed check: the caller then reads the
    text line by line, which gives the same result or raises the error.
    A block is accepted when its tokens, split at single spaces and line
    ends, are `tag` exactly at every row start and ASCII digits in range
    everywhere else, every line holds one row, and the indices increase
    along each row.  Each distinct token is converted once.
    """
    head = text[: text.find("\n", len(magic) + 1) + 1]  # the first two lines
    try:
        (ground, k), _, _ = _read_header(head, magic, keys)
    except FormatError:
        return None
    if head != f"{magic}\n{keys[0]}={ground} {keys[1]}={k}\n" or min(ground, k) < 0:
        return None
    if not text.endswith("\n"):  # so that every block ends a line
        return None
    stride = per_k * k + 1
    width = len(str(ground))
    bits = {tag: 0}  # index text -> its bit; the tag sets none
    line_start = "\n" + tag
    masks: list[int] = []
    blocks = re.compile(r"(?:[^\n]*\n){1,%d}" % _BLOCK_ROWS).finditer(text, len(head))
    for block in map(re.Match.group, blocks):
        rows = block.count("\n")
        tokens = block.replace("\n", " ").split(" ")
        tokens.pop()  # the empty token after the last line end
        if (
            len(tokens) != rows * stride
            or tokens[::stride].count(tag) != rows
            or tokens.count(tag) != rows
            or block.count(line_start) != rows - 1
        ):
            return None
        for token in set(tokens).difference(bits):
            # the width keeps int() within the digits it reads
            if not (token.isascii() and token.isdigit() and len(token) <= width):
                return None
            if int(token) >= ground:
                return None
            bits[token] = 1 << int(token)
        cols = [list(map(bits.__getitem__, tokens[j::stride])) for j in range(1, stride)]
        for low, high in zip(cols, cols[1:]):
            if not all(map(lt, low, high)):
                return None
        row_masks = repeat(0, rows)
        for col in cols:
            row_masks = map(or_, row_masks, col)
        masks.extend(row_masks)
    masks.sort()
    if not all(map(lt, masks, islice(masks, 1, None))):
        return None
    return ground, k, tuple(masks)


def read_hypergraph(text: str) -> Hypergraph:
    """Parse the turan-hg v1 format; raises FormatError with line numbers."""
    written = _read_written(text, _HG_MAGIC, ("n", "k"), "e", 2)
    if written is not None and written[1] >= 1:
        return Hypergraph(*written)
    (n, k), lineno, lines = _read_header(text, _HG_MAGIC, ("n", "k"))
    if n < 0 or k < 1:
        raise FormatError(f"need n >= 0 and k >= 1, got n={n} k={k}", lineno)
    return Hypergraph(n, k, _read_subsets(lines, "e", 2 * k, n, "edge"))


def write_hypergraph(h: Hypergraph) -> str:
    """Serialize to turan-hg v1, edges in canonical (sorted mask) order."""
    return _write_subsets(_HG_MAGIC, f"n={h.n} k={h.k}", "e", h.edges, 2 * h.k)
