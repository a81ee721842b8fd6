"""Shadows of k-set families and the real-argument Kruskal-Katona bound.

The shadow of a family A of k-subsets is the family of all (k-1)-subsets
contained in some member.  If |A| = C(x, k) for a real x >= k - 1 (the
binomial extended by its product formula), then |shadow(A)| >= C(x, k-1).
The bound is tight when A consists of the first C(x, k) k-sets in
colexicographic order for an integer x, i.e. all k-subsets of an
x-element prefix.

check_lovasz_bound bisects x in floats (lovasz_x), reads the bound off
x by the root identity C(x, k-1) = k |A| / (x - k + 1), and gives an
exact verdict from integers alone (_holds).

The text format `turan-fam v1` stores a family:

    turan-fam v1
    m=<int> k=<int>
    s v1 v2 ... vk          (member indices, strictly increasing)
"""

from __future__ import annotations

import math

from .core import (
    FormatError,
    SetFamily,
    _Record,
    _read_header,
    _read_subsets,
    _read_written,
    _write_subsets,
)


def shadow_of(fam: SetFamily) -> SetFamily:
    """All (k-1)-subsets contained in a member of the family."""
    if fam.k < 1:
        raise ValueError("the shadow of a family of 0-subsets is undefined")
    out = set()
    for m in fam.members:
        rest = m
        while rest:
            low = rest & -rest
            out.add(m ^ low)
            rest ^= low
    return SetFamily(fam.m, fam.k - 1, tuple(sorted(out)))


def lovasz_x(size: int, k: int) -> float:
    """The unique real x >= k - 1 with C(x, k) = size, by bisection.

    C(x, k) is strictly increasing on [k - 1, inf); the root is
    bracketed by [k - 1, k - 1 + size] and bisected to 1e-12, or until
    no float lies strictly between the ends (from x = 8192 on, adjacent
    floats are more than 1e-12 apart).  C(mid, k) = prod (mid - i) / (k - i)
    cannot overflow on the way: for mid >= k the factors are >= 1, else
    in [0, 1].  A final inf means C(mid, k) > size, and inf < size is false.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if size < 0:
        raise ValueError(f"need size >= 0, got {size}")
    if size == 0:
        return float(k - 1)
    lo, hi = float(k - 1), float(k - 1 + size)
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:
            break
        binom = 1.0
        for i in range(k):
            binom *= (mid - i) / (k - i)
        if binom < size:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _holds(size: int, shadow_size: int, k: int) -> bool:
    """Exactly whether shadow_size >= C(x, k-1), where C(x, k) = size, x >= k - 1.

    C(x, k) = C(x, k-1) (x - k + 1) / k, so x = k size / C(x, k-1) + k - 1.
    With q = k size / shadow_size + k - 1 the bound holds iff
    C(q, k-1) <= shadow_size, as C(x, k) and C(x, k-1) both increase on
    x >= k - 1.  Over integers, with a = q shadow_size, that is
    prod_{i < k-1} (a - i shadow_size) <= (k-1)! shadow_size^k.  An
    empty family has bound 0; a nonempty one has a nonempty shadow.
    """
    if not size:
        return True
    a = k * size + (k - 1) * shadow_size
    falling = math.prod(a - i * shadow_size for i in range(k - 1))
    return falling <= math.factorial(k - 1) * shadow_size**k


class ShadowReport(_Record):
    __slots__ = ("size", "x", "bound", "shadow_size", "holds")


def check_lovasz_bound(fam: SetFamily) -> ShadowReport:
    """Compare |shadow(A)| against C(x, k-1) at x = lovasz_x(|A|, k).

    The verdict is exact (_holds); x and bound are floats for display.
    The bound is read off x by the root identity
    C(x, k-1) = k C(x, k) / (x - k + 1) = k |A| / (x - k + 1).  An empty
    family gets bound 0 (the degenerate x = k - 1 root would claim 1).
    """
    size, k = fam.size, fam.k
    x = lovasz_x(size, k)
    bound = k * size / (x - k + 1) if size else 0.0
    shadow_size = shadow_of(fam).size
    return ShadowReport(size, x, bound, shadow_size, _holds(size, shadow_size, k))


# --- turan-fam v1 --------------------------------------------------------

_FAM_MAGIC = "turan-fam v1"


def read_family(text: str) -> SetFamily:
    """Parse turan-fam v1; raises FormatError with line numbers."""
    written = _read_written(text, _FAM_MAGIC, ("m", "k"), "s", 1)
    if written is not None:
        return SetFamily(*written)
    (m, k), lineno, lines = _read_header(text, _FAM_MAGIC, ("m", "k"))
    if m < 0 or k < 0:
        raise FormatError("m and k must be nonnegative", lineno)
    return SetFamily(m, k, _read_subsets(lines, "s", k, m, "member"))


def write_family(fam: SetFamily) -> str:
    """Serialize to turan-fam v1, members in canonical (sorted mask) order."""
    return _write_subsets(_FAM_MAGIC, f"m={fam.m} k={fam.k}", "s", fam.members, fam.k)
