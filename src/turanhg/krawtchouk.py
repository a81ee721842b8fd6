"""Binary Krawtchouk polynomials and optimal bipartition shifts.

K_m^n(x), the degree-m binary Krawtchouk polynomial, is the coefficient
of z^m in G(z) = (1 - z)^x (1 + z)^(n-x), or sum_i (-1)^i C(x, i)
C(n - x, m - i).  As (1 - z^2) G' = (n - 2x - nz) G, the values obey
the three-term recurrence (MacWilliams and Sloane, ch. 5)

    (m + 1) K_{m+1}(x) = (n - 2x) K_m(x) - (n - m + 1) K_{m-1}(x)

from K_{-1} = 0 and K_0 = 1, every division exact: the library's one
route to them.  The sum and the expansion are oracles in the tests.

Shifts:  a bipartition of 0..n-1 into parts of sizes n/2 + t and
n/2 - t is encoded by the integer 2t (construct.Shift), so t may be a
half-integer when n is odd.  The parity construction on it has

    (C(n, 2k) - K_{2k}^n(n/2 + t)) / 2

edges, so maximizing that count means minimizing K_{2k}^n over
feasible arguments.  K_m^n(x) cannot vanish when (2x - n)^2 > 4mn, and
its minimizers lie in that window, which keeps the scan short;
optimal_shift scores each candidate with construct.parity_edge_count.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import islice

from .construct import Shift, parity_edge_count
from .core import _Record


def _kraw_values(n: int, x: int) -> Iterator[int]:
    """K_0^n(x), K_1^n(x), ..., K_n^n(x) by the three-term recurrence."""
    prev, cur = 0, 1
    for m in range(n + 1):
        yield cur
        prev, cur = cur, ((n - 2 * x) * cur - (n - m + 1) * prev) // (m + 1)


def kraw_eval(m: int, n: int, x: int) -> int:
    """K_m^n(x), exact."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m} n={n}")
    if not 0 <= x <= n:
        raise ValueError(f"need 0 <= x <= n, got x={x} n={n}")
    return next(islice(_kraw_values(n, x), m, None))


def genfunc_row(n: int, x: int) -> list[int]:
    """K_m^n(x) for m = 0..n: the coefficients of (1 - z)^x (1 + z)^(n-x)."""
    if not 0 <= x <= n:
        raise ValueError(f"need 0 <= x <= n, got x={x} n={n}")
    return list(_kraw_values(n, x))


class OptimalShiftReport(_Record):
    """All edge-count maximizing shifts (t >= 0, ascending) and the maximum."""

    __slots__ = ("n", "k", "max_edges", "maximizers")


def optimal_shift(n: int, k: int) -> OptimalShiftReport:
    """Shifts maximizing the parity edge count over a bipartition.

    By symmetry only t >= 0 is scanned.  The scan covers the feasible
    shifts with (2t)^2 <= 8kn, the window where K_{2k}^n(n/2 + t) can
    be small.
    """
    if k < 1 or n < 2 * k:
        raise ValueError(f"need n >= 2k >= 2, got n={n} k={k}")
    best = -1
    winners: list[int] = []
    # feasible 2t run from n % 2 in steps of 2; (2t)^2 <= 8kn caps them
    for tt in range(n % 2, min(n, math.isqrt(8 * k * n)) + 1, 2):
        b = parity_edge_count(n, k, Shift(tt))
        if b > best:
            best, winners = b, [tt]
        elif b == best:
            winners.append(tt)
    return OptimalShiftReport(n, k, best, tuple(Shift(tt) for tt in winners))
