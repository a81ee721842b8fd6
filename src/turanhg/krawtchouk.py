"""Binary Krawtchouk polynomials and optimal bipartition shifts.

K_m^n(x) is the degree-m binary Krawtchouk polynomial,

    K_m^n(x) = sum_i (-1)^i C(x, i) C(n - x, m - i),

equivalently the coefficient of z^m in (1 - z)^x (1 + z)^(n-x).  Three
independent evaluation routes are kept side by side on purpose: the
explicit sum (kraw_eval), exact polynomial multiplication of the
generating function (genfunc_row), and a rearranged sum in terms of the
bipartition shift t (kraw_shifted).

Shifts:  a bipartition of 0..n-1 into parts of sizes n/2 + t and
n/2 - t is encoded by the integer 2t, so t may be a half-integer when n
is odd.  The number of 2k-subsets meeting both parts in an odd count is

    (C(n, 2k) - K_{2k}^n(n/2 + t)) / 2,

so maximizing that edge count means minimizing K_{2k}^n over feasible
arguments.  All integer minimizers of K_m^n lie in the window
[n/2 - sqrt(mn), n/2 + sqrt(mn)], which keeps the scan short.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import binom_exact


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

    Computed by repeated exact multiplication with (1 - z) and (1 + z),
    deliberately avoiding binomial coefficients so the row is an
    independent cross-check for kraw_eval.
    """
    if not 0 <= x <= n:
        raise ValueError(f"need 0 <= x <= n, got x={x} n={n}")
    coeffs = [1]
    for _ in range(x):
        coeffs = [a - b for a, b in zip(coeffs + [0], [0] + coeffs)]
    for _ in range(n - x):
        coeffs = [a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


@dataclass(frozen=True, order=True)
class Shift:
    """Bipartition shift t stored as the integer 2t."""

    two_t: int

    def feasible(self, n: int) -> bool:
        """True iff n/2 + t and n/2 - t are both nonnegative integers."""
        return abs(self.two_t) <= n and (n + self.two_t) % 2 == 0

    def part_sizes(self, n: int) -> tuple[int, int]:
        """(n/2 + t, n/2 - t) as exact integers."""
        if not self.feasible(n):
            raise ValueError(f"shift 2t={self.two_t} infeasible for n={n}")
        return (n + self.two_t) // 2, (n - self.two_t) // 2


def kraw_shifted(m: int, n: int, shift: Shift) -> int:
    """K_m^n(n/2 + t) via the shift form, exact; needs t >= 0.

    K_m^n(n/2 + t) = sum_i (-1)^(i+m) C(n/2 - t, i) C(2t, m - 2i),
    the coefficient of z^m in (1 - z^2)^(n/2 - t) (1 - z)^(2t).
    """
    if shift.two_t < 0:
        raise ValueError(f"shift form needs t >= 0, got 2t={shift.two_t}")
    _, small = shift.part_sizes(n)
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m} n={n}")
    total = 0
    for i in range(m // 2 + 1):
        term = binom_exact(small, i) * binom_exact(shift.two_t, m - 2 * i)
        total += -term if (i + m) & 1 else term
    return total


def levenshtein_window(m: int, n: int) -> tuple[float, float]:
    """[n/2 - sqrt(mn), n/2 + sqrt(mn)], containing every minimizer of K_m^n."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m} n={n}")
    half = math.sqrt(m * n)
    return n / 2 - half, n / 2 + half


@dataclass(frozen=True)
class OptimalShiftReport:
    """All edge-count maximizing shifts (t >= 0, ascending) and the maximum."""

    n: int
    k: int
    max_edges: int
    maximizers: tuple[Shift, ...]


def _parity_edges(n: int, k: int, two_t: int) -> int:
    x = (n + two_t) // 2
    return (binom_exact(n, 2 * k) - kraw_eval(2 * k, n, x)) // 2


def optimal_shift(n: int, k: int) -> OptimalShiftReport:
    """Shifts maximizing the odd-odd 2k-subset count over a bipartition.

    By symmetry only t >= 0 is scanned.  The scan covers the
    feasible shifts with n/2 + t inside levenshtein_window(2k, n) plus
    the endpoints t = 0 (or 1/2) and t = n/2.
    """
    if k < 1 or n < 2 * k:
        raise ValueError(f"need n >= 2k >= 2, got n={n} k={k}")
    start = n % 2  # smallest feasible 2t
    candidates = [tt for tt in range(start, n + 1, 2) if tt * tt <= 8 * k * n]
    if candidates[-1] != n:
        candidates.append(n)
    best = -1
    winners: list[int] = []
    for tt in candidates:
        b = _parity_edges(n, k, tt)
        if b > best:
            best, winners = b, [tt]
        elif b == best:
            winners.append(tt)
    return OptimalShiftReport(n, k, best, tuple(Shift(tt) for tt in sorted(winners)))
