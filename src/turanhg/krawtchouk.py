"""Binary Krawtchouk polynomials and optimal bipartition shifts.

K_m^n(x), the degree-m binary Krawtchouk polynomial, is the coefficient
of z^m in G(z) = (1 - z)^x (1 + z)^(n-x), or sum_i (-1)^i C(x, i)
C(n - x, m - i).  As (1 - z^2) G' = (n - 2x - nz) G, the values obey
the first of the three-term recurrences (MacWilliams and Sloane, ch. 5)

    (m + 1) K_{m+1}(x) = (n - 2x) K_m(x) - (n - m + 1) K_{m-1}(x)
    (n - x) K_m(x + 1) = (n - 2m) K_m(x) - x K_m(x - 1)

and the second follows by C(n, x) K_m(x) = C(n, m) K_x(m); every
division is exact.  The first, from K_{-1} = 0 and K_0 = 1, is the
library's one route to the values (core._kraw_values); the sum and the
expansion are oracles in the tests.  One value takes m steps on
integers of up to min(n, m (bitlen(n // m) + 2)) bits, and is refused
above core.MAX_KRAW_BIT_STEPS of them.

The parity construction on the shift 2t (construct.Shift) has
(C(n, 2k) - K_{2k}^n(n/2 + t)) / 2 edges, so optimal_shift minimizes
K_{2k}^n(x) over x = n/2 + t.  K_m^n(x) cannot vanish when
(2x - n)^2 > 4mn, and its minimizers lie in that window, which keeps
the scan short: K at its first two arguments comes from the first
recurrence, and the second walks the rest.  The walk takes about
sqrt(2kn) steps on integers of up to core._kraw_bits(2k, n) bits, and is
refused above core.MAX_KRAW_BIT_STEPS of them.
"""

from __future__ import annotations

import math

from .construct import Shift
from .core import _Record, _check_bit_steps, _kraw_bits, _kraw_value, _kraw_values, binom_exact

# genfunc_row refuses longer rows, of (n + 1) * n bits, as |K_m^n| < 2^n
MAX_ROW_BITS = 1 << 28


def kraw_eval(m: int, n: int, x: int) -> int:
    """K_m^n(x), exact; refused above core.MAX_KRAW_BIT_STEPS."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m} n={n}")
    if not 0 <= x <= n:
        raise ValueError(f"need 0 <= x <= n, got x={x} n={n}")
    return _kraw_value(m, n, x)


def genfunc_row(n: int, x: int) -> list[int]:
    """K_m^n(x) for m = 0..n: the coefficients of (1 - z)^x (1 + z)^(n-x)."""
    if not 0 <= x <= n:
        raise ValueError(f"need 0 <= x <= n, got x={x} n={n}")
    if (n + 1) * n > MAX_ROW_BITS:
        raise ValueError(
            f"n={n} gives a row of up to {(n + 1) * n} bits, more than the largest row built, "
            f"{MAX_ROW_BITS}"
        )
    return list(_kraw_values(n, x))


class OptimalShiftReport(_Record):
    """All edge-count maximizing shifts (t >= 0, ascending) and the maximum."""

    __slots__ = ("n", "k", "max_edges", "maximizers")


def optimal_shift(n: int, k: int) -> OptimalShiftReport:
    """Shifts maximizing the parity edge count over a bipartition.

    By symmetry only t >= 0 is scanned.  The scan covers the feasible
    shifts with (2t)^2 <= 8kn, the window where K_{2k}^n(n/2 + t) can
    be small.  A scan of more than core.MAX_KRAW_BIT_STEPS bit-steps is
    refused.
    """
    if k < 1 or n < 2 * k:
        raise ValueError(f"need n >= 2k >= 2, got n={n} k={k}")
    m = 2 * k
    # feasible 2t run from n % 2 in steps of 2, so x = n/2 + t runs from
    # ceil(n/2) in steps of 1; (2t)^2 <= 8kn caps them
    first, last = (n + 1) // 2, (n + min(n, math.isqrt(8 * k * n))) // 2
    prev, cur = kraw_eval(m, n, first - 1), kraw_eval(m, n, first)
    _check_bit_steps((last - first) * _kraw_bits(m, n), f"the shift scan for n={n} k={k}")
    least, winners = cur, [first]
    for x in range(first, last):
        prev, cur = cur, ((n - 2 * m) * cur - x * prev) // (n - x)
        if cur < least:
            least, winners = cur, [x + 1]
        elif cur == least:
            winners.append(x + 1)
    return OptimalShiftReport(
        n, k, (binom_exact(n, m) - least) // 2, tuple(Shift(2 * x - n) for x in winners)
    )
