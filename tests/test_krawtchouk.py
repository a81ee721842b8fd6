import math
import time

import pytest
from hypothesis import given, strategies as st

from turanhg import core, krawtchouk as kw
from turanhg.construct import Shift, parity_edge_count
from turanhg.core import binom_exact


# hand-expanded rows of (1-z)^x (1+z)^(4-x)
KNOWN_N4 = {
    0: [1, 4, 6, 4, 1],
    1: [1, 2, 0, -2, -1],
    2: [1, 0, -2, 0, 1],
    3: [1, -2, 0, 2, -1],
    4: [1, -4, 6, -4, 1],
}


def test_known_rows_n4():
    for x, row in KNOWN_N4.items():
        assert kw.genfunc_row(4, x) == row
        assert [kw.kraw_eval(m, 4, x) for m in range(5)] == row


def test_eval_matches_genfunc_small():
    for n in range(0, 16):
        for x in range(n + 1):
            row = kw.genfunc_row(n, x)
            for m in range(n + 1):
                assert kw.kraw_eval(m, n, x) == row[m]


def test_large_values_by_recurrence():
    # the alternating sum took 3.5 s for this value and the expansion of
    # (1 - z)^x (1 + z)^(n - x) 6.5 s for this row, on a 2-CPU VM
    start = time.perf_counter()
    kw.kraw_eval(4000, 8000, 2000)
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    row = kw.genfunc_row(8000, 2666)
    assert time.perf_counter() - start < 1
    # the row sums to (1 - 1)^x (1 + 1)^(n - x) = 0
    assert len(row) == 8001 and sum(row) == 0
    assert kw.kraw_eval(8000, 16000, 0) == math.comb(16000, 8000)


def test_row_limit_is_exact(monkeypatch):
    # a row of exactly the limit's (n + 1) * n bits is built, one bit less
    # is refused
    monkeypatch.setattr(kw, "MAX_ROW_BITS", 20)
    assert kw.genfunc_row(4, 1) == KNOWN_N4[1]
    monkeypatch.setattr(kw, "MAX_ROW_BITS", 19)
    with pytest.raises(ValueError) as err:
        kw.genfunc_row(4, 1)
    assert str(err.value) == (
        "n=4 gives a row of up to 20 bits, more than the largest row built, 19"
    )


def test_value_limit_is_exact(monkeypatch):
    # K_2^4 takes 2 steps of up to min(4, 2 * (bitlen(2) + 2)) = 4 bits: at
    # a limit of 8 bit-steps each route to it answers, at 7 each refuses
    monkeypatch.setattr(core, "MAX_KRAW_BIT_STEPS", 8)
    assert kw.kraw_eval(2, 4, 2) == -2
    assert parity_edge_count(4, 1, Shift(0)) == 4
    assert kw.optimal_shift(4, 1).max_edges == 4
    monkeypatch.setattr(core, "MAX_KRAW_BIT_STEPS", 7)
    message = "K_2^4 takes up to 8 bit-steps, more than the most spent on one Krawtchouk value, 7"
    for call in (
        lambda: kw.kraw_eval(2, 4, 2),
        lambda: parity_edge_count(4, 1, Shift(0)),
        lambda: kw.optimal_shift(4, 1),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


def test_shift_scan_limit_is_exact(monkeypatch):
    # n = 100, k = 1 scans x = 50..64: 14 steps of up to
    # min(100, 2 * (bitlen(50) + 2)) = 16 bits, 224 bit-steps; its two
    # Krawtchouk values stay below the cheap m * n test at either limit
    want = kw.optimal_shift(100, 1)
    monkeypatch.setattr(core, "MAX_KRAW_BIT_STEPS", 224)
    assert kw.optimal_shift(100, 1) == want
    monkeypatch.setattr(core, "MAX_KRAW_BIT_STEPS", 223)
    with pytest.raises(ValueError) as err:
        kw.optimal_shift(100, 1)
    assert str(err.value) == (
        "the shift scan for n=100 k=1 takes up to 224 bit-steps, more than the most spent on "
        "one Krawtchouk value, 223"
    )


def test_value_limit_bounds_every_step():
    # the cost counts each of the m steps at min(n, m * (bitlen(n // m) + 2))
    # bits; no value on the way to K_m^n(x) is longer
    for n in range(1, 48):
        for x in range(n + 1):
            longest = 0
            for m, value in enumerate(kw.genfunc_row(n, x)):
                longest = max(longest, value.bit_length())
                if m:
                    assert longest <= min(n, m * ((n // m).bit_length() + 2)), (n, x, m)


def test_one_value_is_its_row_entry():
    # the one-value loop and the row generator run the same recurrence
    for n in range(41):
        for x in range(n + 1):
            row = list(core._kraw_values(n, x))
            assert [core._kraw_value(m, n, x) for m in range(n + 1)] == row, (n, x)


def test_eval_domain_errors():
    with pytest.raises(ValueError):
        kw.kraw_eval(-1, 4, 2)
    with pytest.raises(ValueError):
        kw.kraw_eval(5, 4, 2)
    with pytest.raises(ValueError):
        kw.kraw_eval(2, 4, 5)


@given(st.integers(0, 30).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n), st.integers(0, n))))
def test_reflection_symmetry(args):
    n, m, x = args
    # K_m(n-x) = (-1)^m K_m(x)
    assert kw.kraw_eval(m, n, n - x) == (-1) ** m * kw.kraw_eval(m, n, x)


@given(st.integers(0, 30).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n), st.integers(0, n))))
def test_dual_symmetry(args):
    n, m, x = args
    # C(n,x) K_m(x) = C(n,m) K_x(m)
    lhs = binom_exact(n, x) * kw.kraw_eval(m, n, x)
    rhs = binom_exact(n, m) * kw.kraw_eval(x, n, m)
    assert lhs == rhs


def test_orthogonality():
    # sum_x C(n,x) K_m(x) K_l(x) = 2^n C(n,m) [m == l]
    for n in range(1, 13):
        for m in range(n + 1):
            for l in range(m, n + 1):
                s = sum(
                    binom_exact(n, x) * kw.kraw_eval(m, n, x) * kw.kraw_eval(l, n, x)
                    for x in range(n + 1)
                )
                want = 2**n * binom_exact(n, m) if m == l else 0
                assert s == want


def test_top_values():
    for n in range(0, 20):
        for m in range(n + 1):
            assert kw.kraw_eval(m, n, 0) == binom_exact(n, m)
            assert kw.kraw_eval(m, n, n) == (-1) ** m * binom_exact(n, m)
            assert kw.kraw_eval(0, n, m) == 1


def test_shift_feasibility():
    assert kw.Shift(0).feasible(4)
    assert kw.Shift(2).feasible(4)
    assert not kw.Shift(1).feasible(4)  # parity mismatch
    assert kw.Shift(3).feasible(5)
    assert not kw.Shift(6).feasible(4)  # |2t| > n
    assert kw.Shift(-2).feasible(4)
    assert kw.Shift(4).part_sizes(8) == (6, 2)
    assert kw.Shift(-2).part_sizes(8) == (3, 5)


def test_integer_window_contains_roots():
    # K_m^n(x) cannot vanish once (2x - n)^2 > 4mn: optimal_shift scans
    # (2t)^2 <= 8kn, this window for m = 2k and x = n/2 + t
    for n in range(1, 40):
        for m in range(1, n + 1):
            for x in range(n + 1):
                if (2 * x - n) ** 2 > 4 * m * n:
                    assert kw.kraw_eval(m, n, x) != 0


def _scan_every_shift(n, k):
    """{2t: (C(n, 2k) - K_2k^n(n/2 + t)) / 2} over every feasible t >= 0."""
    total = binom_exact(n, 2 * k)
    return {
        tt: (total - kw.kraw_eval(2 * k, n, (n + tt) // 2)) // 2
        for tt in range(n % 2, n + 1, 2)
    }


def test_optimal_shift_matches_full_scan():
    # the Levenshtein window loses no maximizer of the full sweep, and
    # the walk in x gives the values of the recurrence in m
    for k in range(1, 6):
        for n in range(2 * k, 400):
            counts = _scan_every_shift(n, k)
            best = max(counts.values())
            rep = kw.optimal_shift(n, k)
            assert rep.max_edges == best
            assert [s.two_t for s in rep.maximizers] == [
                tt for tt, b in counts.items() if b == best
            ]


def test_optimal_shift_frozen_values():
    r = kw.optimal_shift(8, 2)
    assert r.max_edges == 40
    assert [s.two_t for s in r.maximizers] == [4]
    r = kw.optimal_shift(7, 2)  # tie
    assert r.max_edges == 20
    assert [s.two_t for s in r.maximizers] == [3, 5]
    r = kw.optimal_shift(6, 2)
    assert r.max_edges == 10
    assert [s.two_t for s in r.maximizers] == [4]


def test_optimal_shift_value_is_max():
    # the binomial count of the report dominates every feasible shift's
    # Krawtchouk value and is attained at each reported maximizer
    for k in range(1, 6):
        for n in range(2 * k, 121):
            counts = _scan_every_shift(n, k)
            rep = kw.optimal_shift(n, k)
            assert all(b <= rep.max_edges for b in counts.values())
            assert all(counts[s.two_t] == rep.max_edges for s in rep.maximizers)


def test_optimal_shift_scans_only_the_window():
    # n = 10^10 has 5 * 10^9 + 1 feasible shifts; the scan takes the
    # O(sqrt(kn)) of them in the window
    start = time.perf_counter()
    r = kw.optimal_shift(10**10, 1)
    assert time.perf_counter() - start < 10
    assert r.max_edges == (5 * 10**9) ** 2
    assert r.maximizers == (Shift(0),)


def test_optimal_shift_domain():
    with pytest.raises(ValueError):
        kw.optimal_shift(3, 2)
    with pytest.raises(ValueError):
        kw.optimal_shift(8, 0)
