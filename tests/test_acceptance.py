"""End-to-end acceptance checks, one test per criterion.

Each test computes a verdict, records it in RESULTS (the conftest hook
prints one line per criterion after the run) and then asserts it.  Two
checks are expected to stay red; the reasons are documented inline at
the point of failure and kept as-is rather than weakening the ranges.
"""

import contextlib
import io
import math
import random
import time
from fractions import Fraction
from itertools import combinations, product

from turanhg import (
    algebra,
    construct,
    core,
    freeness,
    krawtchouk,
    search,
    shadow,
    stability,
)
from turanhg.cli import run_cli
from turanhg.krawtchouk import Shift

from test_algebra import enumerate_one_factorizations
from test_shadow import _binom_float

RESULTS: dict[int, tuple[str, bool]] = {}


def record(num: int, desc: str, ok: bool, detail: str = ""):
    RESULTS[num] = (desc, bool(ok))
    assert ok, f"criterion {num} ({desc}): {detail or 'failed'}"


def feasible_two_ts(n: int) -> list[int]:
    return [tt for tt in range(-n, n + 1) if (n + tt) % 2 == 0]


def test_criterion_01_edge_count_formula():
    t0 = time.monotonic()
    bad = []
    for k in (1, 2, 3):
        for n in range(2 * k, 25):
            for tt in feasible_two_ts(n):
                sh = Shift(tt)
                h, _ = construct.build_parity(n, k, sh)
                if h.edge_count != construct.parity_edge_count(n, k, sh):
                    bad.append((n, k, tt))
    elapsed = time.monotonic() - t0
    record(
        1,
        "edge count formula matches enumeration (k<=3, n<=24, all shifts)",
        not bad and elapsed < 60,
        f"mismatches={bad[:5]} elapsed={elapsed:.1f}s",
    )


def test_criterion_02_degree_formula():
    t0 = time.monotonic()
    bad = []
    for k in (1, 2, 3):
        for n in range(2 * k, 25):
            for tt in feasible_two_ts(n):
                sh = Shift(tt)
                h, part = construct.build_parity(n, k, sh)
                degs = core.vertex_degrees(h)
                n1, n2 = sh.part_sizes(n)
                want_1 = construct.parity_degree(n, k, sh, "large") if n1 else None
                want_2 = construct.parity_degree(n, k, sh, "small") if n2 else None
                for v in range(n):
                    want = want_1 if part.part_of[v] == 1 else want_2
                    if degs[v] != want:
                        bad.append((n, k, tt, v))
    elapsed = time.monotonic() - t0
    record(
        2,
        "degree formula matches every vertex degree (same range)",
        not bad and elapsed < 60,
        f"mismatches={bad[:5]} elapsed={elapsed:.1f}s",
    )


def _kraw_sum(m: int, n: int, x: int) -> int:
    """K_m^n(x) = sum_i (-1)^i C(x, i) C(n - x, m - i)."""
    total = 0
    for i in range(m + 1):
        term = core.binom_exact(x, i) * core.binom_exact(n - x, m - i)
        total += -term if i & 1 else term
    return total


def _genfunc_expansion(n: int, x: int) -> list[int]:
    """Coefficients of (1 - z)^x (1 + z)^(n-x), by n multiplications
    with (1 - z) or (1 + z); entry m is K_m^n(x)."""
    coeffs = [1]
    for _ in range(x):
        coeffs = [a - b for a, b in zip(coeffs + [0], [0] + coeffs)]
    for _ in range(n - x):
        coeffs = [a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def _kraw_shifted(m: int, n: int, two_t: int) -> int:
    """K_m^n(n/2 + t) for t >= 0 by the shift form.

    K_m^n(n/2 + t) = sum_i (-1)^(i+m) C(n/2 - t, i) C(2t, m - 2i),
    the coefficient of z^m in (1 - z^2)^(n/2 - t) (1 - z)^(2t).
    """
    _, small = Shift(two_t).part_sizes(n)
    total = 0
    for i in range(m // 2 + 1):
        term = core.binom_exact(small, i) * core.binom_exact(two_t, m - 2 * i)
        total += -term if (i + m) & 1 else term
    return total


def test_criterion_03_krawtchouk_routes():
    t0 = time.monotonic()
    bad = []
    for n in range(0, 61):
        for x in range(0, n + 1):
            # the library's recurrence, whole row and one value at a time
            lib_row = krawtchouk.genfunc_row(n, x)
            row = _genfunc_expansion(n, x)
            for m in range(0, n + 1):
                a = _kraw_sum(m, n, x)
                if 2 * x >= n:
                    c = _kraw_shifted(m, n, 2 * x - n)
                else:
                    # reflect to the upper half: K_m(x) = (-1)^m K_m(n-x)
                    c = (-1) ** m * _kraw_shifted(m, n, n - 2 * x)
                if not (a == row[m] == c == lib_row[m] == krawtchouk.kraw_eval(m, n, x)):
                    bad.append((m, n, x))
    elapsed = time.monotonic() - t0
    record(
        3,
        "Krawtchouk recurrence matches the sum, generating function and "
        "shifted form (n<=60)",
        not bad and elapsed < 30,
        f"mismatches={bad[:5]} elapsed={elapsed:.1f}s",
    )


def test_criterion_04_optimal_shift_localization():
    # Asks every maximizer to satisfy |t - sqrt(3n/4 - 1)| <= 1/2, i.e.
    # (2t - 1)^2 <= 3n - 4 <= (2t + 1)^2.  This fails whenever two
    # consecutive feasible shifts tie for the maximum: the quartic in 2t
    # is symmetric about sqrt(3n-4), so at a tie both shifts sit a full
    # step from the vertex.  First such n is 7, where 2t in {3, 5} both
    # give 20 edges and 3 is 1.12 below sqrt(17).  Kept red by design.
    t0 = time.monotonic()
    bad = []
    for n in range(6, 2001):
        for sh in krawtchouk.optimal_shift(n, 2).maximizers:
            tt = sh.two_t
            lo_ok = tt <= 1 or (tt - 1) ** 2 <= 3 * n - 4
            hi_ok = 3 * n - 4 <= (tt + 1) ** 2
            if not (lo_ok and hi_ok):
                bad.append((n, tt))
    elapsed = time.monotonic() - t0
    record(
        4,
        "k=2 optimal shifts localized to sqrt(3n/4-1) +- 1/2 (6<=n<=2000)",
        not bad and elapsed < 300,
        f"{len(bad)} maximizers outside the half-unit window, "
        f"first {bad[:4]}, elapsed={elapsed:.1f}s",
    )


def test_criterion_05_count_and_degree_bounds():
    t0 = time.monotonic()
    fails = []

    # Degree window: for shifts s <= c sqrt(n) the degree stays within
    # (10c^2)^k n^(k-1/2) of half the point count.  Squared comparison
    # keeps everything in integers / rationals.
    cs = (Fraction(3, 2), Fraction(5, 2), Fraction(4), Fraction(5))
    for k in (1, 2, 3, 4):
        for n in range(2 * k, 401):
            half = core.binom_exact(n - 1, 2 * k - 1)
            npow = n ** (2 * k - 1)
            lims = [(c, 4 * (10 * c * c) ** (2 * k) * npow) for c in cs]
            for tt in range(n % 2, n + 1, 2):
                if tt * tt > 100 * n:  # outside even the widest window
                    break
                for side in ("large", "small"):
                    if tt == n and side == "small":
                        continue
                    d = construct.parity_degree(n, k, Shift(tt), side)
                    dev_sq = (2 * d - half) ** 2
                    for c, lim in lims:
                        if tt * tt <= 4 * c * c * n and dev_sq >= lim:
                            fails.append(("deg-window", k, n, tt, side, str(c)))

    # Center values: the best edge count is near half of C(n, 2k) and
    # the degrees at any best shift near half of C(n-1, 2k-1).
    for k in (1, 2, 3, 4):
        for n in range(2 * k, 401):
            rep = krawtchouk.optimal_shift(n, k)
            if abs(2 * rep.max_edges - core.binom_exact(n, 2 * k)) >= 2 * (20 * k * n) ** k:
                fails.append(("count-center", k, n))
            half = core.binom_exact(n - 1, 2 * k - 1)
            lim_sq = 4 * (20 * k) ** (2 * k) * n ** (2 * k - 1)
            for sh in rep.maximizers:
                for side in ("large", "small"):
                    if sh.two_t == n and side == "small":
                        continue
                    d = construct.parity_degree(n, k, sh, side)
                    if (2 * d - half) ** 2 >= lim_sq:
                        fails.append(("deg-center", k, n, sh.two_t, side))

    # Drop-off: past C sqrt(n) with C = 20^k + 1 the degree falls a full
    # 20^k n^(k-1/2) below half.  The shift is only feasible once
    # C sqrt(n) <= n/2, so the threshold is n0 = 4 C^2; C sqrt(n) is
    # rounded down to the nearest feasible shift.
    for k in (1, 2, 3):
        C = 20 ** k + 1
        n0 = 4 * C * C
        for n in (n0, n0 + 1, n0 + 17, 2 * n0):
            tt = math.isqrt(4 * C * C * n)
            if (n + tt) % 2:
                tt -= 1
            tt = min(tt, n)
            half = core.binom_exact(n - 1, 2 * k - 1)
            d = construct.parity_degree(n, k, Shift(tt), "large")
            gap = half - 2 * d
            if not (gap > 0 and gap * gap > 4 * 20 ** (2 * k) * n ** (2 * k - 1)):
                fails.append(("deg-drop", k, n, tt))

    # Linear shifts s = eps n: both counts track the inclusion-exclusion
    # reference values within (10 eps)^k n^(2k-1) resp. n^(2k-2).  The
    # eps = 1/100, k = 1 edge-count case is false as stated: there the
    # exact deviation is n(1 - 2 eps)/4, which exceeds the allowance
    # 10 eps n exactly when eps < 1/42.  Kept red by design.
    for k in (1, 2, 3):
        for eps in (Fraction(1, 100), Fraction(1, 20), Fraction(1, 10)):
            for n in range(100, 601, 100):
                tt = int(2 * eps * n)
                sh = Shift(tt)
                b2 = 2 * construct.parity_edge_count(n, k, sh)
                ref_b2 = core.binom_exact(n, 2 * k) - core.binom_exact(tt, 2 * k)
                if abs(Fraction(b2 - ref_b2, 2)) >= (10 * eps) ** k * n ** (2 * k - 1):
                    fails.append(("eps-count", k, str(eps), n))
                d2 = 2 * construct.parity_degree(n, k, sh, "large")
                ref_d2 = core.binom_exact(n - 1, 2 * k - 1) - core.binom_exact(
                    tt - 1, 2 * k - 1
                )
                if abs(Fraction(d2 - ref_d2, 2)) >= (10 * eps) ** k * n ** (2 * k - 2):
                    fails.append(("eps-deg", k, str(eps), n))

    # Difference lower bound, plus the cubic growth form at k = 2.
    for k in (1, 2, 3):
        prev = None
        for n in range(2 * k, 301):
            cur = krawtchouk.optimal_shift(n, k).max_edges
            if prev is not None:
                if 2 * (cur - prev) < core.binom_exact(n - 1, 2 * k - 1):
                    fails.append(("difference", k, n))
                if k == 2 and n >= 12 and 12 * (cur - prev) <= n ** 3 - 6 * n ** 2:
                    fails.append(("cubic-growth", n))
            prev = cur

    elapsed = time.monotonic() - t0
    record(
        5,
        "window/center/drop-off/linear-shift bounds and difference bound",
        not fails and elapsed < 300,
        f"{len(fails)} violations, first {fails[:8]}, elapsed={elapsed:.1f}s",
    )


def _valid_copy(h, parts, r):
    if len(parts) != r:
        return False
    seen = 0
    for p in parts:
        if p.bit_count() != h.k or p & seen:
            return False
        seen |= p
    edges = h.edge_set()
    return all(a | b in edges for a, b in combinations(parts, 2))


def _brute_has_copy(h, r):
    pool = list(core.enumerate_ksubsets(h.n, h.k))
    edges = h.edge_set()
    for parts in combinations(pool, r):
        seen = 0
        for p in parts:
            if p & seen:
                break
            seen |= p
        else:
            if all(a | b in edges for a, b in combinations(parts, 2)):
                return True
    return False


def test_criterion_06_freeness():
    t0 = time.monotonic()
    bad = []
    for n in range(4, 15):
        for tt in feasible_two_ts(n):
            h, _ = construct.build_parity(n, 2, Shift(tt))
            if freeness.find_expansion(h, 3) is not None:
                bad.append(("parity", n, tt))
    for p in (1, 2):
        r = 2 ** p + 1
        for n in range(2 ** p, 21, 2 ** p):
            if n < 4:
                continue
            h, _ = construct.build_sidorenko(n, 2, p)
            if freeness.find_expansion(h, r) is not None:
                bad.append(("xor", n, p))
    rng = random.Random(20260814)
    for trial in range(200):
        n = rng.randint(6, 10)
        edges = [m for m in core.enumerate_ksubsets(n, 4) if rng.random() < 0.35]
        h = core.hypergraph(n, 2, edges)
        r = rng.choice((2, 3))
        got = freeness.find_expansion(h, r)
        if (got is not None) != _brute_has_copy(h, r):
            bad.append(("soundness", trial, n, r))
        elif got is not None and not _valid_copy(h, got, r):
            bad.append(("witness", trial, n, r))
    elapsed = time.monotonic() - t0
    record(
        6,
        "constructions are expansion-free; clique reduction is sound",
        not bad and elapsed < 600,
        f"failures={bad[:5]} elapsed={elapsed:.1f}s",
    )


def test_criterion_07_coloring_algebra():
    t0 = time.monotonic()
    bad = []
    for p in range(1, 5):
        col = algebra.generate_gf2_coloring(p)
        if not algebra.verify_coloring(col).passed:
            bad.append(("verify", p))
        grp = algebra.build_group(col)
        s = 1 << p
        if grp.dimension != p or grp.order != s:
            bad.append(("dimension", p))
        if any(grp.table[a][b] != a ^ b for a in range(s) for b in range(s)):
            bad.append(("xor-table", p))

    # Exhaustive scan of all 3-colorings of K_4: exactly the 6 proper
    # 1-factorizations pass, and passing is equivalent to carrying the
    # group structure.
    passing = 0
    for assignment in product(range(3), repeat=6):
        col = algebra.EdgeColoring(4, 3, assignment)
        ok = algebra.verify_coloring(col).passed
        try:
            grp = algebra.build_group(col)
        except algebra.GroupError:
            grp = None
        if ok != (grp is not None):
            bad.append(("scan-mismatch", assignment))
        if ok:
            passing += 1
            if grp.order != 4 or grp.dimension != 2:
                bad.append(("scan-group", assignment))
    if passing != 6:
        bad.append(("scan-count", passing))

    facts = enumerate_one_factorizations(6)
    if len(facts) != 6:
        bad.append(("k6-count", len(facts)))
    for i, col in enumerate(facts):
        rep = algebra.verify_coloring(col)
        if rep.four_set_condition or not rep.every_color_perfect_matching:
            bad.append(("k6-verdict", i))
    elapsed = time.monotonic() - t0
    record(
        7,
        "GF(2) colorings verify and group; K4 scan exact; K6 factorizations fail",
        not bad and elapsed < 120,
        f"failures={bad[:5]} elapsed={elapsed:.1f}s",
    )


def _shadow_bound_table(n_items: int, k: int) -> list[float]:
    table = [0.0]
    for size in range(1, n_items + 1):
        table.append(_binom_float(shadow.lovasz_x(size, k), k - 1))
    return table


def test_criterion_08_shadow_bounds():
    t0 = time.monotonic()
    bad = []

    # Exhaustive over all 2^20 families of 3-subsets of a 6-point ground
    # set.  Shadow bitmasks are built incrementally (strip the lowest
    # item, OR in its pair shadow); the bound depends only on the family
    # size, so it is tabulated once through lovasz_x.
    items = list(core.enumerate_ksubsets(6, 3))
    pair_pos = {m: i for i, m in enumerate(core.enumerate_ksubsets(6, 2))}
    item_shadow = []
    for m in items:
        pm = 0
        for v in core.indices_of(m):
            pm |= 1 << pair_pos[m & ~(1 << v)]
        item_shadow.append(pm)
    bound = _shadow_bound_table(len(items), 3)
    masks = [0] * (1 << 20)
    for f in range(1, 1 << 20):
        low = f & -f
        masks[f] = masks[f ^ low] | item_shadow[low.bit_length() - 1]
    for f in range(1, 1 << 20):
        if masks[f].bit_count() < bound[f.bit_count()] - 1e-9:
            bad.append(("exhaustive", f))
    # tie the fast path to the library on a thin sample
    for f in range(1, 1 << 20, 65537):
        fam = core.set_family(6, 3, [items[i] for i in core.indices_of(f)])
        rep = shadow.check_lovasz_bound(fam)
        if not rep.holds or rep.shadow_size != masks[f].bit_count():
            bad.append(("sample", f))

    # 10^5 random families of 4-subsets of a 9-point ground set.
    items9 = list(core.enumerate_ksubsets(9, 4))
    triple_pos = {m: i for i, m in enumerate(core.enumerate_ksubsets(9, 3))}
    item_shadow9 = []
    for m in items9:
        pm = 0
        for v in core.indices_of(m):
            pm |= 1 << triple_pos[m & ~(1 << v)]
        item_shadow9.append(pm)
    bound9 = _shadow_bound_table(len(items9), 4)
    rng = random.Random(99)
    for trial in range(100_000):
        f = rng.getrandbits(126)
        sm = 0
        size = 0
        g = f
        while g:
            low = g & -g
            sm |= item_shadow9[low.bit_length() - 1]
            size += 1
            g ^= low
        if sm.bit_count() < bound9[size] - 1e-9:
            bad.append(("random", trial))

    # Tight on complete families, also when embedded in a larger ground set.
    for k in (2, 3, 4):
        for m in range(k, 10):
            fam = core.set_family(m + 2, k, list(core.enumerate_ksubsets(m, k)))
            rep = shadow.check_lovasz_bound(fam)
            want = core.binom_exact(m, k - 1)
            if not (
                rep.holds
                and abs(rep.x - m) < 1e-6
                and abs(rep.bound - want) < 1e-6
                and rep.shadow_size == want
            ):
                bad.append(("tight", k, m))
    elapsed = time.monotonic() - t0
    record(
        8,
        "shadow bound exhaustive on 20 items, random on 126, tight when complete",
        not bad and elapsed < 600,
        f"failures={bad[:5]} elapsed={elapsed:.1f}s",
    )


def test_criterion_09_exact_search():
    t0 = time.monotonic()
    bad = []
    r5 = search.exact_turan(5)
    if r5.value != 5:
        bad.append(("n5", r5.value))
    r6 = search.exact_turan(6)
    if r6.value != 10 or not r6.proof_of_optimality:
        bad.append(("n6", r6.value, r6.proof_of_optimality))
    for n in range(4, 9):
        res = search.exact_turan(n)
        best_parity = krawtchouk.optimal_shift(n, 2).max_edges
        if not res.proof_of_optimality or res.value < best_parity:
            bad.append(("dominates", n, res.value, best_parity))
        if any(search.exact_turan(n, seed=s).value != res.value for s in (0, 1, 2)):
            bad.append(("seeds", n))
    outs = []
    for threads in ("1", "4"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run_cli(["--threads", threads, "search", "exact", "--n", "7"])
        outs.append((code, buf.getvalue()))
    if outs[0] != outs[1] or outs[0][0] != 0:
        bad.append(("threads", outs))
    elapsed = time.monotonic() - t0
    record(
        9,
        "exact search: 5->5, 6->10 proven, dominates parity, seed/thread stable",
        not bad and elapsed < 600,
        f"failures={bad[:5]} elapsed={elapsed:.1f}s",
    )


def test_criterion_10_stability():
    t0 = time.monotonic()
    bad = []
    for k in (1, 2, 3):
        for n in range(2 * k, 21):
            for tt in feasible_two_ts(n):
                h, part = construct.build_parity(n, k, Shift(tt))
                if stability.classify_tuples(h, part).incorrect != 0:
                    bad.append(("census", k, n, tt))

    rep = krawtchouk.optimal_shift(12, 2)
    h, _ = construct.build_parity(12, 2, rep.maximizers[0])
    rng = random.Random(12)
    for trial in range(100):
        start = construct.Bipartition(12, tuple(rng.choice((1, 2)) for _ in range(12)))
        trace: list[int] = []
        got = stability.improve_partition(h, start, trace=trace)
        if any(b > a for a, b in zip(trace, trace[1:])):
            bad.append(("trace", trial, trace))
        if stability.improve_partition(h, got) != got:
            bad.append(("unstable", trial))

    for s in range(2, 6):
        for n in range(s, 61):
            g = stability.turan_graph(s, n)
            srep = stability.simonovits_partition(g, s)
            if srep.internal_edges != 0 or srep.hypothesis_failure is not None:
                bad.append(("simonovits", s, n))
    elapsed = time.monotonic() - t0
    record(
        10,
        "parity census clean; local search stabilizes; Turan graphs split exactly",
        not bad and elapsed < 300,
        f"failures={bad[:5]} elapsed={elapsed:.1f}s",
    )


def test_criterion_11_density_trend():
    t0 = time.monotonic()
    bad = []
    for p in (1, 2):
        r = 2 ** p + 1
        target = Fraction(r - 2, r - 1)
        prev_gap = None
        for n in (8, 16, 32, 64, 128):
            e = construct.sidorenko_edge_count(n, 2, p)
            gap = abs(Fraction(e, core.binom_exact(n, 4)) - target)
            if prev_gap is not None and gap > prev_gap:
                bad.append((p, n))
            prev_gap = gap
    elapsed = time.monotonic() - t0
    record(
        11,
        "XOR construction density gap shrinks under doubling (exact rationals)",
        not bad and elapsed < 120,
        f"failures={bad} elapsed={elapsed:.1f}s",
    )
