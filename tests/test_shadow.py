import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from turanhg import core, shadow as sh
from turanhg.core import binom_exact, enumerate_ksubsets, mask_of, set_family

from test_core import _fuzz_against_the_line_reader, _row_writer


def _binom_float(x, k):
    """C(x, k) = x(x-1)...(x-k+1) / k! as a float product."""
    out = 1.0
    for i in range(k):
        out *= (x - i) / (i + 1)
    return out


def _holds_fraction(size, shadow_size, k):
    """shadow_size >= C(q, k-1) at the rational q = k size / shadow_size + k - 1,
    in Fractions: the rational route to _holds's verdict."""
    if not size:
        return True
    q = Fraction(k * size, shadow_size) + k - 1
    bound = Fraction(1)
    for i in range(k - 1):
        bound = bound * (q - i) / (i + 1)
    return bound <= shadow_size


def brute_shadow(fam):
    out = set()
    for m in fam.members:
        for sub in combinations(sorted(i for i in range(fam.m) if m >> i & 1), fam.k - 1):
            out.add(mask_of(sub))
    return out


@given(
    st.integers(1, 5).flatmap(
        lambda k: st.builds(
            lambda ms: set_family(8, k, ms),
            st.sets(st.sampled_from(list(enumerate_ksubsets(8, k))), max_size=30),
        )
    )
)
def test_shadow_matches_brute_force(fam):
    got = sh.shadow_of(fam)
    assert got.m == fam.m and got.k == fam.k - 1
    assert set(got.members) == brute_shadow(fam)


def test_shadow_requires_positive_k():
    with pytest.raises(ValueError):
        sh.shadow_of(set_family(4, 0, [0]))


def test_lovasz_x_integer_sizes():
    for k in (1, 2, 3, 4):
        for x in range(k, 15):
            got = sh.lovasz_x(binom_exact(x, k), k)
            assert got == pytest.approx(x, abs=1e-9)


def test_lovasz_x_frozen():
    # C(x,2) = 7  =>  x = (1+sqrt(57))/2
    assert sh.lovasz_x(7, 2) == pytest.approx((1 + math.sqrt(57)) / 2, abs=1e-9)
    assert sh.lovasz_x(2, 3) == pytest.approx(3.4348, abs=1e-3)
    assert sh.lovasz_x(0, 3) == 3 - 1  # empty family convention


def test_lovasz_x_terminates_above_float_resolution():
    # from x = 8192 on, adjacent floats lie more than 1e-12 apart
    assert sh.lovasz_x(20000, 1) == 20000.0
    size = binom_exact(100_000, 2) + 17
    x = sh.lovasz_x(size, 2)
    assert 100_000 < x < 100_001
    assert _binom_float(x, 2) == pytest.approx(size, rel=1e-12)


def test_lovasz_x_round_trip():
    for k in (2, 3, 4):
        for size in range(0, 200, 7):
            x = sh.lovasz_x(size, k)
            assert _binom_float(x, k) == pytest.approx(size, abs=1e-6)


def test_bound_tight_on_complete_families():
    for m in range(2, 9):
        for k in range(1, m + 1):
            fam = set_family(m, k, list(enumerate_ksubsets(m, k)))
            rep = sh.check_lovasz_bound(fam)
            assert rep.holds
            assert rep.x == pytest.approx(m, abs=1e-9)
            assert rep.shadow_size == binom_exact(m, k - 1)
            assert rep.bound == pytest.approx(rep.shadow_size, abs=1e-6)


def test_bound_tight_on_subground_prefixes():
    # all k-subsets of the first j elements: shadow equals the bound exactly
    for j in range(3, 7):
        fam = set_family(8, 3, list(enumerate_ksubsets(j, 3)))
        rep = sh.check_lovasz_bound(fam)
        assert rep.holds
        assert rep.shadow_size == binom_exact(j, 2)
        assert rep.bound == pytest.approx(rep.shadow_size, abs=1e-6)


def test_bound_holds_exhaustive_tiny():
    # every family in [5]^(3)
    pool = list(enumerate_ksubsets(5, 3))
    for bits in range(1 << len(pool)):
        fam = set_family(5, 3, [pool[i] for i in range(len(pool)) if bits >> i & 1])
        assert sh.check_lovasz_bound(fam).holds


def test_bound_holds_random_families():
    rng = random.Random(3)
    pool = list(enumerate_ksubsets(9, 4))
    for _ in range(300):
        fam = set_family(9, 4, rng.sample(pool, rng.randrange(len(pool))))
        rep = sh.check_lovasz_bound(fam)
        assert rep.holds
        assert rep.shadow_size >= rep.bound - 1e-9


def test_holds_is_exact_at_large_counts():
    # C(x, k) k-sets are far too many to list: the tight shadow meets the
    # bound, and one (k-1)-set fewer does not
    for k in (2, 3, 4, 5):
        for x in (10**5, 10**6, 3 * 10**6, 10**7):
            size, tight = binom_exact(x, k), binom_exact(x, k - 1)
            assert sh._holds(size, tight, k), (k, x)
            assert not sh._holds(size, tight - 1, k), (k, x)
            for shadow_size in (tight - 1, tight, tight + 1):
                want = _holds_fraction(size, shadow_size, k)
                assert sh._holds(size, shadow_size, k) == want, (k, x, shadow_size)


@pytest.mark.parametrize("k", range(1, 7))
def test_holds_matches_the_fraction_route(k):
    # every shadow size from 1 up to two past the smallest one that meets
    # the bound
    for size in range(301):
        tight = None
        shadow_size = 1
        while tight is None or shadow_size <= tight + 2:
            want = _holds_fraction(size, shadow_size, k)
            assert sh._holds(size, shadow_size, k) == want, (size, shadow_size)
            if want and tight is None:
                tight = shadow_size
            shadow_size += 1


@pytest.mark.parametrize("k", [1030, 2000])
def test_single_large_set_report_is_finite(k):
    # C(x, k) = 1 at x = k, but a running product through C(x, 1), C(x, 2), ...
    # passes C(k, k/2), beyond the largest float from k = 1,030 on
    rep = sh.check_lovasz_bound(core.SetFamily(k, k, (mask_of(range(k)),)))
    assert rep.x == pytest.approx(k, abs=1e-9)
    assert math.isfinite(rep.bound)
    assert rep.bound == pytest.approx(k, abs=1e-6)
    assert rep.shadow_size == k
    assert rep.holds


def test_holds_matches_float_bound_at_small_counts():
    # at these sizes the float bound is far from every shadow size except
    # at integer x, where it is within 1e-9 of the tight shadow size
    for k in (1, 2, 3, 4):
        for size in range(1, 80):
            bound = _binom_float(sh.lovasz_x(size, k), k - 1)
            for shadow_size in range(1, 80):
                want = shadow_size >= bound - 1e-9
                assert sh._holds(size, shadow_size, k) == want, (k, size, shadow_size)
    assert sh._holds(0, 0, 3)


def test_empty_family_report():
    rep = sh.check_lovasz_bound(set_family(6, 3, []))
    assert rep.size == 0 and rep.shadow_size == 0
    assert rep.bound == 0.0
    assert rep.holds


def test_family_io_errors():
    with pytest.raises(sh.FormatError):
        sh.read_family("turan-fam v2\nm=4 k=2\n")
    with pytest.raises(sh.FormatError) as exc:
        sh.read_family("turan-fam v1\nm=4 k=2\ns 0 1\ns 0 1\n")
    assert exc.value.line == 4
    for text, lineno, fragment in (
        ("turan-fam v1\nm=4 k=2\ns 0 1 2\n", 3, "member has 3 vertices, expected 2"),
        ("turan-fam v1\nm=4 k=2\ns 0 1\ne 0 2\n", 4, "expected a `s` line, got `e`"),
        ("turan-fam v1\nm=4 k=2\n# row\ns 0 x\n", 4, "must be integers"),
        ("turan-fam v1\nm=4 k=2\ns 2 1\n", 3, "increasing"),
        ("turan-fam v1\nm=4 k=2\n\ns 0 4\n", 4, "out of range"),
    ):
        with pytest.raises(sh.FormatError) as exc:
            sh.read_family(text)
        assert exc.value.line == lineno
        assert fragment in str(exc.value)


def test_family_io_k0():
    fam = set_family(5, 0, [0])
    text = sh.write_family(fam)
    assert sh.read_family(text) == fam


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("m", [0, 1, 2, 3, 63, 64, 65, 130])
def test_block_writer_matches_the_row_writer(m, k):
    rng = random.Random(10 * m + k)
    for count in (0, 1, 7, 300):
        members = {mask_of(rng.sample(range(m), k)) for _ in range(count if m >= k else 0)}
        fam = set_family(m, k, members)
        assert sh.write_family(fam) == _row_writer(sh._FAM_MAGIC, f"m={m} k={k}", "s", fam.members)
    assert sh.write_family(set_family(m, 0, [0])) == f"turan-fam v1\nm={m} k=0\ns\n"


@pytest.mark.parametrize("rows", [1023, 1024, 1025])
def test_io_round_trip_across_a_block_boundary(rows):
    fam = set_family(20, 3, sorted(enumerate_ksubsets(20, 3))[:rows])
    text = sh.write_family(fam)
    assert text == _row_writer(sh._FAM_MAGIC, "m=20 k=3", "s", fam.members)
    assert core._read_written(text, sh._FAM_MAGIC, ("m", "k"), "s", 1) == (20, 3, fam.members)
    assert sh.read_family(text) == fam


@pytest.mark.parametrize(
    "m, k, count", [(20, 3, 1100), (9, 1, 9), (12, 4, 200), (70, 2, 1500), (5, 0, 1), (3, 3, 1)]
)
def test_block_reader_agrees_with_the_line_reader(monkeypatch, m, k, count):
    rng = random.Random(100 * m + k)
    members: set[int] = set()
    while len(members) < count:
        members.add(mask_of(rng.sample(range(m), k)))
    fam = set_family(m, k, members)
    text = sh.write_family(fam)
    assert core._read_written(text, sh._FAM_MAGIC, ("m", "k"), "s", 1) == (m, k, fam.members)
    for _ in range(3):
        _fuzz_against_the_line_reader(monkeypatch, sh, sh.read_family, text, "e", rng)
