from itertools import combinations, product

import pytest

from turanhg import algebra as al


def test_gf2_colorings_verify():
    for p in (1, 2, 3, 4):
        c = al.generate_gf2_coloring(p)
        assert c.s == 2**p and c.color_count == 2**p - 1
        rep = al.verify_coloring(c)
        assert rep.passed
        assert rep.first_violation is None


def test_gf2_group_is_xor_table():
    for p in (1, 2, 3, 4):
        g = al.build_group(al.generate_gf2_coloring(p))
        assert g.order == 2**p
        assert g.dimension == p
        # element x stands for color x-1 = (u^v)-1, so the table is XOR
        for a in range(g.order):
            for b in range(g.order):
                assert g.table[a][b] == a ^ b
                assert g.add(a, b) == a ^ b


def test_group_axioms_generic():
    g = al.build_group(al.generate_gf2_coloring(3))
    for a in range(g.order):
        assert g.add(a, 0) == a
        assert g.add(a, a) == 0
        for b in range(g.order):
            assert g.add(a, b) == g.add(b, a)


def test_k4_exhaustive_scan():
    # all 3^6 assignments of 3 colors to the edges of K_4
    pairs = list(combinations(range(4), 2))
    passing = []
    for assignment in product(range(3), repeat=6):
        c = al.EdgeColoring(4, 3, assignment)
        rep = al.verify_coloring(c)
        if rep.passed:
            passing.append(c)
            al.build_group(c)  # must succeed on every passing coloring
        else:
            with pytest.raises(al.GroupError):
                al.build_group(c)
    # the unique 1-factorization of K_4 under the 3! color labelings
    assert len(passing) == 6


def test_one_factorization_counts():
    assert len(al.enumerate_one_factorizations(2)) == 1
    assert len(al.enumerate_one_factorizations(4)) == 1
    assert len(al.enumerate_one_factorizations(6)) == 6
    with pytest.raises(ValueError):
        al.enumerate_one_factorizations(5)


def test_k4_factorization_is_gf2():
    f4 = al.enumerate_one_factorizations(4)
    assert f4[0] == al.generate_gf2_coloring(2)


def test_k6_factorizations_fail_four_set_condition():
    for c in al.enumerate_one_factorizations(6):
        rep = al.verify_coloring(c)
        assert rep.is_full_coloring
        assert rep.every_color_perfect_matching
        assert not rep.four_set_condition
        assert rep.first_violation is not None
        i, j, k, l = rep.first_violation
        spanned = {
            c.color_of(a, b) for a, b in combinations((i, j, k, l), 2)
        }
        assert len(spanned) not in (3, 6)
        with pytest.raises(al.GroupError):
            al.build_group(c)


def test_verify_rejects_wrong_color_count():
    # 2 colors on K_4 cannot be a (s-1)-coloring
    c = al.EdgeColoring(4, 2, (0, 1, 1, 1, 1, 0))
    rep = al.verify_coloring(c)
    assert not rep.passed
    assert not rep.is_full_coloring


def test_verify_rejects_non_matching_color():
    # color 0 touches vertex 0 twice
    c = al.EdgeColoring(4, 3, (0, 0, 1, 1, 2, 2))
    rep = al.verify_coloring(c)
    assert not rep.every_color_perfect_matching
    assert not rep.passed


def test_four_set_first_violation_is_lexicographic():
    cols = [c for c in al.enumerate_one_factorizations(6)]
    viols = {c: al.verify_coloring(c).first_violation for c in cols}
    for c, v in viols.items():
        # no 4-set lexicographically before v may violate
        for quad in combinations(range(6), 4):
            if quad == v:
                break
            spanned = {c.color_of(a, b) for a, b in combinations(quad, 2)}
            assert len(spanned) in (3, 6)


def test_coloring_s2_degenerate():
    c = al.generate_gf2_coloring(1)
    assert c.s == 2 and c.color_count == 1
    assert al.verify_coloring(c).passed
    g = al.build_group(c)
    assert g.order == 2 and g.table == ((0, 1), (1, 0))


def test_edge_coloring_from_callable():
    c = al.edge_coloring(4, 3, lambda i, j: (i ^ j) - 1)
    assert c == al.generate_gf2_coloring(2)


def test_coloring_io_round_trip():
    for p in (1, 2, 3):
        c = al.generate_gf2_coloring(p)
        assert al.read_coloring(al.write_coloring(c)) == c


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("turan-col v2\ns=4 colors=3\n", "header"),
        ("turan-col v1\ns=4\n", "colors"),
        ("turan-col v1\ns=4 colors=3\nc 0 1 3\n", "out of range"),
        ("turan-col v1\ns=4 colors=3\nc 0 4 1\n", "not an edge"),
        (
            "turan-col v1\ns=4 colors=3\n"
            "c 0 1 0\nc 0 2 1\nc 0 3 2\nc 1 2 2\nc 1 3 1\n",
            "no color",
        ),
        (
            "turan-col v1\ns=4 colors=3\nc 0 1 0\nc 0 1 1\n",
            "colored twice",
        ),
        (
            "turan-col v1\ns=4 colors=3\nc 0 1 0\nc 1 0 1\n",
            "colored twice",  # pair order is normalized before the check
        ),
        ("turan-col v1\ns=4 colors=3\nc 0 1 0\ng 0 2 1\n", "expected a `c` line"),
        ("turan-col v1\ns=4 colors=3\nc 0 1\n", "expected 3 integers after `c`, got 2"),
        ("turan-col v1\ns=4 colors=3\n\n# row\nc 0 1 red\n", "must be integers"),
        # 5 * 10^9 pairs: only the first gap is searched for, never all of them
        ("turan-col v1\ns=100000 colors=3\nc 0 1 0\n", "pair (0, 2) has no color"),
    ],
)
def test_read_coloring_errors(text, fragment):
    with pytest.raises(al.FormatError) as exc:
        al.read_coloring(text)
    assert fragment in str(exc.value)
    # every text ends on the line the reader rejects, save a bad magic line
    # and a missing pair, which no line carries
    if "no color" in fragment:
        assert exc.value.line is None
    else:
        assert exc.value.line == (1 if fragment == "header" else text.count("\n"))


def test_read_coloring_accepts_reversed_pairs():
    text = al.write_coloring(al.generate_gf2_coloring(2))
    swapped = []
    for line in text.splitlines():
        if line.startswith("c "):
            _, i, j, col = line.split()
            swapped.append(f"c {j} {i} {col}")
        else:
            swapped.append(line)
    c = al.read_coloring("\n".join(swapped) + "\n")
    assert c == al.generate_gf2_coloring(2)


def test_color_of_validates():
    c = al.generate_gf2_coloring(2)
    assert c.color_of(2, 1) == c.color_of(1, 2)  # order-insensitive
    with pytest.raises(ValueError):
        c.color_of(1, 1)
    with pytest.raises(ValueError):
        c.color_of(0, 9)
