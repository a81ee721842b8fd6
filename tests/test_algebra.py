from itertools import combinations, product

import pytest

from turanhg import algebra as al


def perfect_matchings(elems: tuple[int, ...]):
    """All perfect matchings of an even-size tuple, as tuples of pairs."""
    if not elems:
        yield ()
        return
    a = elems[0]
    for i in range(1, len(elems)):
        rest = elems[1:i] + elems[i + 1 :]
        for tail in perfect_matchings(rest):
            yield ((a, elems[i]),) + tail


def enumerate_one_factorizations(s: int) -> list[al.EdgeColoring]:
    """All partitions of E(K_s) into perfect matchings, as colorings.

    Colors are numbered by the matching partner of vertex 0, ascending,
    which makes the enumeration order deterministic.  s must be even.
    """
    if s < 2 or s % 2:
        raise ValueError(f"K_{s} has no one-factorization")
    all_pairs = list(combinations(range(s), 2))
    factorizations: list[al.EdgeColoring] = []

    def grow(uncovered: frozenset[tuple[int, int]], chosen: list[tuple]):
        if not uncovered:
            ordered = sorted(chosen, key=lambda m: dict(m)[0])
            color_map = {}
            for col, matching in enumerate(ordered):
                for pair in matching:
                    color_map[pair] = col
            factorizations.append(al.EdgeColoring(
                s, s - 1, tuple(color_map[p] for p in all_pairs)
            ))
            return
        pivot = min(uncovered)
        rest = tuple(v for v in range(s) if v not in pivot)
        for tail in perfect_matchings(rest):
            matching = (pivot,) + tail
            if all(pair in uncovered for pair in matching):
                grow(uncovered - set(matching), chosen + [matching])

    grow(frozenset(all_pairs), [])
    return factorizations


def _reference_build_group(c: al.EdgeColoring) -> al.ColorGroup:
    """build_group with every check made exhaustively.

    The sum of distinct colors is read through the matching partners of
    every base vertex, and agreement over all base vertices,
    associativity over all triples and |group| = 2^dimension are each
    checked, failures naming the violating vertices or triple.
    """
    report = al.verify_coloring(c)
    if not report.passed:
        raise al.GroupError(f"coloring fails verification: {report.detail}")
    s = c.s
    if s < 2:
        raise al.GroupError("need at least one color to build a group")

    partner = [[-1] * s for _ in range(c.color_count)]
    for i, j in combinations(range(s), 2):
        col = c.color_of(i, j)
        partner[col][i] = j
        partner[col][j] = i

    base_sum: list[list[int]] = [[-1] * c.color_count for _ in range(c.color_count)]
    for x in range(s):
        for ci in range(c.color_count):
            yi = partner[ci][x]
            for cj in range(ci + 1, c.color_count):
                yj = partner[cj][x]
                val = c.color_of(yi, yj)
                if base_sum[ci][cj] == -1:
                    base_sum[ci][cj] = val
                elif base_sum[ci][cj] != val:
                    raise al.GroupError(
                        f"colors {ci}+{cj} disagree between base vertices: "
                        f"got {val} at vertex {x}, {base_sum[ci][cj]} earlier"
                    )

    table = [[0] * s for _ in range(s)]
    for a in range(s):
        table[0][a] = table[a][0] = a
        table[a][a] = 0
    for ci in range(c.color_count):
        for cj in range(ci + 1, c.color_count):
            val = base_sum[ci][cj] + 1
            table[ci + 1][cj + 1] = table[cj + 1][ci + 1] = val

    for a in range(s):
        for b in range(s):
            ab = table[a][b]
            for d in range(s):
                if table[ab][d] != table[a][table[b][d]]:
                    raise al.GroupError(f"associativity fails on triple ({a}, {b}, {d})")

    if s & (s - 1):
        raise al.GroupError(f"group order {s} is not a power of 2")
    return al.ColorGroup(s, s.bit_length() - 1, tuple(tuple(row) for row in table))


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
    assert len(enumerate_one_factorizations(2)) == 1
    assert len(enumerate_one_factorizations(4)) == 1
    assert len(enumerate_one_factorizations(6)) == 6
    with pytest.raises(ValueError):
        enumerate_one_factorizations(5)


def test_k4_factorization_is_gf2():
    f4 = enumerate_one_factorizations(4)
    assert f4[0] == al.generate_gf2_coloring(2)


def test_k6_factorizations_fail_four_set_condition():
    for c in enumerate_one_factorizations(6):
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


def _check_against_reference(c: al.EdgeColoring) -> bool:
    """Whether c passes verification; if so, build_group agrees with the
    exhaustive reference, which raises nothing, and order = 2^dimension."""
    if not al.verify_coloring(c).passed:
        for build in (al.build_group, _reference_build_group):
            with pytest.raises(al.GroupError, match="fails verification"):
                build(c)
        return False
    g = al.build_group(c)
    assert g == _reference_build_group(c)
    assert g.order == 2**g.dimension == c.s
    return True


def test_build_group_matches_exhaustive_reference():
    # every check the reference makes after verification holds, on the
    # GF(2)^p colorings, all 3^6 colorings of K_4 and all one-factorizations
    # of K_8, of which exactly 30 pass
    for p in range(1, 6):
        assert _check_against_reference(al.generate_gf2_coloring(p))
    k4 = [al.EdgeColoring(4, 3, a) for a in product(range(3), repeat=6)]
    assert sum(map(_check_against_reference, k4)) == 6
    k8 = enumerate_one_factorizations(8)
    assert len(k8) == 6240
    assert sum(map(_check_against_reference, k8)) == 30


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
    cols = [c for c in enumerate_one_factorizations(6)]
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
