import random
import time
from dataclasses import astuple
from fractions import Fraction
from itertools import combinations

import pytest

from turanhg import core, stability as stb
from turanhg.cli import run_cli
from turanhg.construct import build_parity
from turanhg.core import binom_exact, enumerate_ksubsets, hypergraph, mask_of, write_hypergraph
from turanhg.krawtchouk import Shift, optimal_shift

from test_core import _brute_incidence_rows, _count_transposes


def test_simple_graph_validation():
    g = stb.simple_graph(4, [(0, 1), (1, 2)])
    assert g.edge_count == 2
    assert g.degree(1) == 2
    assert list(g.edges()) == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        stb.simple_graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        stb.simple_graph(3, [(0, 5)])
    with pytest.raises(ValueError):
        stb.SimpleGraph(3, (0b010, 0, 0))  # asymmetric adjacency
    with pytest.raises(ValueError, match="row 0 mentions vertices >= 2"):
        stb.SimpleGraph(2, (0b110, 0b001))


def first_adjacency_error(n, adj):
    """The message of the first defect a row-by-row, edge-by-edge scan meets."""
    for v, row in enumerate(adj):
        if row >> n:
            return f"row {v} mentions vertices >= {n}"
        if row >> v & 1:
            return f"self loop at {v}"
        for u in range(n):
            if row >> u & 1 and not adj[u] >> v & 1:
                return f"edge ({v}, {u}) is not symmetric"
    return None


def transposes_and_matches_edge_scan(n, density, monkeypatch):
    """Check 20 random graphs with a few one-way edges, self loops and
    stray high bits against the edge scan; the number of SimpleGraph
    checks, simple_graph's included, that took the transpose."""
    transposed = []

    def spy(words, n):
        transposed.append(n)
        return core._transpose(words, n)

    monkeypatch.setattr(stb, "_transpose", spy)
    rng = random.Random(n)
    for trial in range(20):
        g = stb.simple_graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])
        adj = list(g.adj)
        for _ in range(trial % 4):
            v, u = rng.randrange(n), rng.randrange(n + 2)
            adj[v] ^= 1 << u
        want = first_adjacency_error(n, adj)
        if want is None:
            assert stb.SimpleGraph(n, tuple(adj)).adj == tuple(adj)
        else:
            with pytest.raises(ValueError) as err:
                stb.SimpleGraph(n, tuple(adj))
            assert str(err.value) == want
    return len(transposed)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 63, 64, 65, 130])
def test_simple_graph_symmetry_check_matches_edge_scan(n, monkeypatch):
    transposed = transposes_and_matches_edge_scan(n, 0.3, monkeypatch)
    if n >= 7:  # smaller graphs may hold too few edges to be dense
        assert transposed == 40


@pytest.mark.parametrize("n", [64, 65, 130, 300])
def test_sparse_simple_graph_check_matches_edge_scan(n, monkeypatch):
    # about one edge per eight vertices: checked edge by edge
    assert transposes_and_matches_edge_scan(n, 0.25 / n, monkeypatch) == 0


def test_simple_graph_check_on_an_empty_graph_is_fast():
    # a transpose of 16,384 empty rows took 0.84 s; the edge scan has no edge
    start = time.perf_counter()
    g = stb.SimpleGraph(stb.MAX_GRAPH_ORDER, (0,) * stb.MAX_GRAPH_ORDER)
    assert time.perf_counter() - start < 0.1
    assert g.edge_count == 0


def turan_graph_count(s, n):
    """Edge count of the balanced complete s-partite graph on n vertices."""
    sizes = [n // s + (1 if i < n % s else 0) for i in range(s)]
    return binom_exact(n, 2) - sum(binom_exact(size, 2) for size in sizes)


def test_turan_graph_counts():
    assert turan_graph_count(2, 4) == 4
    assert turan_graph_count(3, 7) == 16  # parts 3,2,2
    for s in range(1, 6):
        for n in range(0, 31):
            g = stb.turan_graph(s, n)
            assert g.edge_count == turan_graph_count(s, n)
            sizes = sorted(n // s + (1 if i < n % s else 0) for i in range(s))
            assert max(sizes) - min(sizes) <= 1


def test_turan_count_quadratic_bounds():
    # (s-1)/s * N^2/2 - s < t_s(N) <= (s-1)/s * N^2/2
    for s in range(1, 9):
        for n in range(0, 201):
            t = stb.turan_graph(s, n).edge_count
            upper = Fraction((s - 1) * n * n, 2 * s)
            assert t <= upper
            assert t > upper - s


def brute_census(h, part):
    mask1 = part.mask(1)
    edges = h.edge_set()
    ge = be = gn = bn = 0
    for m in enumerate_ksubsets(h.n, 2 * h.k):
        good = (m & mask1).bit_count() % 2 == 1
        if m in edges:
            if good:
                ge += 1
            else:
                be += 1
        elif good:
            gn += 1
        else:
            bn += 1
    return stb.TupleCensus(ge, be, gn, bn)


def test_classify_tuples_matches_brute_force():
    rng = random.Random(23)
    for k in (1, 2, 3):
        for n in range(0, 10):
            pool = list(enumerate_ksubsets(n, 2 * k))
            parts = [(1,) * n, (2,) * n]
            parts += [tuple(rng.choice((1, 2)) for _ in range(n)) for _ in range(4)]
            for part_of in parts:
                h = hypergraph(n, k, [m for m in pool if rng.random() < 0.4])
                part = stb.Bipartition(n, part_of)
                got = stb.classify_tuples(h, part)
                want = brute_census(h, part)
                assert got == want
                total = (
                    got.good_edges + got.bad_edges + got.good_non_edges + got.bad_non_edges
                )
                assert total == binom_exact(n, 2 * k)
                assert got.good_edges + got.bad_edges == h.edge_count
                assert stb.bad_edge_count(h, part) == got.bad_edges


def _walk_bad_edges(h, mask1):
    """Bad edges counted by a walk over the edges, independent of the incidence rows."""
    return sum(1 for e in h.edges if not (e & mask1).bit_count() & 1)


@pytest.mark.parametrize("n", [0, 1, 4, 9, 16, 33, 63, 64, 65, 70])
def test_bad_edge_count_matches_edge_walk(n):
    rng = random.Random(700 + n)
    for k in (1, 2, 3):
        graphs = [hypergraph(n, k, [])]
        for size in (1, 9, 150) if 2 * k <= n else ():
            edges = [mask_of(rng.sample(range(n), 2 * k)) for _ in range(size)]
            graphs.append(hypergraph(n, k, edges))
        for h in graphs:
            for part in _starts(rng, n, 3):
                bad = stb.bad_edge_count(h, part)
                assert bad == _walk_bad_edges(h, part.mask(1))
                census = stb.classify_tuples(h, part)
                assert census.bad_edges == bad
                assert census.good_edges + census.bad_edges == h.edge_count
                assert sum(astuple(census)) == binom_exact(n, 2 * k)


def test_census_rejects_a_partition_of_another_size():
    h = hypergraph(4, 1, [0b11, 0b1100])
    for n in (3, 6):
        part = stb.Bipartition(n, (1,) * (n - 1) + (2,))
        for count in (stb.bad_edge_count, stb.classify_tuples):
            with pytest.raises(ValueError, match="partition is over"):
                count(h, part)


def test_classify_tuples_on_construction():
    h, part = build_parity(10, 2, Shift(2))
    census = stb.classify_tuples(h, part)
    assert census.incorrect == 0
    assert census.bad_edges == 0 and census.good_non_edges == 0
    # moving one vertex across breaks it
    moved = list(part.part_of)
    moved[0] = 3 - moved[0]
    census2 = stb.classify_tuples(h, stb.Bipartition(10, tuple(moved)))
    assert census2.incorrect > 0


def test_classify_tuples_has_no_cap(tmp_path, capsys):
    # force is accepted and has no effect; n = 26 needs neither it nor --force
    h, part = build_parity(26, 2, Shift(0))
    assert stb.classify_tuples(h, part).incorrect == 0
    assert stb.classify_tuples(h, part, force=True).incorrect == 0
    hf = tmp_path / "h.txt"
    hf.write_text(write_hypergraph(h))
    pf = tmp_path / "p.txt"
    pf.write_text(stb.write_bipartition(part))
    code = run_cli(["stability", "census", "--file", str(hf), "--partition", str(pf)])
    out = capsys.readouterr().out
    assert code == 0
    assert "bad_edges 0\ngood_non_edges 0\n" in out


def test_classify_tuples_empty_hypergraph():
    h = hypergraph(6, 2, [])
    part = stb.Bipartition(6, (1, 1, 1, 2, 2, 2))
    census = stb.classify_tuples(h, part)
    assert census.good_edges == 0 and census.bad_edges == 0
    assert census.good_non_edges + census.bad_non_edges == binom_exact(6, 4)


class _CheckedTrace(list):
    """A trace that fails at once on a negative bad-edge count.

    Every move lowers the count, so a search whose counts drift from the
    edges would otherwise move forever instead of failing.
    """

    def append(self, bad):
        assert bad >= 0, f"bad-edge count {bad} after {len(self)} entries"
        super().append(bad)


def vertex_stable(h, part):
    mask1 = part.mask(1)
    for v in range(h.n):
        good = bad = 0
        for e in h.edges:
            if not e >> v & 1:
                continue
            if (e & mask1).bit_count() % 2 == 1:
                good += 1
            else:
                bad += 1
        if bad > good:
            return False
    return True


def test_improve_partition_fixed_point():
    h, part = build_parity(8, 2, Shift(2))
    trace = _CheckedTrace()
    out = stb.improve_partition(h, part, trace=trace)
    assert out == part
    assert trace == [0]


def test_improve_partition_single_swap_start():
    h, part = build_parity(8, 2, Shift(2))
    moved = list(part.part_of)
    moved[3] = 3 - moved[3]
    start = stb.Bipartition(8, tuple(moved))
    trace = _CheckedTrace()
    out = stb.improve_partition(h, start, trace=trace)
    assert vertex_stable(h, out)
    assert trace[-1] <= trace[0]
    assert all(b < a for a, b in zip(trace, trace[1:]))


def test_improve_partition_random_starts():
    h, _ = build_parity(10, 2, Shift(2))
    rng = random.Random(9)
    for _ in range(30):
        start = stb.Bipartition(10, tuple(rng.choice((1, 2)) for _ in range(10)))
        trace = _CheckedTrace()
        out = stb.improve_partition(h, start, trace=trace)
        assert vertex_stable(h, out)
        assert all(b < a for a, b in zip(trace, trace[1:]))
        # a second pass finds nothing to move
        trace2 = _CheckedTrace()
        again = stb.improve_partition(h, out, trace=trace2)
        assert again == out and len(trace2) == 1


def test_improve_partition_empty_hypergraph():
    h = hypergraph(5, 2, [])
    start = stb.Bipartition(5, (1, 2, 1, 2, 1))
    assert stb.improve_partition(h, start) == start


def _reference_improve_partition(h, start, *, trace=None):
    """The local search as an edge-by-edge walk over each vertex's edges."""
    incident = [[] for _ in range(h.n)]
    for e in h.edges:
        rest = e
        while rest:
            low = rest & -rest
            incident[low.bit_length() - 1].append(e)
            rest ^= low
    mask1 = start.mask(1)
    total_bad = _walk_bad_edges(h, mask1)
    if trace is not None:
        trace.append(total_bad)
    moved = True
    while moved:
        moved = False
        for v in range(h.n):
            good = bad = 0
            for e in incident[v]:
                if (e & mask1).bit_count() & 1:
                    good += 1
                else:
                    bad += 1
            if bad > good:
                mask1 ^= 1 << v
                total_bad = total_bad - bad + good
                if trace is not None:
                    trace.append(total_bad)
                moved = True
                break
    return stb.Bipartition(h.n, tuple(1 if mask1 >> v & 1 else 2 for v in range(h.n)))


def perturbed_parity(rng, n, k, flip_share=0.05):
    """Parity edges on a random optimal bipartition with a share of all tuples flipped.

    This is how the repair benchmark builds its inputs.
    """
    n1 = optimal_shift(n, k).maximizers[0].part_sizes(n)[0]
    part1 = mask_of(rng.sample(range(n), n1))
    tuples = list(enumerate_ksubsets(n, 2 * k))
    edges = {m for m in tuples if (m & part1).bit_count() & 1}
    edges.symmetric_difference_update(rng.sample(tuples, round(flip_share * len(tuples))))
    return hypergraph(n, k, edges)


def _starts(rng, n, randoms):
    yield stb.Bipartition(n, (1,) * n)
    yield stb.Bipartition(n, (2,) * n)
    for _ in range(randoms):
        yield stb.Bipartition(n, tuple(rng.choice((1, 2)) for _ in range(n)))


def _assert_matches_reference(h, start):
    got_trace, want_trace = _CheckedTrace(), []
    got = stb.improve_partition(h, start, trace=got_trace)
    want = _reference_improve_partition(h, start, trace=want_trace)
    assert (got_trace, got) == (want_trace, want)
    assert all(b < a for a, b in zip(got_trace, got_trace[1:]))
    assert got == stb.improve_partition(h, start)  # the trace list changes nothing


@pytest.mark.parametrize("k", [1, 2, 3])
def test_improve_partition_matches_reference_on_random_inputs(k):
    rng = random.Random(1000 + k)
    for n in range(0, 15):
        tuples = list(enumerate_ksubsets(n, 2 * k))
        for density in (0, 0.1, 0.3, 0.6):
            h = hypergraph(n, k, [m for m in tuples if rng.random() < density])
            for start in _starts(rng, n, 2):
                _assert_matches_reference(h, start)


@pytest.mark.parametrize("n", [8, 11, 16, 20, 24])
def test_improve_partition_matches_reference_on_perturbed_parity(n):
    rng = random.Random(n)
    h = perturbed_parity(rng, n, 2)
    for start in _starts(rng, n, 4):
        _assert_matches_reference(h, start)


def test_a_repair_job_transposes_once(monkeypatch):
    # eight starts, a census of each result and the degrees: 17 transposes
    # if every call took its own, one when the rows are kept with h
    calls = _count_transposes(monkeypatch)
    rng = random.Random(32)
    h = perturbed_parity(rng, 16, 2)
    rows = _brute_incidence_rows(h)
    for start in _starts(rng, 16, 6):
        trace = []
        part = stb.improve_partition(h, start, trace=trace)
        assert stb.classify_tuples(h, part) == brute_census(h, part)
        assert stb.bad_edge_count(h, part) == trace[-1]
    assert core.vertex_degrees(h) == [row.bit_count() for row in rows]
    assert core.incidence_rows(h) == rows
    assert calls == [16]


def test_simonovits_turan_graphs():
    for s in range(2, 6):
        for n in (s, s + 1, 2 * s, 17, 24):
            rep = stb.simonovits_partition(stb.turan_graph(s, n), s)
            assert rep.internal_edges == 0
            assert rep.hypothesis_failure is None
            assert sorted(v for p in rep.parts for v in p) == list(range(n))


def test_simonovits_rejects_large_clique():
    with pytest.raises(ValueError):
        stb.simonovits_partition(stb.turan_graph(4, 8), 3)
    with pytest.raises(ValueError):
        stb.simonovits_partition(stb.turan_graph(2, 2), 1)  # s < 2


def test_simonovits_c5():
    g = stb.simple_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    rep = stb.simonovits_partition(g, 2)
    assert rep.internal_edges == 1  # optimum over all bipartitions
    best = min(
        sum(
            1
            for i, j in g.edges()
            if (mask >> i & 1) == (mask >> j & 1)
        )
        for mask in range(1 << 5)
    )
    assert best == 1


def test_simonovits_k33():
    g = stb.simple_graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    rep = stb.simonovits_partition(g, 2)
    assert rep.internal_edges == 0
    assert rep.c == Fraction(1, 4) - Fraction(9, 36)
    assert rep.hypothesis_failure is None


def test_simonovits_no_clique_flag():
    # C_4 has no triangle, so s=3 cannot find its K_3
    g = stb.simple_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    rep = stb.simonovits_partition(g, 3)
    assert rep.hypothesis_failure is not None
    assert rep.clique is None
    # leftovers are spread evenly, so triangle-free C_4 splits clean
    assert sorted(len(p) for p in rep.parts) == [1, 1, 2]


def test_simonovits_small_n_degenerate():
    rep = stb.simonovits_partition(stb.turan_graph(5, 3), 5)
    assert rep.internal_edges == 0
    assert rep.hypothesis_failure is not None  # no K_5 inside K_3


def test_simonovits_deletion_path():
    # complete bipartite with one pendant: the pendant goes below the
    # degree threshold and is deleted, then distributed back
    m = 10
    edges = [(i, m + j) for i in range(m) for j in range(m)]
    edges.append((0, 2 * m))
    g = stb.simple_graph(2 * m + 1, edges)
    rep = stb.simonovits_partition(g, 2)
    assert rep.deleted == (2 * m,)
    assert rep.hypothesis_failure is None
    # the pendant is put back by size, not adjacency: one internal edge at most
    assert rep.internal_edges <= 1


def test_simonovits_density_bound_random_bipartite():
    # Thm-style bound: when c < 1/(4 s^4), internal edges < (2s+1) sqrt(c) N^2
    rng = random.Random(41)
    checked = 0
    for _ in range(60):
        n = rng.randrange(8, 41)
        a = n // 2
        p = rng.choice((0.85, 0.92, 0.97, 1.0))
        edges = [
            (i, j) for i in range(a) for j in range(a, n) if rng.random() < p
        ]
        g = stb.simple_graph(n, edges)
        rep = stb.simonovits_partition(g, 2)
        if rep.hypothesis_failure is not None:
            continue
        if rep.c < Fraction(1, 64):
            checked += 1
            lhs = rep.internal_edges
            # lhs < 5 sqrt(c) n^2, squared to stay exact
            assert lhs * lhs < 25 * rep.c * n**4 or lhs == 0
        if rep.alpha < Fraction(1, 4):
            assert rep.internal_edges < 2 * rep.alpha * n * n or rep.internal_edges == 0
    assert checked > 10


def test_graph_io_round_trip():
    for s, n in ((2, 7), (3, 9), (4, 11)):
        g = stb.turan_graph(s, n)
        assert stb.read_graph(stb.write_graph(g)) == g


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("turan-g v2\nn=3\n", "header"),
        ("turan-g v1\nn=3\ng 0 0\n", "self loop"),
        ("turan-g v1\nn=3\ng 0 3\n", "range"),
        ("turan-g v1\nn=3\ng 0 1\ng 1 0\n", "duplicate"),
        ("turan-g v1\nn=3\nz 0 1\n", "expected"),
        ("turan-g v1\nn=3\ng 0 1\n# a comment\nh 1 2\n", "expected a `g` line"),
        ("turan-g v1\nn=3\ng 0 1 2\n", "expected 2 integers after `g`, got 3"),
        ("turan-g v1\nn=3\n\ng 0 one\n", "must be integers"),
        ("turan-g v1\nn=16385\n", "n=16385 exceeds the largest graph order read"),
    ],
)
def test_graph_io_errors(text, fragment):
    with pytest.raises(stb.FormatError) as exc:
        stb.read_graph(text)
    assert fragment in str(exc.value)
    # every text ends on the line the reader rejects, save a bad magic line
    assert exc.value.line == (1 if fragment == "header" else text.count("\n"))


def test_bipartition_io():
    b = stb.Bipartition(4, (1, 2, 2, 1))
    assert stb.read_bipartition(stb.write_bipartition(b), 4) == b
    with pytest.raises(stb.FormatError):
        stb.read_bipartition("p 0 1\np 1 2\n", 3)  # vertex 2 missing
    with pytest.raises(stb.FormatError):
        stb.read_bipartition("p 0 1\np 0 2\np 1 1\np 2 1\n", 3)  # assigned twice
    with pytest.raises(stb.FormatError):
        stb.read_bipartition("p 0 3\np 1 1\np 2 1\n", 3)  # bad side
    for text, lineno, fragment in (
        ("p 0 1\nq 1 2\np 2 1\n", 2, "expected a `p` line, got `q`"),
        ("p 0 1\n\np 1\np 2 1\n", 3, "expected 2 integers after `p`, got 1"),
        ("# parts\np 0 1\np 1 two\n", 3, "must be integers"),
    ):
        with pytest.raises(stb.FormatError) as exc:
            stb.read_bipartition(text, 3)
        assert exc.value.line == lineno
        assert fragment in str(exc.value)
    # 10^12 vertices: only the first gap is searched for, never all of them
    with pytest.raises(stb.FormatError) as exc:
        stb.read_bipartition("p 0 1\n", 10**12)
    assert exc.value.line is None
    assert "vertex 1 has no part assignment" in str(exc.value)
