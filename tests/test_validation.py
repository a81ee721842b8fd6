"""Every argument and format check raises its own error type and message."""

import pytest

from turanhg import algebra as al
from turanhg import construct as ct
from turanhg import core
from turanhg import freeness as fr
from turanhg import krawtchouk as kw
from turanhg import search as sr
from turanhg import shadow as sh
from turanhg import stability as stb

H4 = core.hypergraph(4, 2, [0b1111])

CASES = {
    "bipartition-length": (
        lambda: ct.Bipartition(2, (1,)), ValueError, "part_of has 1 entries, expected 2"
    ),
    "bipartition-part": (lambda: ct.Bipartition(2, (1, 3)), ValueError, "parts must be 1 or 2"),
    "labeling-p": (lambda: ct.GF2Labeling(0, ()), ValueError, "need p >= 1, got 0"),
    "labeling-label": (
        lambda: ct.GF2Labeling(1, (0, 2)), ValueError, "labels must lie in 0 .. 2^p - 1"
    ),
    "parity-k": (lambda: ct.build_parity(6, 0, ct.Shift(0)), ValueError, "need k >= 1, got 0"),
    "parity-count-k": (
        lambda: ct.parity_edge_count(6, 0, ct.Shift(0)), ValueError, "need k >= 1, got 0"
    ),
    "parity-degree-side": (
        lambda: ct.parity_degree(6, 1, ct.Shift(0), "middle"),
        ValueError,
        "side must be 'large' or 'small', got 'middle'",
    ),
    "coloring-negative": (
        lambda: al.EdgeColoring(-1, 0, ()), ValueError, "need s >= 0 and color_count >= 0"
    ),
    "coloring-length": (
        lambda: al.EdgeColoring(3, 2, (0, 1)), ValueError, "expected 3 pair colors, got 2"
    ),
    "coloring-range": (lambda: al.EdgeColoring(2, 1, (1,)), ValueError, "pair color out of range"),
    "gf2-coloring-p": (lambda: al.generate_gf2_coloring(0), ValueError, "need p >= 1, got 0"),
    "gf2-coloring-size": (
        lambda: al.generate_gf2_coloring(11),
        ValueError,
        "p=11 gives 2096128 pair colors, more than the largest coloring built, 1048576",
    ),
    "group-no-color": (
        lambda: al.build_group(al.EdgeColoring(1, 0, ())),
        al.GroupError,
        "need at least one color to build a group",
    ),
    "simple-graph-rows": (
        lambda: stb.SimpleGraph(2, (0,)), ValueError, "adjacency has 1 rows, expected 2"
    ),
    "simple-graph-loop": (lambda: stb.SimpleGraph(2, (0b01, 0)), ValueError, "self loop at 0"),
    "turan-graph-s": (
        lambda: stb.turan_graph(0, 3), ValueError, "need s >= 1 and n >= 0, got s=0 n=3"
    ),
    "hypergraph-n": (
        lambda: core.Hypergraph(-1, 2, ()), ValueError, "need n >= 0 and k >= 1, got n=-1 k=2"
    ),
    "hypergraph-k": (
        lambda: core.Hypergraph(4, 0, ()), ValueError, "need n >= 0 and k >= 1, got n=4 k=0"
    ),
    "hypergraph-order": (
        lambda: core.Hypergraph(4, 2, (0b1111, 0b1111)),
        ValueError,
        "edges must be sorted ascending and duplicate free",
    ),
    "set-family-m": (
        lambda: core.SetFamily(-1, 2, ()), ValueError, "need m >= 0 and k >= 0, got m=-1 k=2"
    ),
    "set-family-k": (
        lambda: core.SetFamily(4, -1, ()), ValueError, "need m >= 0 and k >= 0, got m=4 k=-1"
    ),
    "set-family-order": (
        lambda: core.SetFamily(4, 1, (0b10, 0b01)),
        ValueError,
        "members must be sorted ascending and duplicate free",
    ),
    "ksubsets-negative": (
        lambda: list(core.enumerate_ksubsets(-1, 2)),
        ValueError,
        "enumerate_ksubsets needs nonnegative arguments, got (-1, 2)",
    ),
    "genfunc-x-high": (lambda: kw.genfunc_row(4, 5), ValueError, "need 0 <= x <= n, got x=5 n=4"),
    "genfunc-x-low": (lambda: kw.genfunc_row(4, -1), ValueError, "need 0 <= x <= n, got x=-1 n=4"),
    "lovasz-k": (lambda: sh.lovasz_x(3, 0), ValueError, "need k >= 1, got 0"),
    "lovasz-size": (lambda: sh.lovasz_x(-1, 2), ValueError, "need size >= 0, got -1"),
    "conflicts-n": (lambda: sr.conflict_triples(-1), ValueError, "need n >= 0, got -1"),
    "exact-cap": (
        lambda: sr.exact_turan(9), ValueError, "n=9 exceeds the search cap 8; raise the cap to 9"
    ),
    "expansion-r": (lambda: fr.find_expansion(H4, 0), ValueError, "need r >= 1, got 0"),
    "maximal-r": (lambda: fr.is_maximal_free(H4, 0), ValueError, "need r >= 1, got 0"),
    "improve-size": (
        lambda: stb.improve_partition(H4, ct.Bipartition(3, (1, 2, 1))),
        ValueError,
        "partition is over 3 vertices, hypergraph over 4",
    ),
    "simonovits-empty": (
        lambda: stb.simonovits_partition(stb.SimpleGraph(0, ()), 2),
        ValueError,
        "need at least one vertex",
    ),
    "read-hypergraph-n": (
        lambda: core.read_hypergraph("turan-hg v1\nn=-1 k=2\n"),
        core.FormatError,
        "line 2: need n >= 0 and k >= 1, got n=-1 k=2",
    ),
    "read-graph-n": (
        lambda: stb.read_graph("turan-g v1\nn=-1\n"),
        core.FormatError,
        "line 2: n must be nonnegative",
    ),
    "read-graph-no-header-fields": (
        lambda: stb.read_graph("turan-g v1\n"), core.FormatError, "missing `n=<int>` line"
    ),
    "read-family-m": (
        lambda: sh.read_family("turan-fam v1\nm=-1 k=2\n"),
        core.FormatError,
        "line 2: m and k must be nonnegative",
    ),
    "read-coloring-s": (
        lambda: al.read_coloring("turan-col v1\ns=-1 colors=0\n"),
        core.FormatError,
        "line 2: s and colors must be nonnegative",
    ),
    "read-bipartition-vertex": (
        lambda: stb.read_bipartition("p 0 1\np 5 2\n", 2),
        core.FormatError,
        "line 2: vertex index out of range 0..1",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_invalid_input_is_refused(name):
    call, error, fragment = CASES[name]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert fragment in str(exc.value)
