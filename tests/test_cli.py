import math
import os
import random
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from turanhg import algebra, construct, core, freeness, krawtchouk, search, shadow, stability
from turanhg.cli import build_parser, run_cli

from test_algebra import enumerate_one_factorizations
from test_stability import _reference_improve_partition, perturbed_parity


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kraw_eval(capsys):
    code, out, _ = run(capsys, "kraw", "eval", "--m", "2", "--n", "4", "--x", "2")
    assert code == 0
    assert out == "-2\n"
    assert out.strip() == str(krawtchouk.kraw_eval(2, 4, 2))


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="Python before 3.10.7 has no limit on int -> str digits",
)


@needs_digit_limit
def test_integers_print_at_any_length(capsys):
    # C(16000, 8000) has 4,815 digits, over Python's default 4,300-digit
    # limit on int -> str; the CLI lifts it for its output only
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "kraw", "eval", "--m", "8000", "--n", "16000", "--x", "0")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        want = f"{math.comb(16000, 8000)}\n"
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out, err) == (0, want, "")


@needs_digit_limit
def test_readers_keep_the_digit_limit(tmp_path, capsys):
    # a 5,000-digit vertex count is refused as input, before anything runs
    f = tmp_path / "big.hg"
    f.write_text(f"turan-hg v1\nn={'9' * 5000} k=2\n")
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "check", "free", "--file", str(f), "--r", "3")
    assert sys.get_int_max_str_digits() == limit
    assert (code, out) == (2, "")
    assert err.startswith("error: line 2: `n=999") and "is not an integer assignment" in err


def test_kraw_row(capsys):
    code, out, _ = run(capsys, "kraw", "row", "--n", "5", "--x", "2")
    assert code == 0
    assert out == "".join(f"{v}\n" for v in krawtchouk.genfunc_row(5, 2))


def test_kraw_tstar(capsys):
    code, out, _ = run(capsys, "kraw", "tstar", "--n", "7", "--k", "2")
    assert code == 0
    assert out == "20\n3\n5\n"
    code, out, _ = run(capsys, "kraw", "tstar", "--n", "7", "--k", "2", "--one")
    assert out == "3\n"
    code, out, _ = run(capsys, "kraw", "tstar", "--n", "7", "--k", "2", "--tsv")
    assert out == "two_t\tmax_edges\n3\t20\n5\t20\n"


def test_kraw_tstar_one_and_tsv_is_a_usage_error(capsys):
    # --tsv promises a header line, which the bare --one shift lacks
    code, out, err = run(capsys, "kraw", "tstar", "--n", "2", "--k", "1", "--one", "--tsv")
    assert (code, out) == (2, "")
    assert "not allowed with argument --one" in err


def test_count_b_and_d(capsys):
    code, out, _ = run(capsys, "count", "b", "--n", "8", "--k", "2", "--two-t", "4")
    assert (code, out) == (0, "40\n")
    code, out, _ = run(
        capsys, "count", "d", "--n", "8", "--k", "2", "--two-t", "4", "--side", "small"
    )
    assert (code, out) == (0, "20\n")


def test_construct_parity_stdout(capsys):
    code, out, _ = run(capsys, "construct", "parity", "--n", "6", "--k", "2", "--two-t", "0")
    assert code == 0
    h, _ = construct.build_parity(6, 2, krawtchouk.Shift(0))
    assert out == core.write_hypergraph(h)


def test_construct_sidorenko_file(tmp_path, capsys):
    out_file = tmp_path / "s.hg"
    code, out, _ = run(
        capsys, "construct", "sidorenko", "--n", "8", "--k", "2", "--p", "2",
        "--out", str(out_file),
    )
    assert code == 0 and out == ""
    h, _ = construct.build_sidorenko(8, 2, 2)
    assert core.read_hypergraph(out_file.read_text()) == h


def test_construct_remainder_flag(capsys):
    code, _, err = run(capsys, "construct", "sidorenko", "--n", "6", "--k", "2", "--p", "2")
    assert code == 2 and "divisible" in err
    code, out, _ = run(
        capsys, "construct", "sidorenko", "--n", "6", "--k", "2", "--p", "2",
        "--allow-remainder",
    )
    assert code == 0 and out.startswith("turan-hg v1")


def test_check_free_and_maximal(tmp_path, capsys):
    h, _ = construct.build_parity(8, 2, krawtchouk.Shift(4))
    f = tmp_path / "p.hg"
    f.write_text(core.write_hypergraph(h))
    code, out, _ = run(capsys, "check", "free", "--file", str(f), "--r", "3")
    assert (code, out) == (0, "free\n")
    code, out, _ = run(capsys, "check", "maximal", "--file", str(f), "--r", "3")
    assert (code, out) == (0, "maximal\n")
    # r=2: any edge is a copy, witness printed as two pair lines
    code, out, _ = run(capsys, "check", "free", "--file", str(f), "--r", "2", "--witness")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "copy"
    assert len(lines) == 3
    pair_union = core.mask_of(int(x) for line in lines[1:] for x in line.split())
    assert pair_union in h.edge_set()


def test_check_not_maximal(tmp_path, capsys):
    h, _ = construct.build_parity(8, 2, krawtchouk.Shift(4))
    h2 = core.hypergraph(8, 2, h.edges[1:])
    f = tmp_path / "q.hg"
    f.write_text(core.write_hypergraph(h2))
    code, out, _ = run(capsys, "check", "maximal", "--file", str(f), "--r", "3")
    assert (code, out) == (1, "not-maximal\n")


def test_color_round_trip(tmp_path, capsys):
    f = tmp_path / "c.col"
    code, _, _ = run(capsys, "color", "gen", "--p", "3", "--out", str(f))
    assert code == 0
    assert algebra.read_coloring(f.read_text()) == algebra.generate_gf2_coloring(3)
    code, out, _ = run(capsys, "color", "verify", "--file", str(f))
    assert code == 0
    assert "four_set_condition true" in out
    code, out, _ = run(capsys, "color", "group", "--file", str(f))
    assert code == 0
    assert out.splitlines()[0] == "order 8"
    assert out.splitlines()[1] == "dimension 3"


def test_color_verify_failure_exit(tmp_path, capsys):
    bad = enumerate_one_factorizations(6)[0]
    f = tmp_path / "k6.col"
    f.write_text(algebra.write_coloring(bad))
    code, out, _ = run(capsys, "color", "verify", "--file", str(f))
    assert code == 1
    assert "four_set_condition false" in out
    assert "first_violation" in out
    code, _, err = run(capsys, "color", "group", "--file", str(f))
    assert code == 1 and err.startswith("error:")


def test_shadow_output(tmp_path, capsys):
    fam = core.set_family(6, 3, list(core.enumerate_ksubsets(5, 3)))
    f = tmp_path / "f.fam"
    f.write_text(shadow.write_family(fam))
    code, out, _ = run(capsys, "shadow", "--file", str(f))
    assert code == 0
    rep = shadow.check_lovasz_bound(fam)
    assert out == (
        f"size {rep.size}\nx {rep.x!r}\nbound {rep.bound!r}\n"
        f"shadow_size {rep.shadow_size}\nholds true\n"
    )
    code, out, _ = run(capsys, "shadow", "--file", str(f), "--tsv")
    assert out.splitlines()[0] == "size\tx\tbound\tshadow_size\tholds"


def test_stability_census_and_improve(tmp_path, capsys):
    h, part = construct.build_parity(10, 2, krawtchouk.Shift(2))
    hf = tmp_path / "h.hg"
    pf = tmp_path / "p.txt"
    hf.write_text(core.write_hypergraph(h))
    pf.write_text(stability.write_bipartition(part))
    code, out, _ = run(
        capsys, "stability", "census", "--file", str(hf), "--partition", str(pf)
    )
    assert code == 0
    c = stability.classify_tuples(h, part)
    assert out == (
        f"good_edges {c.good_edges}\nbad_edges {c.bad_edges}\n"
        f"good_non_edges {c.good_non_edges}\nbad_non_edges {c.bad_non_edges}\n"
    )
    code, out, _ = run(
        capsys, "stability", "census", "--file", str(hf), "--partition", str(pf), "--tsv"
    )
    assert out.splitlines()[1] == f"{c.good_edges}\t{c.bad_edges}\t{c.good_non_edges}\t{c.bad_non_edges}"
    code, out, _ = run(
        capsys, "stability", "improve", "--file", str(hf), "--partition", str(pf)
    )
    assert code == 0
    assert stability.read_bipartition(out, 10) == part  # already stable


def test_stability_improve_matches_reference_scan(tmp_path, capsys):
    rng = random.Random(20)
    h = perturbed_parity(rng, 20, 2)
    start = stability.Bipartition(20, tuple(rng.choice((1, 2)) for _ in range(20)))
    want = stability.write_bipartition(_reference_improve_partition(h, start))
    assert want != stability.write_bipartition(start)
    hf, pf, out = tmp_path / "h.hg", tmp_path / "p.txt", tmp_path / "out.txt"
    hf.write_text(core.write_hypergraph(h))
    pf.write_text(stability.write_bipartition(start))
    files = ["--file", str(hf), "--partition", str(pf)]
    assert run(capsys, "stability", "improve", *files) == (0, want, "")
    assert run(capsys, "stability", "improve", *files, "--out", str(out)) == (0, "", "")
    assert out.read_bytes() == want.encode()


def test_stability_simonovits(tmp_path, capsys):
    g = stability.turan_graph(3, 9)
    gf = tmp_path / "g.txt"
    gf.write_text(stability.write_graph(g))
    code, out, _ = run(capsys, "stability", "simonovits", "--graph", str(gf), "--s", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "internal_edges 0"
    assert lines[1] == "hypothesis_failure none"
    assert len(lines) == 2 + 9
    # flagged run exits 1
    c4 = stability.simple_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    gf.write_text(stability.write_graph(c4))
    code, out, _ = run(capsys, "stability", "simonovits", "--graph", str(gf), "--s", "3")
    assert code == 1
    assert "hypothesis_failure residual-graph-contains-no-K_s" in out


def test_search_exact(capsys, tmp_path):
    code, out, _ = run(capsys, "search", "exact", "--n", "6")
    assert code == 0
    r = search.exact_turan(6)
    assert out == f"value {r.value}\nnodes {r.nodes}\noptimal true\n"
    wf = tmp_path / "w.hg"
    code, out, _ = run(
        capsys, "search", "exact", "--n", "6", "--tsv", "--witness", str(wf)
    )
    assert out == f"value\tnodes\toptimal\n{r.value}\t{r.nodes}\ttrue\n"
    assert core.read_hypergraph(wf.read_text()).edge_count == r.value


def test_search_threads_invariance(capsys):
    outs = set()
    for threads in ("1", "4"):
        code, out, _ = run(
            capsys, "--threads", threads, "search", "exact", "--n", "7", "--seed", "5"
        )
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_exit_codes_usage_and_io(capsys):
    code, _, err = run(capsys, "check", "free", "--file", "/does/not/exist", "--r", "3")
    assert code == 2 and err.startswith("error:")
    code, _, _ = run(capsys, "kraw", "eval", "--m", "2", "--n", "4")
    assert code == 2
    code, _, err = run(capsys, "--threads", "0", "kraw", "eval", "--m", "1", "--n", "2", "--x", "1")
    assert code == 2 and "threads" in err
    code, _, _ = run(capsys, "bogus")
    assert code == 2


def test_format_error_exit(tmp_path, capsys):
    f = tmp_path / "bad.hg"
    f.write_text("turan-hg v1\nn=4 k=2\ne 0 1 2\n")
    code, _, err = run(capsys, "check", "free", "--file", str(f), "--r", "3")
    assert code == 2
    assert "line 3" in err


def test_search_cap_via_cli(capsys):
    code, _, err = run(capsys, "search", "exact", "--n", "9")
    assert code == 2 and "cap" in err


def test_search_exact_warns_only_when_the_search_runs(capsys, monkeypatch):
    # over the cap the library refuses before any search, with no warning
    code, out, err = run(capsys, "search", "exact", "--n", "10", "--cap", "9")
    assert (code, out) == (2, "")
    assert err == "error: n=10 exceeds the search cap 9; raise the cap to 10\n"
    calls = []

    def stub(n, *, cap, seed, max_nodes):
        calls.append((n, cap, seed, max_nodes))
        return search.SearchResult(n, 0, core.hypergraph(n, 2, []), 1, True)

    monkeypatch.setattr(search, "exact_turan", stub)
    code, out, err = run(capsys, "search", "exact", "--n", "9", "--cap", "9")
    assert (code, out) == (0, "value 0\nnodes 1\noptimal true\n")
    assert err == "warning: exact search above n=8 grows quickly (n=9)\n"
    code, out, err = run(capsys, "search", "exact", "--n", "8")
    assert (code, err) == (0, "")
    assert calls == [(9, 9, None, None), (8, 8, None, None)]


def test_search_exact_node_budget(capsys):
    # n = 10 has no proof in reach; the budget cuts it after 200 nodes
    start = time.perf_counter()
    proc = run_in_1_gib("search", "exact", "--n", "10", "--cap", "10", "--max-nodes", "200")
    assert time.perf_counter() - start < 20
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1:] == ["nodes 201", "optimal false"]
    assert proc.stderr == "warning: exact search above n=8 grows quickly (n=10)\n"
    r = search.exact_turan(7, max_nodes=3)
    code, out, _ = run(capsys, "search", "exact", "--n", "7", "--max-nodes", "3")
    assert (code, out) == (0, f"value {r.value}\nnodes 4\noptimal false\n")
    code, out, err = run(capsys, "search", "exact", "--n", "7", "--max-nodes", "-1")
    assert (code, out, err) == (2, "", "error: need max_nodes >= 0, got -1\n")


@pytest.mark.parametrize("n, conflicts", [(14, 45_045), (16, 120_120)])
def test_oversized_exact_search_exits_2(n, conflicts):
    # the conflicts are counted, not listed, before any per-conflict
    # table is built, so the refusal is immediate and fits the memory limit
    start = time.perf_counter()
    proc = run_in_1_gib("search", "exact", "--n", str(n), "--cap", str(n), "--max-nodes", "1")
    assert time.perf_counter() - start < 10
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"warning: exact search above n=8 grows quickly (n={n})\n"
        f"error: {conflicts} conflicts exceed the largest exact search, "
        f"{search.MAX_CONFLICTS}\n"
    )


def test_oversized_inputs_exit_2(tmp_path, capsys):
    # a 40-byte input naming 10^8 vertices or 5 * 10^9 pairs is refused
    # from its first gap, not by listing every gap
    hg = tmp_path / "big.hg"
    hg.write_text("turan-hg v1\nn=100000000 k=2\n")
    part = tmp_path / "big.part"
    part.write_text("p 0 1\n")
    code, out, err = run(
        capsys, "stability", "census", "--file", str(hg), "--partition", str(part)
    )
    assert (code, out) == (2, "")
    assert err == "error: vertex 1 has no part assignment\n"
    col = tmp_path / "big.col"
    col.write_text("turan-col v1\ns=100000 colors=3\nc 0 1 0\n")
    code, out, err = run(capsys, "color", "verify", "--file", str(col))
    assert (code, out) == (2, "")
    assert err == "error: pair (0, 2) has no color\n"
    # 10^12 vertices: the edge range check must not build a 2^n mask
    hg.write_text("turan-hg v1\nn=1000000000000 k=2\n")
    code, out, err = run(
        capsys, "stability", "census", "--file", str(hg), "--partition", str(part)
    )
    assert (code, out) == (2, "")
    assert err == "error: vertex 1 has no part assignment\n"
    # no edge covers a vertex, so the freeness check has nothing to build
    code, out, err = run(capsys, "check", "free", "--file", str(hg), "--r", "3")
    assert (code, out, err) == (0, "free\n", "")
    # nor does maximality: a new edge through an uncovered vertex is no
    # copy for r >= 3, and at r = 2 every new edge is one
    code, out, err = run(capsys, "check", "maximal", "--file", str(hg), "--r", "3")
    assert (code, out, err) == (1, "not-maximal\n", "")
    code, out, err = run(capsys, "check", "maximal", "--file", str(hg), "--r", "2")
    assert (code, out, err) == (0, "maximal\n", "")
    # at r = 1 any k vertices form a copy, so none need be listed
    code, out, err = run(capsys, "check", "free", "--file", str(hg), "--r", "1", "--witness")
    assert (code, out, err) == (1, "copy\n0 1\n", "")
    code, out, err = run(capsys, "check", "maximal", "--file", str(hg), "--r", "1")
    assert (code, out) == (2, "")
    assert err == "error: hypergraph already contains an expanded clique\n"


def run_in_1_gib(*argv):
    """The CLI in a subprocess under a 1 GiB address-space limit, which
    keeps a regression that allocates from the header from exhausting
    the machine."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "turanhg.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=limit_memory,
    )


def test_sidorenko_with_more_labels_than_vertices_exits_2():
    # 2^34 label classes for 8 vertices: refused before any per-label list
    # is built
    proc = run_in_1_gib(
        "construct", "sidorenko", "--n", "8", "--k", "2", "--p", "34", "--allow-remainder"
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and "n=8 p=34" in proc.stderr


@pytest.mark.parametrize(
    "argv, count",
    [
        (["parity", "--n", "200", "--k", "2", "--two-t", "0"], 32_340_000),
        (["sidorenko", "--n", "256", "--k", "2", "--p", "3"], 152_936_448),
    ],
)
def test_oversized_construction_exits_2(argv, count):
    # the edge count is taken before anything is built, so the refusal is
    # immediate and fits the memory limit
    start = time.perf_counter()
    proc = run_in_1_gib("construct", *argv)
    assert time.perf_counter() - start < 10
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: {count} edges exceed the largest construction built, "
        f"{construct.MAX_CONSTRUCTION_EDGES}\n"
    )


def test_oversized_color_gen_exits_2():
    # C(2^14, 2) pair colors are counted, not built, before the refusal
    proc = run_in_1_gib("color", "gen", "--p", "14")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: p=14 gives 134209536 pair colors, more than the largest coloring built, "
        f"{algebra.MAX_COLORING_PAIRS}\n"
    )


def test_simonovits_on_an_oversized_graph_header_exits_2(tmp_path):
    # 10^9 vertex rows would take 8 GB: refused before the first is built
    graph = tmp_path / "huge.g"
    graph.write_text("turan-g v1\nn=1000000000\n")
    proc = run_in_1_gib("stability", "simonovits", "--graph", str(graph), "--s", "2")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: line 2: n=1000000000 exceeds the largest graph order read, 16384\n"
    )


def test_oversized_kraw_row_exits_2():
    # each |K_m^n| < 2^n, so this row could take 5 GB
    proc = run_in_1_gib("kraw", "row", "--n", "200000", "--x", "0")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: n=200000 gives a row of up to 40000200000 bits, more than the largest row "
        f"built, {krawtchouk.MAX_ROW_BITS}\n"
    )


TWO_TO_20 = ["--n", "1048576"]


@pytest.mark.parametrize(
    "argv, m, n",
    [
        (["kraw", "eval", "--m", "524288", *TWO_TO_20, "--x", "0"], 1 << 19, 1 << 20),
        (["kraw", "tstar", *TWO_TO_20, "--k", "262144"], 1 << 19, 1 << 20),
        (["count", "b", *TWO_TO_20, "--k", "524288", "--two-t", "0"], 1 << 20, 1 << 20),
        (
            ["count", "d", *TWO_TO_20, "--k", "524288", "--two-t", "0", "--side", "large"],
            (1 << 20) - 1,
            (1 << 20) - 1,
        ),
        (
            ["construct", "sidorenko", *TWO_TO_20, "--k", "524288", "--p", "20",
             "--allow-remainder"],
            1 << 20,
            1 << 20,
        ),
    ],
    ids=["kraw-eval", "kraw-tstar", "count-b", "count-d", "construct-sidorenko"],
)
def test_oversized_krawtchouk_value_exits_2(argv, m, n):
    # each needs K_m^n with m near n = 2^20, minutes of recurrence steps:
    # refused from the sizes alone; above n / 2 each step is costed at n bits
    steps = m * n
    start = time.perf_counter()
    proc = run_in_1_gib(*argv)
    assert time.perf_counter() - start < 10
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: K_{m}^{n} takes up to {steps} bit-steps, more than the most spent on one "
        f"Krawtchouk value, {core.MAX_KRAW_BIT_STEPS}\n"
    )


def test_oversized_shift_scan_exits_2():
    # 92,681 shifts of up to 81,920 bits: each of its two Krawtchouk values
    # is allowed, the scan over them is refused before its first step
    start = time.perf_counter()
    proc = run_in_1_gib("kraw", "tstar", "--n", "1048576", "--k", "4096")
    assert time.perf_counter() - start < 10
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: the shift scan for n=1048576 k=4096 takes up to 7592427520 bit-steps, more than "
        f"the most spent on one Krawtchouk value, {core.MAX_KRAW_BIT_STEPS}\n"
    )


@pytest.mark.parametrize(
    "command, code, out",
    [("free", 0, "free\n"), ("maximal", 1, "not-maximal\n")],
    ids=["free", "maximal"],
)
def test_check_on_an_empty_header_lists_no_splits(tmp_path, command, code, out):
    # with no edge to split, the C(39, 19) split patterns of k = 20 are
    # never listed
    path = tmp_path / "empty.hg"
    path.write_text("turan-hg v1\nn=40 k=20\n")
    proc = run_in_1_gib("check", command, "--file", str(path), "--r", "3")
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")


# one edge on 40 vertices at k = 20: C(40, 20) auxiliary vertices
ONE_WIDE_EDGE = core.hypergraph(40, 20, [(1 << 40) - 1])
# 46 edges cover 181 vertices and hold no copy at r = 3, so maximality
# needs a scan of C(181, 4) candidates
COVERED_181 = core.hypergraph(181, 2, [0b1111 << 4 * i for i in range(45)] + [0b1111 << 177])
TOO_MANY_VERTICES = (
    "137846528820 auxiliary vertices exceed the largest auxiliary graph built, "
    f"{freeness.MAX_AUX_VERTICES}"
)


@pytest.mark.parametrize(
    "command, h, message",
    [
        ("free", ONE_WIDE_EDGE, TOO_MANY_VERTICES),
        ("maximal", ONE_WIDE_EDGE, TOO_MANY_VERTICES),
        (
            "maximal",
            COVERED_181,
            "43252665 candidate edges exceed the largest maximality scan, "
            f"{freeness.MAX_MAXIMAL_SCAN}",
        ),
    ],
    ids=["free-wide-edge", "maximal-wide-edge", "maximal-scan"],
)
def test_oversized_check_exits_2(tmp_path, command, h, message):
    # refused from the counts, before the auxiliary graph or the scan
    path = tmp_path / "h.hg"
    path.write_text(core.write_hypergraph(h))
    proc = run_in_1_gib("check", command, "--file", str(path), "--r", "3")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


def test_check_free_by_odd_part_is_bounded_by_the_covered_span(tmp_path):
    # a parity construction on vertices 0..15 in a header of 10^12
    # vertices: the odd part is solved over the 16 covered ones
    edges = [m for m in core.enumerate_ksubsets(16, 4) if (m & 0xFF).bit_count() % 2]
    path = tmp_path / "wide.hg"
    path.write_text(core.write_hypergraph(core.hypergraph(10**12, 2, edges)))
    start = time.perf_counter()
    proc = run_in_1_gib("check", "free", "--file", str(path), "--r", "3")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "free\n", "")
    assert time.perf_counter() - start < 10


def test_check_free_on_a_long_path_stays_fast(tmp_path):
    # a k = 1 path on 8,000 vertices has an odd part, but solving for it
    # takes a round per vertex, each rewriting the earlier pivots; its
    # span is above 64, so the graph's 2-coloring decides
    edges = [(1 << v) | (1 << (v + 1)) for v in range(7999)]
    path = tmp_path / "path.hg"
    path.write_text(core.write_hypergraph(core.hypergraph(8000, 1, edges)))
    start = time.perf_counter()
    proc = run_in_1_gib("check", "free", "--file", str(path), "--r", "3")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "free\n", "")
    assert time.perf_counter() - start < 10


def _readme_commands():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("turanhg "):
            yield line.split("#")[0].strip()


@pytest.mark.parametrize("command", list(_readme_commands()))
def test_readme_examples_parse(command):
    # a flag dropped from the CLI must not linger in the README
    argv = shlex.split(command)[1:]
    build_parser().parse_args(argv)
