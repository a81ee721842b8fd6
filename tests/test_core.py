import copy
import dataclasses
import importlib
import math
import pickle
import pkgutil
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

import turanhg
from turanhg import algebra, construct, core, freeness, krawtchouk, search, shadow, stability


def test_binom_exact_pascal():
    # independent route: Pascal's triangle
    row = [1]
    for n in range(0, 40):
        for k, want in enumerate(row):
            assert core.binom_exact(n, k) == want
        assert core.binom_exact(n, n + 1) == 0
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]


def test_binom_exact_negative_raises():
    with pytest.raises(ValueError):
        core.binom_exact(-1, 2)
    with pytest.raises(ValueError):
        core.binom_exact(5, -2)


@given(st.sets(st.integers(0, 62), max_size=10))
def test_mask_round_trip(vs):
    m = core.mask_of(vs)
    assert core.indices_of(m) == tuple(sorted(vs))
    assert m.bit_count() == len(vs)


def test_enumerate_ksubsets():
    for n in range(0, 10):
        for k in range(0, n + 1):
            masks = list(core.enumerate_ksubsets(n, k))
            assert len(masks) == math.comb(n, k)
            assert all(m.bit_count() == k for m in masks)
            assert len(set(masks)) == len(masks)
            # agrees with itertools.combinations order
            want = [core.mask_of(c) for c in combinations(range(n), k)]
            assert masks == want


def test_hypergraph_validation():
    h = core.hypergraph(5, 2, [0b1111, 0b11110])
    assert h.edge_count == 2
    with pytest.raises(ValueError):
        core.hypergraph(5, 2, [0b111])  # wrong cardinality
    with pytest.raises(ValueError):
        core.hypergraph(4, 2, [0b11110])  # vertex out of range
    with pytest.raises(ValueError):
        core.Hypergraph(5, 2, (0b1111, 0b1111))  # raw constructor: duplicate
    # the message names the vertices past n, or the mask when it is negative
    with pytest.raises(ValueError, match=r"edge \(4, 6\) out of range for n=4"):
        core.hypergraph(4, 2, [0b1010011])
    with pytest.raises(ValueError, match="edge -15 out of range for n=4"):
        core.Hypergraph(4, 2, (-15,))
    # the range test builds no mask as wide as the ground set
    with pytest.raises(ValueError, match=r"edge \(60,\) out of range for n=60"):
        core.hypergraph(60, 2, [1 << 60 | 0b111])
    assert core.Hypergraph(10**15, 2, ()).edge_count == 0
    # the canonicalizing builder dedupes instead
    assert core.hypergraph(5, 2, [0b1111, 0b1111]).edge_count == 1


def test_hypergraph_canonical_order():
    h = core.hypergraph(6, 1, [0b110000, 0b11, 0b1010])
    assert list(h.edges) == sorted(h.edges)
    assert h.edge_set() == {0b110000, 0b11, 0b1010}


def test_vertex_degrees_handshake():
    h = core.hypergraph(6, 2, list(core.enumerate_ksubsets(6, 4)))
    degs = core.vertex_degrees(h)
    assert sum(degs) == 4 * h.edge_count
    assert list(degs) == [math.comb(5, 3)] * 6


def test_vertex_degrees_empty():
    h = core.hypergraph(4, 2, [])
    assert list(core.vertex_degrees(h)) == [0, 0, 0, 0]


def _brute_incidence_rows(h):
    return [core.mask_of(i for i, e in enumerate(h.edges) if e >> v & 1) for v in range(h.n)]


def test_incidence_rows_edge_cases():
    assert core.incidence_rows(core.hypergraph(0, 1, [])) == []
    assert core.incidence_rows(core.hypergraph(5, 2, [])) == [0] * 5
    h = core.hypergraph(2, 1, [0b11])
    assert core.incidence_rows(h) == [1, 1]


@pytest.mark.parametrize("n", [2, 5, 7, 8, 9, 13, 16, 17, 23, 40])
@pytest.mark.parametrize("k", [1, 2])
def test_incidence_rows_brute_force(n, k):
    rng = random.Random(n * 10 + k)
    tuples = list(combinations(range(n), 2 * k))
    for density in (0.05, 0.5, 1.0):
        picked = [t for t in tuples if rng.random() < density][:2000]
        h = core.hypergraph(n, k, [core.mask_of(t) for t in picked])
        assert core.incidence_rows(h) == _brute_incidence_rows(h)
        assert core.vertex_degrees(h) == [sum(1 for e in h.edges if e >> v & 1) for v in range(n)]


@pytest.mark.parametrize("n", [63, 64, 65, 70, 130])
def test_incidence_rows_multi_limb_brute_force(n):
    # n > 64 packs each edge as several 64-bit limbs; 63, 64, 65 straddle the first cut
    rng = random.Random(n)
    for k in (1, 2, 3):
        edges = {core.mask_of(rng.sample(range(n), 2 * k)) for _ in range(300)}
        edges |= {core.mask_of(range(n - 2 * k, n)), core.mask_of(range(2 * k))}
        h = core.hypergraph(n, k, edges)
        assert core.incidence_rows(h) == _brute_incidence_rows(h)
        assert core.vertex_degrees(h) == [sum(1 for e in h.edges if e >> v & 1) for v in range(n)]


@pytest.mark.parametrize("m", [1, 7, 8, 9, 17])
@pytest.mark.parametrize("n", [8, 9, 64, 70])
def test_incidence_rows_partial_blocks_brute_force(n, m):
    # edge counts below, at and past a whole block of 8 edges
    rng = random.Random(100 * n + m)
    edges: set[int] = set()
    while len(edges) < m:
        edges.add(core.mask_of(rng.sample(range(n), 4)))
    h = core.hypergraph(n, 2, edges)
    assert core.incidence_rows(h) == _brute_incidence_rows(h)
    assert core.vertex_degrees(h) == [sum(1 for e in h.edges if e >> v & 1) for v in range(n)]


def _count_transposes(monkeypatch):
    """The list that gets one entry per core._transpose call from now on."""
    calls = []

    def spy(words, n):
        calls.append(n)
        return real(words, n)

    real = core._transpose
    monkeypatch.setattr(core, "_transpose", spy)
    return calls


def test_taken_rows_change_nothing_a_field_shows():
    edges = [0b1111, 0b110011, 0b111100]
    taken, fresh = core.hypergraph(6, 2, edges), core.hypergraph(6, 2, edges)
    core.incidence_rows(taken)
    assert taken == fresh and fresh == taken
    assert hash(taken) == hash(fresh)
    assert repr(taken) == repr(fresh) == "Hypergraph(n=6, k=2, edges=(15, 51, 60))"
    assert pickle.dumps(taken) == pickle.dumps(fresh)
    assert taken.__reduce__() == fresh.__reduce__()
    assert not hasattr(taken, "__dict__")
    with pytest.raises(AttributeError):
        taken._rows = ()


def test_copies_take_their_own_rows(monkeypatch):
    calls = _count_transposes(monkeypatch)
    h = core.hypergraph(7, 2, [0b1111, 0b1111000, 0b1010101])
    want = _brute_incidence_rows(h)
    assert core.incidence_rows(h) == core.incidence_rows(h) == want
    assert len(calls) == 1
    # copy, deepcopy and pickle rebuild from the fields alone
    for other in (copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
        assert other == h and other is not h
        before = len(calls)
        assert core.incidence_rows(other) == core.incidence_rows(other) == want
        assert len(calls) == before + 1


def test_returned_rows_belong_to_the_caller():
    rng = random.Random(5)
    h = core.hypergraph(9, 2, {core.mask_of(rng.sample(range(9), 4)) for _ in range(40)})
    rows = core.incidence_rows(h)
    rows[0] ^= 1
    rows[3] = 0
    rows.append(7)
    del rows[1]
    assert core.incidence_rows(h) == _brute_incidence_rows(h)
    assert core.vertex_degrees(h) == [sum(1 for e in h.edges if e >> v & 1) for v in range(9)]


hg_strategy = st.integers(2, 4).flatmap(
    lambda k: st.integers(2 * k, 2 * k + 6).flatmap(
        lambda n: st.builds(
            lambda edges: core.hypergraph(n, k, edges),
            st.sets(
                st.sampled_from(list(core.enumerate_ksubsets(n, 2 * k)) or [0]),
                max_size=30,
            ),
        )
    )
)


@given(hg_strategy)
def test_hypergraph_io_round_trip(h):
    assert core.read_hypergraph(core.write_hypergraph(h)) == h


def test_read_hypergraph_small():
    text = "turan-hg v1\nn=5 k=1\ne 0 1\ne 3 4\n"
    h = core.read_hypergraph(text)
    assert h.n == 5 and h.k == 1
    assert h.edges == (0b11, 0b11000)


def test_read_hypergraph_comments_and_blanks():
    text = "# a comment\nturan-hg v1\n\nn=4 k=1\n e 0 1 \n# trailing\n"
    assert core.read_hypergraph(text).edge_count == 1


@pytest.mark.parametrize(
    "text,lineno,fragment",
    [
        ("turan-hg v2\nn=4 k=1\n", 1, "header"),
        ("turan-hg v1\nn=4\n", 2, "n=<int>"),
        ("turan-hg v1\nk=1 n=4\n", 2, "n="),
        ("turan-hg v1\nn=x k=1\n", 2, "integer"),
        ("turan-hg v1\nn=4 k=1\ne 0\n", 3, "vertices"),
        ("turan-hg v1\nn=4 k=1\ne 1 0\n", 3, "increasing"),
        ("turan-hg v1\nn=4 k=1\ne 0 4\n", 3, "range"),
        ("turan-hg v1\nn=4 k=1\ne 0 1\ne 0 1\n", 4, "duplicate"),
        ("turan-hg v1\nn=4 k=1\nx 0 1\n", 3, "`e` line"),
        ("turan-hg v1\nn=4 k=1\n# row\ne 0 x\n", 4, "must be integers"),
    ],
)
def test_read_hypergraph_errors(text, lineno, fragment):
    with pytest.raises(core.FormatError) as exc:
        core.read_hypergraph(text)
    assert exc.value.line == lineno
    assert fragment in str(exc.value)


def test_read_hypergraph_empty_input():
    with pytest.raises(core.FormatError) as exc:
        core.read_hypergraph("")
    assert exc.value.line is None
    assert "missing" in str(exc.value)


def test_set_family_basics():
    fam = core.set_family(5, 2, [0b11, 0b101])
    assert fam.size == 2
    with pytest.raises(ValueError):
        core.set_family(5, 2, [0b111])


@given(
    st.integers(1, 6).flatmap(
        lambda k: st.builds(
            lambda ms: core.set_family(9, k, ms),
            st.sets(st.sampled_from(list(core.enumerate_ksubsets(9, k))), max_size=25),
        )
    )
)
def test_family_io_round_trip(fam):
    from turanhg.shadow import read_family, write_family

    assert read_family(write_family(fam)) == fam


def _row_writer(magic, header, tag, masks):
    """The block writers' oracle: one `tag index ...` row per mask."""
    return core._write_rows(magic, header, tag, map(core.indices_of, masks))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 4, 6, 63, 64, 65, 130])
def test_block_writer_matches_the_row_writer(n, k):
    rng = random.Random(10 * n + k)
    for count in (0, 1, 7, 300):
        edges = {core.mask_of(rng.sample(range(n), 2 * k)) for _ in range(count if n >= 2 * k else 0)}
        h = core.hypergraph(n, k, edges)
        assert core.write_hypergraph(h) == _row_writer(core._HG_MAGIC, f"n={n} k={k}", "e", h.edges)


@pytest.mark.parametrize("rows", [1023, 1024, 1025])
def test_io_round_trip_across_a_block_boundary(rows):
    h = core.Hypergraph(20, 2, tuple(sorted(core.enumerate_ksubsets(20, 4))[:rows]))
    text = core.write_hypergraph(h)
    assert text == _row_writer(core._HG_MAGIC, "n=20 k=2", "e", h.edges)
    assert core._read_written(text, core._HG_MAGIC, ("n", "k"), "e", 2) == (20, 2, h.edges)
    assert core.read_hypergraph(text) == h


_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


def _mutations(text, other_tag, rng):
    """(name, text) pairs: the written text with one change each, made at
    a row that rng picks (the text has at least one row)."""
    magic, header, *rows = text.split("\n")[:-1]
    i = rng.randrange(len(rows))
    j = rng.randrange(len(rows))
    fields = rows[i].split(" ")
    ground = header.split(" ")[0].split("=")[1]

    def with_rows(new_rows, end="\n"):
        return "\n".join([magic, header, *new_rows]) + end

    def at_row(line):
        return with_rows(rows[:i] + [line] + rows[i + 1 :])

    def before_row(line):
        return with_rows(rows[:i] + [line] + rows[i:])

    def with_field(f, value):
        return at_row(" ".join(fields[:f] + [value] + fields[f + 1 :]))

    out = [
        ("comment line", before_row("# a note")),
        ("blank line", before_row("")),
        ("tab", at_row(rows[i].replace(" ", "\t", 1))),
        ("CRLF", text.replace("\n", "\r\n")),
        ("CR in one row", at_row(rows[i] + "\r")),
        ("leading space", at_row(" " + rows[i])),
        ("trailing space", at_row(rows[i] + " ")),
        ("missing final newline", text[:-1]),
        ("wrong tag", with_field(0, other_tag)),
        ("long row", at_row(rows[i] + " 0")),
        ("duplicate row", before_row(rows[i])),
        ("rows rotated", with_rows(rows[i + 1 :] + rows[: i + 1])),
        ("rows swapped", with_rows([rows[j] if r == i else rows[i] if r == j else row for r, row in enumerate(rows)])),
        ("second header", before_row(header)),
        ("second magic line", before_row(magic)),
        ("tag alone", before_row(fields[0])),
        ("huge header integer", text.replace(f"={ground} ", "=" + "9" * 5000 + " ", 1)),
        ("leading zero in header", text.replace(f"={ground} ", f"=0{ground} ", 1)),
    ]
    if len(fields) > 1:
        f = rng.randrange(1, len(fields))
        out += [
            ("x1c inside a row", at_row(" ".join(fields[:f]) + "\x1c" + " ".join(fields[f:]))),
            ("double space", at_row(rows[i].replace(" ", "  ", 1))),
            ("tag glued to an index", at_row(fields[0] + " ".join(fields[1:]))),
            ("leading zero", with_field(f, "0" + fields[f])),
            ("plus sign", with_field(f, "+" + fields[f])),
            ("non-ASCII digits", with_field(f, fields[f].translate(_ARABIC_INDIC))),
            ("minus sign", with_field(f, "-" + fields[f])),
            ("underscore", with_field(f, fields[f][0] + "_" + fields[f][1:] if len(fields[f]) > 1 else "1_0")),
            ("short row", at_row(" ".join(fields[:-1]))),
            ("tag for an index", with_field(f, fields[0])),
            ("tag after an index in the first row", with_rows([" ".join([*fields[1:2], fields[0], *fields[2:]]), *rows[1:]])),
            ("index of n", with_field(len(fields) - 1, ground)),
            ("huge index", with_field(f, "9" * 5000)),
            ("index with zeros beyond int()", with_field(f, "0" * 5000 + fields[f])),
        ]
    if len(fields) > 2:
        out.append(("decreasing row", at_row(" ".join([fields[0], fields[2], fields[1], *fields[3:]]))))
    return out


def _outcome(read, text):
    """What read(text) returns, or the type, text and line of what it raises."""
    try:
        return read(text)
    except ValueError as err:
        return type(err).__name__, str(err), getattr(err, "line", None)


def _fuzz_against_the_line_reader(monkeypatch, module, read, text, other_tag, rng):
    """read gives, on text and on every mutation of it, what it gives with
    the block reader off, so that the line reader reads every text."""
    for name, mutated in [("as written", text), *_mutations(text, other_tag, rng)]:
        got = _outcome(read, mutated)
        with monkeypatch.context() as patch:
            patch.setattr(module, "_read_written", lambda *args: None)
            want = _outcome(read, mutated)
        assert got == want, name


@pytest.mark.parametrize(
    "n, k, count", [(20, 2, 1100), (9, 1, 30), (12, 3, 200), (70, 2, 1500), (4, 2, 1)]
)
def test_block_reader_agrees_with_the_line_reader(monkeypatch, n, k, count):
    rng = random.Random(100 * n + k)
    edges: set[int] = set()
    while len(edges) < count:
        edges.add(core.mask_of(rng.sample(range(n), 2 * k)))
    h = core.hypergraph(n, k, edges)
    text = core.write_hypergraph(h)
    assert core._read_written(text, core._HG_MAGIC, ("n", "k"), "e", 2) == (n, k, h.edges)
    for _ in range(3):
        _fuzz_against_the_line_reader(monkeypatch, core, core.read_hypergraph, text, "s", rng)


def test_block_reader_leaves_other_text_to_the_line_reader():
    # text that only the line reader takes, or that it refuses
    for text in (
        "turan-hg v1\nn=5 k=1\ne 0 1\ne 3 4",
        "turan-hg v1\nn=5 k=1\n# row\ne 0 1\n",
        "turan-hg v1\nn=5 k=1\ne 0\t1\n",
        "turan-hg v1\nn=5 k=1\ne 0 +1\n",
        "turan-hg v1\nn=5 k=1\ne 0 \u0661\n",
        "turan-hg v1\nn=5 k=1\ne 1 0\n",
        "turan-hg v1\nn=5 k=1\ne 0 5\n",
        "turan-hg v1\nn=5 k=1\ne 0 1\ne 0 1\n",
        "turan-hg v1\nn=5 k=1\ne 0 1 2\n",
        "turan-hg v1\nn=5 k=1\ne 0 1 e 2 3\n",
        "turan-hg v1\nn=5 k=1\ne 0\n1 e 2 3\n",
        "turan-hg v1\nn=5\xa0k=1\ne 0 1\n",
        "turan-hg v1\nn=\u0665 k=1\ne 0 1\n",
        "turan-hg v1\nn=-5 k=1\n",
        "turan-hg v1\nn=5 k=-1\n",
        "turan-hg v1\nn=5 k=1\n0 e 1\n",
        "turan-hg v1\nn=5 k=1\ne 0 e\n",
        "turan-hg v1\nk=1 n=5\ne 0 1\n",
        "turan-hg v1 \nn=5 k=1\ne 0 1\n",
        "turan-hg v1\nn=5 k=1",
    ):
        assert core._read_written(text, core._HG_MAGIC, ("n", "k"), "e", 2) is None, text
    # the line reader reads a text without its final newline, and keeps its errors
    assert core.read_hypergraph("turan-hg v1\nn=5 k=1\ne 0 1\ne 3 4") == core.Hypergraph(5, 1, (3, 24))
    with pytest.raises(core.FormatError) as exc:
        core.read_hypergraph("turan-hg v1\nn=5 k=0\n")
    assert (exc.value.line, str(exc.value)) == (2, "line 2: need n >= 0 and k >= 1, got n=5 k=0")


# every value record of the package, with field values its checks accept
RECORDS = [
    (core.Hypergraph, (4, 1, (3, 5))),
    (core.SetFamily, (4, 2, (3, 5))),
    (construct.Shift, (4,)),
    (construct.Bipartition, (3, (1, 2, 1))),
    (construct.GF2Labeling, (2, (0, 1, 2, 3))),
    (krawtchouk.OptimalShiftReport, (9, 2, 63, (construct.Shift(3),))),
    (search.ConflictSystem, (6, (15, 23), ((0, 1, 2),))),
    (search.SearchResult, (5, 5, core.Hypergraph(5, 2, (15,)), 3, True)),
    (freeness.AuxGraph, (4, 1, (1, 2), (2, 1))),
    (algebra.EdgeColoring, (2, 1, (0,))),
    (algebra.ColoringReport, (True, True, False, (0, 1, 2, 3), "vertices span 4 colors")),
    (algebra.ColorGroup, (2, 1, ((0, 1), (1, 0)))),
    (shadow.ShadowReport, (3, 3.0, 3.0, 3, True)),
    (stability.SimpleGraph, (2, (2, 1))),
    (
        stability.SimonovitsReport,
        (((0,), (1,)), 0, (), Fraction(1, 4), Fraction(0), (0, 1), None),
    ),
]


@pytest.mark.parametrize("cls, values", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_behaves_like_a_frozen_dataclass(cls, values):
    # the oracle: a frozen dataclass with the same name and fields
    oracle = dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=True)(*values)
    rec, same = cls(*values), cls(*values)
    assert rec == same and hash(rec) == hash(same) == hash(oracle)
    assert repr(rec) == repr(oracle)
    assert not hasattr(rec, "__dict__")
    # an instance of another record class with the same name and fields
    # is never equal
    twin = type(
        cls.__name__, (core._Record,), {"__slots__": cls.__slots__, "__init__": cls.__init__}
    )(*values)
    assert repr(twin) == repr(rec)
    assert rec != twin and twin != rec
    assert rec != oracle and rec != values
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 0
    assert copy.copy(rec) == pickle.loads(pickle.dumps(rec)) == rec
    # one value too few or too many is refused, as by a generated __init__
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, None)


def test_every_record_is_checked_against_the_oracle():
    # a record class added to any module must join RECORDS above
    found = set()
    for info in pkgutil.iter_modules(turanhg.__path__):
        module = importlib.import_module(f"turanhg.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, core._Record) and obj is not core._Record:
                found.add(obj)
    assert found == {cls for cls, _ in RECORDS}


def test_shift_orders_by_two_t():
    shifts = [construct.Shift(tt) for tt in (4, -2, 0, 3)]
    assert [sh.two_t for sh in sorted(shifts)] == [-2, 0, 3, 4]
    a, b = construct.Shift(1), construct.Shift(2)
    assert (a < b, a <= b, a > b, a >= b) == (True, True, False, False)
    assert (a < a, a <= a, a > a, a >= a) == (False, True, False, True)
    assert max(shifts) == construct.Shift(4)
    with pytest.raises(TypeError):
        a < 2
