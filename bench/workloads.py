"""The four workloads of the turanhg benchmark.

`build(name, seed)` generates every input of a workload from its seed
before anything is timed: the library only ever sees the generated
hypergraphs, families, shifts and tie-break seeds.  A workload is a
list of jobs, run once per pass, and a list of CLI calls.

Every job is checked against an answer the library did not produce:
closed-form sums written out here, a brute-force search, or a theorem
of the paper (parity constructions have no expanded triangle, the
GF(2)^p construction has no expanded clique with 2^p + 1 parts).  The
sizes are fixed per workload; the seed moves vertex labels, sampled
sizes and shifts, flipped tuples, starting partitions and tie-breaks.
The exhaustive freeness proofs run on the constructions as built,
because relabelling an input changes their search order and with it
their cost by up to a factor of two, which would drown every other
difference between two runs.
"""

from __future__ import annotations

import math
import random
from dataclasses import astuple, dataclass
from functools import cache
from itertools import combinations
from pathlib import Path
from typing import Callable

from harness import Job, Tracer
from turanhg import construct, core, freeness, krawtchouk, search, shadow, stability

C = math.comb


@dataclass
class CliCall:
    """One `turanhg` subprocess call; files are relative to its working directory."""

    id: str
    argv: list[str]
    code: int  # expected exit code
    check: Callable[[str, Path], list[str]]  # (stdout, workdir) -> problems


@dataclass
class Workload:
    jobs: list[Job]
    cli: list[CliCall]
    cli_inputs: dict[str, str]  # files written into the CLI working directory


# --- independent answers ---------------------------------------------------


def odd_meet(n1: int, n2: int, k: int) -> int:
    """2k-subsets meeting a part of size n1 (other part n2) in an odd count."""
    return sum(C(n1, i) * C(n2, 2 * k - i) for i in range(1, 2 * k, 2))


def odd_degree(own: int, other: int, k: int) -> int:
    """Degree in the parity construction of a vertex in a part of size `own`."""
    return sum(C(own - 1, i - 1) * C(other, 2 * k - i) for i in range(1, 2 * k, 2))


def sizes(n: int, two_t: int) -> tuple[int, int]:
    return (n + two_t) // 2, (n - two_t) // 2


def best_shifts(n: int, k: int) -> tuple[int, tuple[int, ...]]:
    """Maximum parity edge count over every feasible 2t >= 0, and its maximizers."""
    values = {tt: odd_meet(*sizes(n, tt), k) for tt in range(n % 2, n + 1, 2)}
    best = max(values.values())
    return best, tuple(tt for tt, v in values.items() if v == best)


def kraw(m: int, n: int, x: int) -> int:
    return sum((-1) ** i * C(x, i) * C(n - x, m - i) for i in range(m + 1))


def xor_edges(n: int, k: int, p: int) -> int:
    """Edges of the GF(2)^p construction on equal blocks, by a character sum.

    Each nonzero character is -1 on half the label vectors, hence on n/2
    vertices, so the 2k-subsets with zero label sum number
    (C(n, 2k) + (2^p - 1) K_2k(n/2)) / 2^p.
    """
    zero, rem = divmod(C(n, 2 * k) + ((1 << p) - 1) * kraw(2 * k, n, n // 2), 1 << p)
    if rem or n % (1 << p):
        raise ValueError(f"the character sum needs 2^p | n, got n={n} p={p}")
    return C(n, 2 * k) - zero


def subsets(n: int, size: int) -> list[int]:
    bit = [1 << v for v in range(n)]
    return [sum(map(bit.__getitem__, c)) for c in combinations(range(n), size)]


def parity_edges(n: int, k: int, part1: int) -> list[int]:
    return [m for m in subsets(n, 2 * k) if (m & part1).bit_count() & 1]


def xor_block_edges(n: int, k: int, p: int) -> list[int]:
    block = n >> p
    out = []
    for combo in combinations(range(n), 2 * k):
        acc = 0
        for v in combo:
            acc ^= v // block
        if acc:
            out.append(sum(1 << v for v in combo))
    return out


def relabel(mask: int, perm: list[int]) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def expansion_problems(parts, k: int, r: int, edges: frozenset[int]) -> list[str]:
    """Why `parts` is not an expanded clique with r branch sets of size k in `edges`."""
    if parts is None or len(parts) != r:
        return [f"expected {r} branch sets, got {parts!r}"]
    if any(p.bit_count() != k for p in parts):
        return ["a branch set has the wrong size"]
    for p, q in combinations(parts, 2):
        if p & q:
            return ["branch sets are not pairwise disjoint"]
        if p | q not in edges:
            return [f"union {core.indices_of(p | q)} is not an edge"]
    return []


def _matchings(verts: tuple[int, ...]):
    if not verts:
        yield ()
        return
    for i in range(1, len(verts)):
        rest = verts[1:i] + verts[i + 1 :]
        for tail in _matchings(rest):
            yield ((1 << verts[0]) | (1 << verts[i]),) + tail


def has_expanded_triangle(n: int, edges: frozenset[int]) -> bool:
    """Brute force for k = 2: some 6 vertices split into 3 pairs with all unions edges."""
    for six in combinations(range(n), 6):
        for a, b, c in _matchings(six):
            if a | b in edges and a | c in edges and b | c in edges:
                return True
    return False


def every_non_edge_completes(n: int, edges: frozenset[int]) -> bool:
    """k = 2, r = 3 and `edges` free: does every added 4-set create an expanded triangle?"""
    pairs = subsets(n, 2)
    for e in subsets(n, 4):
        if e in edges:
            continue
        a, b, c, d = (1 << v for v in core.indices_of(e))
        splits = ((a | b, c | d), (a | c, b | d), (a | d, b | c))
        if not any(
            p | r in edges and q | r in edges
            for p, q in splits
            for r in pairs
            if not r & e
        ):
            return False
    return True


def per_vertex_bad_good(n: int, edges, mask1: int) -> list[tuple[int, int]]:
    bad = [0] * n
    good = [0] * n
    for e in edges:
        tally = good if (e & mask1).bit_count() & 1 else bad
        for v in core.indices_of(e):
            tally[v] += 1
    return list(zip(bad, good))


def census_by_counts(h: core.Hypergraph, part: construct.Bipartition) -> tuple[int, int, int, int]:
    """(good edges, bad edges, good non-edges, bad non-edges) without walking
    all C(n, 2k) tuples: bad edges by one pass over the edges, good tuples
    by the parity count of the part sizes.  The four sum to C(n, 2k)."""
    mask1 = part.mask(1)
    bad = sum(1 for e in h.edges if not (e & mask1).bit_count() & 1)
    good = odd_meet(*part.sizes(), h.k)
    good_edges = h.edge_count - bad
    return good_edges, bad, good - good_edges, C(h.n, 2 * h.k) - good - bad


def _census_text(values) -> str:
    names = ("good_edges", "bad_edges", "good_non_edges", "bad_non_edges")
    return "".join(f"{name} {v}\n" for name, v in zip(names, values))


def stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One integer from each of `count` log-uniform strata of [lo, hi)."""
    cuts = [round(lo * (hi / lo) ** (i / count)) for i in range(count + 1)]
    return [rng.randrange(a, max(a + 1, b)) for a, b in zip(cuts, cuts[1:])]


def _problems(*pairs: tuple[bool, str]) -> list[str]:
    return [msg for ok, msg in pairs if not ok]


def _stdout_is(in_process: Callable[[], str], independent: Callable[[], str] | None = None):
    """CLI check: stdout equals the in-process result, which equals the independent one."""

    def check(out: str, _workdir: Path) -> list[str]:
        want = in_process()
        found = [] if out == want else [f"stdout {out!r} differs from in-process {want!r}"]
        if independent is not None and want != independent():
            found.append(f"in-process {want!r} differs from the independent {independent()!r}")
        return found

    return check


# --- counts: closed forms, shadow bounds and trivial CLI calls --------------


def _counts(rng: random.Random) -> Workload:
    jobs: list[Job] = []

    def shift_job(n: int, k: int) -> Job:
        @cache
        def full_scan():
            return best_shifts(n, k)

        def check(rep, counts):
            found = _problems(
                (bool(rep.maximizers), "no maximizer"),
                *(
                    (odd_meet(*sizes(n, sh.two_t), k) == rep.max_edges, f"2t={sh.two_t} misses the maximum")
                    for sh in rep.maximizers
                ),
                *(
                    (odd_meet(*sizes(n, abs(sh.two_t + d)), k) <= rep.max_edges, f"2t={sh.two_t}{d:+} beats it")
                    for sh in rep.maximizers
                    for d in (-2, 2)
                    if abs(sh.two_t + d) <= n
                ),
            )
            if n <= 300:
                want = full_scan()
                got = (rep.max_edges, tuple(sh.two_t for sh in rep.maximizers))
                found += _problems((got == want, f"scan gives {want}, library {got}"))
            return found

        return Job(f"optimal_shift/n{n}k{k}", lambda t: t.call(krawtchouk.optimal_shift, n, k), check)

    def parity_count_job(n: int, k: int, two_t: int) -> Job:
        sh = krawtchouk.Shift(two_t)

        def run(t: Tracer):
            return (
                t.call(construct.parity_edge_count, n, k, sh),
                t.call(construct.parity_degree, n, k, sh, "large"),
                t.call(construct.parity_degree, n, k, sh, "small"),
            )

        def check(got, counts):
            e, dl, ds = got
            n1, n2 = sizes(n, two_t)
            return _problems(
                (e == odd_meet(n1, n2, k), "edge count"),
                (dl == odd_degree(n1, n2, k), "large-side degree"),
                (ds == odd_degree(n2, n1, k), "small-side degree"),
                (n1 * dl + n2 * ds == 2 * k * e, "degree sum differs from 2k * edges"),
            )

        return Job(f"parity_count/n{n}k{k}t{two_t}", run, check)

    def sidorenko_job(n: int, k: int, p: int) -> Job:
        def check(got, counts):
            return _problems((got == xor_edges(n, k, p), "differs from the character sum"))

        return Job(
            f"sidorenko_count/n{n}k{k}p{p}",
            lambda t: t.call(construct.sidorenko_edge_count, n, k, p),
            check,
        )

    def lovasz_job(label: str, fam: core.SetFamily, tight_x: int | None) -> Job:
        @cache
        def shadow_size():
            return len({m ^ (1 << v) for m in fam.members for v in core.indices_of(m)})

        def check(rep, counts):
            counts["shadow.members"] += fam.size
            found = _problems(
                (rep.size == fam.size, "size"),
                (rep.shadow_size == shadow_size(), "shadow size"),
                (rep.holds, "the Lovasz bound is a theorem but reads as failed"),
            )
            if tight_x is not None:
                found += _problems((rep.shadow_size == C(tight_x, fam.k - 1), "colex shadow is not tight"))
            return found

        return Job(f"lovasz/{label}", lambda t: t.call(shadow.check_lovasz_bound, fam), check)

    for k in range(2, 6):
        for n in stratified(rng, 4 * k, 4000, 24) + [100_000]:
            jobs.append(shift_job(n, k))
    for k in range(2, 6):
        for n in stratified(rng, 40, 3000, 6):
            top = min(math.isqrt(8 * k * n), n - 2) - 14
            first = n % 2 + 2 * rng.randrange(max(1, top // 2))
            jobs.extend(parity_count_job(n, k, first + 2 * j) for j in range(8))
    for p in (1, 2, 3):
        for k in range(2, 6):
            for _ in range(2):
                jobs.append(sidorenko_job(rng.randrange(2000 >> p, 100_000 >> p) << p, k, p))
    for k in range(2, 6):
        xs = [x for x in range(k, 60) if 100 <= C(x, k) <= 1500]
        for x in rng.sample(xs, 2):
            fam = core.set_family(x, k, subsets(x, k))
            jobs.append(lovasz_job(f"colex/x{x}k{k}", fam, x))
    for i in range(8):
        k = rng.choice((2, 3, 4))
        m = rng.randrange(10, 17)
        pool = subsets(m, k)
        size = rng.randrange(len(pool) // 4, min(len(pool), 1500) + 1)
        jobs.append(lovasz_job(f"random{i}/m{m}k{k}", core.set_family(m, k, rng.sample(pool, size)), None))

    cli = []
    for _ in range(2):
        n, k = rng.randrange(50, 3000), rng.randrange(2, 6)

        def tstar(n=n, k=k):
            rep = krawtchouk.optimal_shift(n, k)
            return "".join(f"{v}\n" for v in (rep.max_edges, *(s.two_t for s in rep.maximizers)))

        def tstar_scan(n=n, k=k):
            best, winners = best_shifts(n, k)
            return "".join(f"{v}\n" for v in (best, *winners))

        argv = ["kraw", "tstar", "--n", str(n), "--k", str(k)]
        cli.append(CliCall(f"tstar/n{n}k{k}", argv, 0, _stdout_is(cache(tstar), cache(tstar_scan))))
    for side in ("large", "small"):
        n, k = rng.randrange(50, 3000), rng.randrange(2, 6)
        tt = n % 2 + 2 * rng.randrange(math.isqrt(2 * k * n))
        n1, n2 = sizes(n, tt)
        own, other = (n1, n2) if side == "large" else (n2, n1)
        sh = krawtchouk.Shift(tt)
        base = ["--n", str(n), "--k", str(k), "--two-t", str(tt)]
        cli.append(
            CliCall(
                f"count_b/n{n}k{k}t{tt}",
                ["count", "b", *base],
                0,
                _stdout_is(
                    cache(lambda n=n, k=k, sh=sh: f"{construct.parity_edge_count(n, k, sh)}\n"),
                    lambda n1=n1, n2=n2, k=k: f"{odd_meet(n1, n2, k)}\n",
                ),
            )
        )
        cli.append(
            CliCall(
                f"count_d/n{n}k{k}t{tt}{side}",
                ["count", "d", *base, "--side", side],
                0,
                _stdout_is(
                    cache(lambda n=n, k=k, sh=sh, side=side: f"{construct.parity_degree(n, k, sh, side)}\n"),
                    lambda own=own, other=other, k=k: f"{odd_degree(own, other, k)}\n",
                ),
            )
        )
    return Workload(jobs, cli, {})


# --- certify: constructions, freeness proofs and witness searches -----------

CERTIFY_PARITY = ((2, 16), (2, 20), (2, 24), (2, 28), (3, 18))
CERTIFY_XOR = (16, 20)  # p = 2, k = 2: free at r = 5, copies at r = 4
# The n = 20 proof is a single 2 s call: a run gets too few samples of it
# for its fastest time to settle, so only the smaller ones run to proof.
CERTIFY_XOR_PROOF_MAX_N = 16
CERTIFY_MAXIMAL = (10, 11, 12, 13, 14)


def _certify(rng: random.Random) -> Workload:
    builds: list[Job] = []
    io: list[Job] = []
    degrees: list[Job] = []
    proofs: list[Job] = []
    copies: list[Job] = []
    maximal: list[Job] = []

    # Proofs run only where the paper proves freeness (parity at r = 3, XOR
    # at r = 2^p + 1); everywhere else a copy is expected and checked.
    def free_job(label: str, h: core.Hypergraph, r: int) -> Job:
        def check(got, counts):
            counts["freeness.aux_vertices"] += C(h.n, h.k)
            return _problems((got is None, f"reported a copy {got!r}"))

        return Job(f"free/{label}r{r}", lambda t: t.call(freeness.find_expansion, h, r, tag="free"), check)

    def copy_job(label: str, h: core.Hypergraph, r: int) -> Job:
        edges = h.edge_set()

        def check(got, counts):
            counts["freeness.aux_vertices"] += C(h.n, h.k)
            return expansion_problems(got, h.k, r, edges)

        return Job(f"copy/{label}r{r}", lambda t: t.call(freeness.find_expansion, h, r, tag="copy"), check)

    def io_job(label: str, h: core.Hypergraph) -> Job:
        def run(t: Tracer):
            text = t.call(core.write_hypergraph, h)
            return text, t.call(core.read_hypergraph, text)

        def check(got, counts):
            text, back = got
            counts["core.io_bytes"] += 2 * len(text.encode())
            return _problems((back == h, "read(write(h)) differs from h"))

        return Job(f"io/{label}", run, check)

    for k, n in CERTIFY_PARITY:
        _, winners = best_shifts(n, k)
        tt = winners[0]
        n1, n2 = sizes(n, tt)
        sh = krawtchouk.Shift(tt)
        canon = tuple(sorted(parity_edges(n, k, (1 << n1) - 1)))
        h = core.Hypergraph(n, k, canon)
        perm = rng.sample(range(n), n)
        side_of = [None] * n
        for v in range(n):
            side_of[perm[v]] = "large" if v < n1 else "small"
        h_rel = core.hypergraph(n, k, (relabel(e, perm) for e in canon))
        label = f"parity/n{n}k{k}t{tt}"

        def run_build(t: Tracer, n=n, k=k, sh=sh):
            (built, part) = t.call(construct.build_parity, n, k, sh)
            return built, part, t.call(construct.parity_edge_count, n, k, sh)

        def check_build(got, counts, canon=canon, n1=n1, n2=n2, k=k):
            built, part, count = got
            counts["construct.edges_built"] += built.edge_count
            return _problems(
                (built.edges == canon, "edges differ from the odd-meet enumeration"),
                (count == built.edge_count == odd_meet(n1, n2, k), "edge count"),
                (part.sizes() == (n1, n2), "part sizes"),
            )

        def run_degrees(t: Tracer, h=h_rel, n=n, k=k, sh=sh):
            return (
                t.call(core.vertex_degrees, h),
                t.call(construct.parity_degree, n, k, sh, "large"),
                t.call(construct.parity_degree, n, k, sh, "small"),
            )

        def check_degrees(got, counts, side_of=side_of, n1=n1, n2=n2, k=k):
            degs, dl, ds = got
            return _problems(
                (dl == odd_degree(n1, n2, k) and ds == odd_degree(n2, n1, k), "parity_degree"),
                (degs == [dl if s == "large" else ds for s in side_of], "vertex_degrees differs from parity_degree"),
            )

        builds.append(Job(f"build/{label}", run_build, check_build))
        io.append(io_job(f"{label}/relabelled", h_rel))
        degrees.append(Job(f"degrees/{label}/relabelled", run_degrees, check_degrees))
        proofs.append(free_job(label, h, 3))
        if k == 2:
            present = h_rel.edge_set()
            non_edges = [m for m in subsets(n, 4) if m not in present]
            extra = core.hypergraph(n, k, h_rel.edges + tuple(rng.sample(non_edges, 3)))
            copies.append(copy_job(f"{label}/relabelled+3", extra, 3))

    for n in CERTIFY_XOR:
        canon = tuple(sorted(xor_block_edges(n, 2, 2)))
        h = core.Hypergraph(n, 2, canon)
        perm = rng.sample(range(n), n)
        h_rel = core.hypergraph(n, 2, (relabel(e, perm) for e in canon))
        label = f"xor/n{n}p2"

        def run_build(t: Tracer, n=n):
            built, _ = t.call(construct.build_sidorenko, n, 2, 2)
            return built, t.call(construct.sidorenko_edge_count, n, 2, 2)

        def check_build(got, counts, canon=canon, n=n):
            built, count = got
            counts["construct.edges_built"] += built.edge_count
            return _problems(
                (built.edges == canon, "edges differ from the label-XOR enumeration"),
                (count == built.edge_count == xor_edges(n, 2, 2), "edge count"),
            )

        builds.append(Job(f"build/{label}", run_build, check_build))
        io.append(io_job(f"{label}/relabelled", h_rel))
        if n <= CERTIFY_XOR_PROOF_MAX_N:
            proofs.append(free_job(label, h, 5))
        copies.append(copy_job(f"{label}/relabelled", h_rel, 4))

    for n in CERTIFY_MAXIMAL:
        _, winners = best_shifts(n, 2)
        tt = winners[0]
        perm = rng.sample(range(n), n)
        part1 = relabel((1 << sizes(n, tt)[0]) - 1, perm)
        h = core.hypergraph(n, 2, parity_edges(n, 2, part1))

        @cache
        def expected(h=h):
            return every_non_edge_completes(h.n, h.edge_set())

        def check_maximal(got, counts, h=h, expected=expected):
            counts["freeness.aux_vertices"] += C(h.n, h.k)
            return _problems((got == expected(), f"maximal={got}, brute force says {expected()}"))

        maximal.append(
            Job(
                f"maximal/parity/n{n}t{tt}/relabelled",
                lambda t, h=h: t.call(freeness.is_maximal_free, h, 3, tag="maximal"),
                check_maximal,
            )
        )

    jobs = builds + io + degrees + proofs + copies + maximal

    cli: list[CliCall] = []

    def free_cli(file: str, r: int, free: bool, n: int, edges: Callable[[], list[int]], witness: bool = False):
        @cache
        def h():
            return core.hypergraph(n, 2, edges())

        @cache
        def in_process():
            got = freeness.find_expansion(h(), r)
            if got is None:
                return "free\n"
            return "".join(f"{line}\n" for line in ["copy", *(" ".join(map(str, core.indices_of(p))) for p in got if witness)])

        def check(out, workdir):
            found = _stdout_is(in_process)(out, workdir)
            found += _problems((out.startswith("free") == free, f"verdict {out.split()[:1]}, the paper says free={free}"))
            if witness and out.startswith("copy"):
                parts = [core.mask_of(int(v) for v in line.split()) for line in out.splitlines()[1:]]
                found += expansion_problems(parts, 2, r, h().edge_set())
            return found

        argv = ["check", "free", "--file", file, "--r", str(r)] + (["--witness"] if witness else [])
        return CliCall(f"check_free/{file}/r{r}", argv, 0 if free else 1, check)

    def construct_cli(file: str, argv: list[str], edges: Callable[[], list[int]], build) -> CliCall:
        @cache
        def in_process():
            return core.write_hypergraph(build()[0])

        def check(out, workdir):
            text = (workdir / file).read_text()
            return _problems(
                (out == "", "construct --out printed to stdout"),
                (text == in_process(), "file differs from the in-process construction"),
                (sorted(edges()) == list(core.read_hypergraph(text).edges), "file edges differ from the enumeration"),
            )

        return CliCall(f"construct/{file}", argv + ["--out", file], 0, check)

    for i, n in enumerate(rng.sample((10, 12, 14), 2)):
        tt = 2 * rng.randrange(n // 2 - 1)
        file = f"parity{i}.hg"
        edges = cache(lambda n=n, n1=sizes(n, tt)[0]: parity_edges(n, 2, (1 << n1) - 1))
        build = lambda n=n, tt=tt: construct.build_parity(n, 2, krawtchouk.Shift(tt))  # noqa: E731
        argv = ["construct", "parity", "--n", str(n), "--k", "2", "--two-t", str(tt)]
        cli.append(construct_cli(file, argv, edges, build))
        cli.append(free_cli(file, 3, True, n, edges))
    xor8 = cache(lambda: xor_block_edges(8, 2, 2))
    argv = ["construct", "sidorenko", "--n", "8", "--k", "2", "--p", "2"]
    cli.append(construct_cli("xor8.hg", argv, xor8, lambda: construct.build_sidorenko(8, 2, 2)))
    cli.append(free_cli("xor8.hg", 4, False, 8, xor8, witness=True))
    cli.append(free_cli("xor8.hg", 5, True, 8, xor8))
    return Workload(jobs, cli, {})


# --- repair: local search and census on perturbed parity constructions ------

REPAIR_CASES = tuple((2, n) for n in range(20, 33, 2)) + ((3, 18), (3, 19), (3, 20))
REPAIR_FLIP_SHARE = 0.05
REPAIR_STARTS = 8  # random starts per case: the moves a start needs vary with the seed
# CLI calls on the first start of these cases: five calls, so that neither
# the median nor the p75 of 40 falls between the samples of two of them
REPAIR_CLI = {(2, 20): ("census", "improve"), (2, 22): ("census",), (3, 18): ("census", "improve")}


def _repair(rng: random.Random) -> Workload:
    jobs: list[Job] = []
    cli_cases = []
    for k, n in REPAIR_CASES:
        _, winners = best_shifts(n, k)
        n1 = sizes(n, winners[0])[0]
        part1 = core.mask_of(rng.sample(range(n), n1))
        tuples = subsets(n, 2 * k)
        edges = {m for m in tuples if (m & part1).bit_count() & 1}
        edges.symmetric_difference_update(rng.sample(tuples, round(REPAIR_FLIP_SHARE * len(tuples))))
        h = core.hypergraph(n, k, edges)
        for s in range(REPAIR_STARTS):
            start = construct.Bipartition(n, tuple(rng.choice((1, 2)) for _ in range(n)))
            if s == 0 and (k, n) in REPAIR_CLI:
                cli_cases.append((f"k{k}n{n}", h, start, REPAIR_CLI[k, n]))

            def run(t: Tracer, h=h, start=start):
                trace: list[int] = []
                better = t.call(stability.improve_partition, h, start, trace=trace)
                return trace, better, t.call(stability.classify_tuples, h, better, force=True)

            verified: set = set()

            def check(got, counts, h=h, start=start, verified=verified):
                trace, better, census = got
                counts["stability.moves"] += len(trace) - 1
                counts["stability.tuples"] += C(h.n, 2 * h.k)
                counts["stability.bad_edges_removed"] += trace[0] - trace[-1]
                key = (tuple(trace), better.part_of, census)
                if key in verified:
                    return []
                tally = per_vertex_bad_good(h.n, h.edges, better.mask(1))
                found = _problems(
                    (trace[0] == census_by_counts(h, start)[1], "trace does not start at the start's bad edges"),
                    (all(a >= b for a, b in zip(trace, trace[1:])), "the bad-edge trace increases"),
                    (all(bad <= good for bad, good in tally), "a single move still improves the partition"),
                    (astuple(census) == census_by_counts(h, better), "census differs from the census by counts"),
                    (census.bad_edges == trace[-1], "census and trace end at different bad-edge counts"),
                )
                if not found:
                    verified.add(key)
                return found

            jobs.append(Job(f"repair/k{k}n{n}/start{s}", run, check))

    cli: list[CliCall] = []
    inputs: dict[str, str] = {}
    for label, h, start, commands in cli_cases:
        hfile, pfile = f"{label}.hg", f"{label}.part"
        inputs[hfile] = core.write_hypergraph(h)
        inputs[pfile] = stability.write_bipartition(start)

        def census_out(h=h, start=start):
            return _census_text(astuple(stability.classify_tuples(h, start, force=True)))

        def improve_out(h=h, start=start):
            return stability.write_bipartition(stability.improve_partition(h, start))

        files = ["--file", hfile, "--partition", pfile]
        census = _stdout_is(cache(census_out), cache(lambda h=h, start=start: _census_text(census_by_counts(h, start))))
        cli.append(CliCall(f"census/{label}", ["stability", "census", *files, "--force"], 0, census))
        if "improve" in commands:
            cli.append(CliCall(f"improve/{label}", ["stability", "improve", *files], 0, _stdout_is(cache(improve_out))))
    return Workload(jobs, cli, inputs)


# --- exact: certified branch and bound for k = 2 ----------------------------

EXACT_VALUES = {6: 10, 7: 20, 8: 40}
EXACT_RUNS = {6: 2, 7: 4, 8: 8}  # tie-break seeds per n and pass: n=8 proofs vary 13% in nodes with the seed
EXACT_BUDGET_N = 9
EXACT_BUDGET_NODES = 500
EXACT_BUDGET_RUNS = 3  # tie-break seeds per pass: the cost of a budget varies about 12% with the seed


def _exact(rng: random.Random) -> Workload:
    jobs: list[Job] = []

    def conflicts_job(n: int) -> Job:
        verified: set = set()

        def check(system, counts):
            counts["search.conflicts"] += len(system.conflicts)
            found = _problems(
                (len(system.items) == C(n, 4), "item count"),
                (len(system.conflicts) == 15 * C(n, 6), "conflict count is not 15 C(n, 6)"),
            )
            if not found and n not in verified:
                it = system.items
                for a, b, c in system.conflicts:
                    if (it[a] | it[b] | it[c]).bit_count() != 6 or any(
                        (x & y).bit_count() != 2 for x, y in ((it[a], it[b]), (it[a], it[c]), (it[b], it[c]))
                    ):
                        return [f"({a}, {b}, {c}) is not an expanded triangle"]
                verified.add(n)
            return found

        return Job(f"conflicts/n{n}", lambda t: t.call(search.conflict_triples, n), check)

    def search_job(n: int, seed: int, budget: int | None) -> Job:
        verified: set = set()
        floor = best_shifts(n, 2)[0]

        def run(t: Tracer):
            if budget is None:
                return t.call(search.exact_turan, n, seed=seed, tag="proof")
            return t.call(search.exact_turan, n, cap=n, seed=seed, max_nodes=budget, tag="budget")

        def check(res, counts):
            counts["search.nodes"] += res.nodes
            counts["search.proofs"] += res.proof_of_optimality
            if budget is None:
                found = _problems(
                    (res.value == EXACT_VALUES[n], f"value {res.value}, expected {EXACT_VALUES[n]}"),
                    (res.proof_of_optimality, "not certified"),
                )
            else:
                found = _problems(
                    (res.value >= floor, f"value {res.value} below the parity construction's {floor}"),
                    (not res.proof_of_optimality, "certified although the budget was cut"),
                    (res.nodes == budget + 1, f"{res.nodes} nodes under a budget of {budget}"),
                )
            found += _problems((res.witness.edge_count == res.value, "witness size differs from the value"))
            if not found and res.witness.edges not in verified:
                if has_expanded_triangle(n, res.witness.edge_set()):
                    return found + ["the witness contains an expanded triangle"]
                verified.add(res.witness.edges)
            return found

        kind = "proof" if budget is None else "budget"
        return Job(f"{kind}/n{n}/seed{seed}", run, check)

    for n in range(6, EXACT_BUDGET_N + 1):
        jobs.append(conflicts_job(n))
    for n, runs in EXACT_RUNS.items():
        for _ in range(runs):
            jobs.append(search_job(n, rng.randrange(1 << 31), None))
    for _ in range(EXACT_BUDGET_RUNS):
        jobs.append(search_job(EXACT_BUDGET_N, rng.randrange(1 << 31), EXACT_BUDGET_NODES))

    cli: list[CliCall] = []
    for n, tsv in ((6, False), (7, False), (7, True)):
        seed = rng.randrange(1 << 31)

        @cache
        def in_process(n=n, seed=seed, tsv=tsv):
            res = search.exact_turan(n, seed=seed)
            optimal = "true" if res.proof_of_optimality else "false"
            if tsv:
                return f"value\tnodes\toptimal\n{res.value}\t{res.nodes}\t{optimal}\n"
            return f"value {res.value}\nnodes {res.nodes}\noptimal {optimal}\n"

        def check(out, workdir, n=n, in_process=in_process, tsv=tsv):
            fields = out.split()
            value, optimal = (fields[3], fields[5]) if tsv else (fields[1], fields[5])
            return _stdout_is(in_process)(out, workdir) + _problems(
                ((value, optimal) == (str(EXACT_VALUES[n]), "true"), f"not a certified {EXACT_VALUES[n]}: {out!r}")
            )

        argv = ["search", "exact", "--n", str(n), "--seed", str(seed)] + (["--tsv"] if tsv else [])
        cli.append(CliCall(f"search/n{n}/seed{seed}", argv, 0, check))
    return Workload(jobs, cli, {})


WORKLOADS = {"counts": _counts, "certify": _certify, "repair": _repair, "exact": _exact}


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    return WORKLOADS[name](random.Random(seed))
