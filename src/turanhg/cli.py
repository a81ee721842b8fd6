"""Command line front end.

Exit codes: 0 on success, 1 when a check comes back negative (a copy is
found, a coloring or bound check fails, a run is flagged), 2 on usage
or I/O errors.  Numeric output is printed as exact decimal strings of
any length (_text); commands with tabular output take --tsv to emit
tab-separated rows with a header line.  Each command imports only the
library modules it runs, so parsing, --help and usage errors load none
of them.
"""

from __future__ import annotations

import argparse
import sys


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _text(value) -> str:
    """str(value) at any length: Python's int -> str digit limit (3.10.7
    and later) is lifted for this conversion only, so readers keep it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return str(value)
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _record(tsv: bool = False, **fields) -> None:
    """Print fields as `name value` lines, or as a TSV header and one row."""
    values = [str(v).lower() if isinstance(v, bool) else _text(v) for v in fields.values()]
    if tsv:
        print("\t".join(fields))
        print("\t".join(values))
    else:
        for name, value in zip(fields, values):
            print(f"{name} {value}")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="turanhg",
        description="Constructions, counts and checks for 2k-uniform "
        "extremal hypergraphs.",
    )
    top.add_argument(
        "--threads",
        type=int,
        default=1,
        metavar="T",
        help="upper bound on worker threads (computations may use fewer)",
    )
    sub = top.add_subparsers(dest="command", required=True)

    kraw = sub.add_parser("kraw", help="Krawtchouk polynomial values")
    kraw_sub = kraw.add_subparsers(dest="subcommand", required=True)
    p = kraw_sub.add_parser("eval", help="K_m^n(x)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p = kraw_sub.add_parser("row", help="K_m^n(x) for m = 0..n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p = kraw_sub.add_parser("tstar", help="edge-maximizing shifts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    form = p.add_mutually_exclusive_group()
    form.add_argument("--one", action="store_true", help="print only the smallest 2t")
    form.add_argument("--tsv", action="store_true")

    cons = sub.add_parser("construct", help="build hypergraphs")
    cons_sub = cons.add_subparsers(dest="subcommand", required=True)
    p = cons_sub.add_parser("parity", help="parity bipartition construction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--two-t", type=int, required=True, help="the shift t, doubled")
    p.add_argument("--out", metavar="FILE")
    p = cons_sub.add_parser("sidorenko", help="GF(2)^p labelled construction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--allow-remainder", action="store_true")
    p.add_argument("--out", metavar="FILE")

    count = sub.add_parser("count", help="closed-form counts")
    count_sub = count.add_subparsers(dest="subcommand", required=True)
    p = count_sub.add_parser("b", help="parity construction edge count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--two-t", type=int, required=True)
    p = count_sub.add_parser("d", help="parity construction vertex degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--two-t", type=int, required=True)
    p.add_argument("--side", choices=("large", "small"), required=True)

    check = sub.add_parser("check", help="expanded-clique checks")
    check_sub = check.add_subparsers(dest="subcommand", required=True)
    p = check_sub.add_parser("free", help="search for an expanded clique")
    p.add_argument("--file", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--witness", action="store_true")
    p = check_sub.add_parser("maximal", help="is the hypergraph maximally free")
    p.add_argument("--file", required=True)
    p.add_argument("--r", type=int, required=True)

    color = sub.add_parser("color", help="complete-graph edge colorings")
    color_sub = color.add_subparsers(dest="subcommand", required=True)
    p = color_sub.add_parser("gen", help="XOR coloring of K_{2^p}")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--out", metavar="FILE")
    p = color_sub.add_parser("verify", help="matching and 4-set checks")
    p.add_argument("--file", required=True)
    p = color_sub.add_parser("group", help="reconstruct the color group")
    p.add_argument("--file", required=True)

    p = sub.add_parser("shadow", help="shadow size against the real-x bound")
    p.add_argument("--file", required=True)
    p.add_argument("--tsv", action="store_true")

    stab = sub.add_parser("stability", help="partition quality procedures")
    stab_sub = stab.add_subparsers(dest="subcommand", required=True)
    p = stab_sub.add_parser("census", help="good/bad tuple census")
    p.add_argument("--file", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--force", action="store_true", help="has no effect")
    p.add_argument("--tsv", action="store_true")
    p = stab_sub.add_parser("improve", help="local-search partition improvement")
    p.add_argument("--file", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--out", metavar="FILE")
    p = stab_sub.add_parser("simonovits", help="s-class partition of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--s", type=int, required=True)

    srch = sub.add_parser("search", help="exact extremal values")
    srch_sub = srch.add_subparsers(dest="subcommand", required=True)
    p = srch_sub.add_parser("exact", help="exact maximum for k = 2")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=8)
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--max-nodes", type=int, metavar="N", help="cut the search after N nodes (optimal false)"
    )
    p.add_argument("--witness", metavar="FILE")
    p.add_argument("--tsv", action="store_true")

    return top


def _cmd_kraw(args) -> int:
    from . import krawtchouk

    if args.subcommand == "eval":
        print(_text(krawtchouk.kraw_eval(args.m, args.n, args.x)))
        return 0
    if args.subcommand == "row":
        print("\n".join(map(_text, krawtchouk.genfunc_row(args.n, args.x))))
        return 0
    report = krawtchouk.optimal_shift(args.n, args.k)
    if args.one:
        print(report.maximizers[0].two_t)
    elif args.tsv:
        print("two_t\tmax_edges")
        for sh in report.maximizers:
            print(f"{sh.two_t}\t{_text(report.max_edges)}")
    else:
        print(_text(report.max_edges))
        for sh in report.maximizers:
            print(sh.two_t)
    return 0


def _cmd_construct(args) -> int:
    from . import construct, core

    if args.subcommand == "parity":
        h, _ = construct.build_parity(args.n, args.k, construct.Shift(args.two_t))
    else:
        h, _ = construct.build_sidorenko(
            args.n, args.k, args.p, allow_remainder=args.allow_remainder
        )
    _emit(core.write_hypergraph(h), args.out)
    return 0


def _cmd_count(args) -> int:
    from . import construct

    sh = construct.Shift(args.two_t)
    if args.subcommand == "b":
        print(_text(construct.parity_edge_count(args.n, args.k, sh)))
    else:
        print(_text(construct.parity_degree(args.n, args.k, sh, args.side)))
    return 0


def _cmd_check(args) -> int:
    from . import core, freeness

    h = core.read_hypergraph(_read_text(args.file))
    if args.subcommand == "free":
        copy = freeness.find_expansion(h, args.r)
        if copy is None:
            print("free")
            return 0
        print("copy")
        if args.witness:
            for part in copy:
                print(" ".join(map(str, core.indices_of(part))))
        return 1
    if freeness.is_maximal_free(h, args.r):
        print("maximal")
        return 0
    print("not-maximal")
    return 1


def _cmd_color(args) -> int:
    from . import algebra

    if args.subcommand == "gen":
        _emit(algebra.write_coloring(algebra.generate_gf2_coloring(args.p)), args.out)
        return 0
    coloring = algebra.read_coloring(_read_text(args.file))
    if args.subcommand == "verify":
        report = algebra.verify_coloring(coloring)
        _record(
            full_coloring=report.is_full_coloring,
            perfect_matchings=report.every_color_perfect_matching,
            four_set_condition=report.four_set_condition,
        )
        if report.first_violation is not None:
            _record(first_violation=" ".join(map(str, report.first_violation)))
        return 0 if report.passed else 1
    try:
        group = algebra.build_group(coloring)
    except algebra.GroupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    _record(order=group.order, dimension=group.dimension)
    for row in group.table:
        _record(t=" ".join(map(str, row)))
    return 0


def _cmd_shadow(args) -> int:
    from . import shadow

    fam = shadow.read_family(_read_text(args.file))
    report = shadow.check_lovasz_bound(fam)
    _record(
        args.tsv,
        size=report.size,
        x=report.x,
        bound=report.bound,
        shadow_size=report.shadow_size,
        holds=report.holds,
    )
    return 0 if report.holds else 1


def _cmd_stability(args) -> int:
    from . import core, stability

    if args.subcommand == "simonovits":
        g = stability.read_graph(_read_text(args.graph))
        report = stability.simonovits_partition(g, args.s)
        failure = report.hypothesis_failure or "none"
        _record(
            internal_edges=report.internal_edges,
            hypothesis_failure=failure.replace(" ", "-"),
        )
        for part_idx, part in enumerate(report.parts, start=1):
            for v in part:
                _record(p=f"{v} {part_idx}")
        return 0 if report.hypothesis_failure is None else 1

    h = core.read_hypergraph(_read_text(args.file))
    part = stability.read_bipartition(_read_text(args.partition), h.n)
    if args.subcommand == "census":
        import dataclasses  # already loaded: TupleCensus is a dataclass

        census = stability.classify_tuples(h, part, force=args.force)
        _record(args.tsv, **dataclasses.asdict(census))
        return 0
    improved = stability.improve_partition(h, part)
    _emit(stability.write_bipartition(improved), args.out)
    return 0


def _cmd_search(args) -> int:
    from . import core, search

    if 8 < args.n <= args.cap:
        print(
            f"warning: exact search above n=8 grows quickly (n={args.n})",
            file=sys.stderr,
        )
    result = search.exact_turan(
        args.n, cap=args.cap, seed=args.seed, max_nodes=args.max_nodes
    )
    if args.witness:
        _emit(core.write_hypergraph(result.witness), args.witness)
    _record(
        args.tsv,
        value=result.value,
        nodes=result.nodes,
        optimal=result.proof_of_optimality,
    )
    return 0


_DISPATCH = {
    "kraw": _cmd_kraw,
    "construct": _cmd_construct,
    "count": _cmd_count,
    "check": _cmd_check,
    "color": _cmd_color,
    "shadow": _cmd_shadow,
    "stability": _cmd_stability,
    "search": _cmd_search,
}


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[args.command](args)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
