"""Scan the edge-maximizing bipartition shifts over a range of n.

Prints one TSV row per n: the maximizing shifts (as 2t), the maximum
edge count, and its deficit against half of C(n, 2k).  Useful for
eyeballing how fast t* settles near sqrt(3n/4) and where ties occur.

    python3 scripts/tstar_scan.py --k 2 --n-max 100
"""

import argparse

from turanhg import core, krawtchouk


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--n-min", type=int, default=None)
    ap.add_argument("--n-max", type=int, default=100)
    args = ap.parse_args()

    n_min = args.n_min if args.n_min is not None else 2 * args.k
    print("n\ttwo_t\tmax_edges\thalf_deficit")
    for n in range(n_min, args.n_max + 1):
        rep = krawtchouk.optimal_shift(n, args.k)
        shifts = ",".join(str(s.two_t) for s in rep.maximizers)
        deficit = core.binom_exact(n, 2 * args.k) - 2 * rep.max_edges
        print(f"{n}\t{shifts}\t{rep.max_edges}\t{deficit}")


if __name__ == "__main__":
    main()
