"""Exact maximum edge counts avoiding the 3-part expansion, vs the parity bound.

Runs the branch-and-bound oracle for each n up to the cap and tabulates
the certified optimum next to the best parity-construction count.  The
two differ below six vertices, where no expanded triangle fits and every
4-subset is allowed (n=5: exact 5, parity 4); the table also records
node counts and wall time so growth stays visible.

    python3 scripts/exact_turan_table.py --n-max 8
"""

import argparse
import time

from turanhg import krawtchouk, search


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-min", type=int, default=4)
    ap.add_argument("--n-max", type=int, default=8)
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()

    print("n\texact\tparity\tnodes\tseconds")
    for n in range(args.n_min, args.n_max + 1):
        t0 = time.monotonic()
        res = search.exact_turan(n, cap=args.n_max, seed=args.seed)
        dt = time.monotonic() - t0
        parity = krawtchouk.optimal_shift(n, 2).max_edges
        print(f"{n}\t{res.value}\t{parity}\t{res.nodes}\t{dt:.2f}")


if __name__ == "__main__":
    main()
