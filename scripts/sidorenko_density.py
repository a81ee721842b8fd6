"""Density of the GF(2)-labelled construction under doubling.

For each label dimension p the edge density of the XOR construction
approaches (r-2)/(r-1) with r = 2^p + 1.  This prints the exact density
and its gap to the limit for n = start, 2*start, 4*start, ...; counts
are sums of 2^p - 1 parity counts, so large n stays cheap.

    python3 scripts/sidorenko_density.py --p-max 3 --doublings 6
"""

import argparse
from fractions import Fraction

from turanhg import construct, core


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--p-max", type=int, default=2)
    ap.add_argument("--doublings", type=int, default=5)
    args = ap.parse_args()

    print("p\tn\tedges\tdensity\tgap_to_limit")
    for p in range(1, args.p_max + 1):
        r = 2 ** p + 1
        target = Fraction(r - 2, r - 1)
        n = 2 ** p * 2 * args.k  # smallest block-divisible n with edges
        for _ in range(args.doublings):
            e = construct.sidorenko_edge_count(n, args.k, p)
            dens = Fraction(e, core.binom_exact(n, 2 * args.k))
            gap = abs(dens - target)
            print(f"{p}\t{n}\t{e}\t{float(dens):.6f}\t{float(gap):.6f}")
            n *= 2


if __name__ == "__main__":
    main()
