#!/usr/bin/env python3
"""Print the Omega_1/3/5 spectrum on Q_lambda for all strict partitions,
read from one walk of each Q_lambda's operator levels, beside the
formula3 column p3 - p1^2 (spectra.hc_eigenvalue_omega3).

Exits 1 when an entry is NOT EIGEN or differs from the closed form
spectra.omega_eigenvalue, the integer series of R_lambda, after printing
the whole table.
"""

import argparse
import sys

from schurq.algebra import format_fraction
from schurq.qfunctions import strict_partitions
from schurq.spectra import hc_eigenvalue_omega3, omega_checks, omega_eigenvalue


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--max", type=int, default=8, help="maximum weight")
    args = parser.parse_args(argv)

    header = f"{'lambda':>10} {'omega1':>8} {'omega3':>8} {'omega5':>10} {'formula3':>10}"
    print(header)
    print("-" * len(header))
    wrong = 0
    for d in range(1, args.max + 1):
        for lam in strict_partitions(d, max_length=args.n):
            evs = {}
            for k, rep in omega_checks(lam, args.n).items():
                evs[k] = format_fraction(rep.eigenvalue) if rep.is_eigen else "NOT EIGEN"
                wrong += not rep.is_eigen or rep.eigenvalue != omega_eigenvalue(lam, k)
            print(
                f"{str(lam):>10} {evs[1]:>8} {evs[3]:>8} "
                f"{evs[5]:>10} {format_fraction(hc_eigenvalue_omega3(lam)):>10}"
            )
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
