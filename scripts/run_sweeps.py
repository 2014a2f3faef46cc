#!/usr/bin/env python3
"""Run every verification sweep at desk scale and exit nonzero on failure."""

import sys

from schurq import spectra


def main() -> int:
    failed = 0
    for spec in spectra.SWEEPS.values():
        for n in spec.desk_n:
            report = spec.sweep(n, spec.desk_max)
            status = "PASS" if report.passed else "FAIL"
            print(f"{report.name}: {status} ({report.checked} checks)")
            for failure in report.failures:
                print(f"  {failure}")
            failed += not report.passed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
