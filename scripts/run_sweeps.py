#!/usr/bin/env python3
"""Run every verification sweep at desk scale and exit nonzero on failure.

One PASS/FAIL line per sweep goes to stdout; each sweep's wall time goes
to stderr in milliseconds, so stdout stays byte-identical from run to run.
"""

import sys
from time import perf_counter

from schurq import spectra


def main() -> int:
    failed = 0
    for spec in spectra.SWEEPS.values():
        for n in spec.desk_n:
            start = perf_counter()
            report = spec.sweep(n, spec.desk_max)
            elapsed_ms = 1000 * (perf_counter() - start)
            print(report.to_text())
            print(f"{report.name}: {elapsed_ms:.1f} ms", file=sys.stderr)
            failed += not report.passed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
