"""Dense exact linear algebra over the rationals (Gaussian elimination).

Matrices are lists of row lists.  One fraction-free elimination (_rref,
on int) serves solve and nullspace (which drops all-zero rows first),
whose results hold canonical scalars.  coordinates(basis, targets) solves
on every monomial; it builds the operator matrices on the Q-span, one
elimination per degree.  The odd power-sum expansions solve on dominant
monomials only (qfunctions.expand_in_power_sums).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import Scalar, _coeff


class InconsistentSystem(Exception):
    pass


def _rref(rows, ncols):
    """Gauss-Jordan elimination, pivoting only in the first ncols columns.

    Returns (R, pivots): pivots[r] is the pivot column of row r of R, and
    the rows R[:len(pivots)] are the reduced row echelon form (columns
    past ncols, such as an appended right-hand side, only follow the row
    operations).  Rows below the rank are left as unreduced ints.

    Fraction-free (Bareiss): rows are scaled to integers once, and each
    step sets every other row to (p row - f pivot_row) // prev, p the
    pivot and prev the one before.  Sylvester's identity makes that exact
    and leaves every pivot equal to the last, which divides the pivot rows.
    """
    m = [[x if type(x) is int else _coeff(x) for x in row] for row in rows]
    scales = [math.lcm(*(x.denominator for x in row)) for row in m]
    m = [row if s == 1 else [x.numerator * (s // x.denominator) for x in row] for row, s in zip(m, scales)]
    nrows = len(m)
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[col]
        for i in range(nrows):
            f = m[i][col]
            if i != r and (f or p != prev):
                m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], top)]
        prev = p
        pivots.append(col)
    for r in range(len(pivots)):
        m[r] = [x // prev if x % prev == 0 else Fraction(x, prev) for x in m[r]]
    return m, pivots


def solve(rows, rhs):
    """Solve A x = b for a (possibly overdetermined) consistent system.

    b has one entry per row of A.  When each entry is itself a row (b is
    a matrix B), all of B's columns are solved in one elimination and
    the solution X of A X = B comes back as rows too.  Raises
    InconsistentSystem if some column has no solution, and ValueError if
    the solution is not unique or b has not one entry per row of A.
    """
    ncols = len(rows[0]) if rows else 0
    several = bool(rhs) and isinstance(rhs[0], (list, tuple))
    augmented = [[*row, *(b if several else (b,))] for row, b in zip(rows, rhs, strict=True)]
    m, pivots = _rref(augmented, ncols)
    if any(any(row[ncols:]) for row in m[len(pivots):]):
        raise InconsistentSystem("right-hand side outside the column span")
    if len(pivots) < ncols:
        raise ValueError("underdetermined system")
    # every column is a pivot, so row r of R reads x_r = R[r][ncols:]
    return [row[ncols:] if several else row[ncols] for row in m[:ncols]]


def coordinates(basis, targets):
    """Coordinates of each target in a polynomial basis, all in one elimination.

    Returns the matrix whose column c holds the coordinates x with
    targets[c] = sum x_k basis[k].  The rows run over every monomial of
    the basis and of the targets, so a target outside the span raises
    InconsistentSystem rather than being truncated, and a dependent basis
    raises ValueError.
    """
    # with no monomial at all, one zero row still gives the system len(basis) columns
    monomials = sorted({m for p in (*basis, *targets) for m in p.terms}) or [None]
    rows = [[p.terms.get(m, 0) for p in basis] for m in monomials]
    return solve(rows, [[t.terms.get(m, 0) for t in targets] for m in monomials])


def nullspace(rows) -> list[list[Scalar]]:
    """Basis of the kernel of A; all-zero rows constrain nothing and are not eliminated."""
    ncols = len(rows[0]) if rows else 0
    m, pivots = _rref([row for row in rows if any(row)], ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [int(c == fc) for c in range(ncols)]
        for row, col in enumerate(pivots):
            v[col] = -m[row][fc]
        basis.append(v)
    return basis
