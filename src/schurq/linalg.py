"""Dense exact linear algebra over Fraction (Gaussian elimination).

Matrices are lists of row lists.  Sizes here are tiny (tens of rows),
so plain fraction elimination is the right tool.
"""

from __future__ import annotations

from fractions import Fraction


class InconsistentSystem(Exception):
    pass


def _clone(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _rref(rows, rhs=None):
    """Gauss-Jordan elimination of A, applied to b alongside when given.

    Returns (R, c, pivots, factor): R is the reduced row echelon form of
    A, c is b (zeros when not given) after the same row operations,
    pivots[r] is the pivot column of row r of R, and factor is the
    product of the pivots times the sign of the row swaps, which is
    det A when A is square and invertible.
    """
    m = _clone(rows)
    b = [Fraction(x) for x in rhs] if rhs is not None else [Fraction(0)] * len(m)
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    factor = Fraction(1)
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            b[r], b[pivot] = b[pivot], b[r]
            factor = -factor
        factor *= m[r][col]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        b[r] *= inv
        for i in range(nrows):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * c for a, c in zip(m[i], m[r])]
                b[i] -= f * b[r]
        pivots.append(col)
    return m, b, pivots, factor


def rank(rows) -> int:
    return len(_rref(rows)[2])


def solve(rows, rhs) -> list[Fraction]:
    """Solve A x = b for a (possibly overdetermined) consistent system.

    Raises InconsistentSystem if no solution exists and ValueError if
    the solution is not unique.
    """
    _, b, pivots, _ = _rref(rows, rhs)
    if any(b[len(pivots):]):
        raise InconsistentSystem("right-hand side outside the column span")
    ncols = len(rows[0]) if rows else 0
    if len(pivots) < ncols:
        raise ValueError("underdetermined system")
    return b[:ncols]  # every column is a pivot, so row r of R reads x_r = c_r


def nullspace(rows) -> list[list[Fraction]]:
    """Basis of the kernel of A."""
    m, _, pivots, _ = _rref(rows)
    ncols = len(rows[0]) if rows else 0
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, col in enumerate(pivots):
            v[col] = -m[row][fc]
        basis.append(v)
    return basis


def determinant(rows) -> Fraction:
    """Determinant of a square matrix by fraction elimination (independent of the Pfaffian)."""
    _, _, pivots, factor = _rref(rows)
    return factor if len(pivots) == len(rows) else Fraction(0)
