"""Slow, independent oracles that only the tests need.

Each recomputes something the package computes, by a route that shares
no code with it: elimination over Fraction for linalg's fraction-free
_rref (and the determinant that checks the Pfaffian), corner peeling
for the shifted standard tableau count, marked shifted tableaux for
Q_lambda, and every adjacent swap on exponent tuples for the symmetry
test on packed keys.  It also holds the textbook coefficients of the
operator recursions, c_ij, d_ij and x_i/(x_i -+ x_j), each one reduced
fraction, against which the steps' pair rows are checked.  Last come
the spectrum: the pairwise partial-fraction form of the Omega
eigenvalues, the tilde Omega eigenvalues read from the same R_lambda,
and the Harish-Chandra formula for the Omega_5 eigenvalue, which check
spectra's integer series; and the separating algebra R_n with its odd
power-sum witnesses, which checks the separation by the operators.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from schurq.algebra import Polynomial, Scalar, VariableCountMismatch, _coeff, substitute
from schurq.operators import _fraction
from schurq.qfunctions import StrictPartition, is_supersymmetric, power_sum


def reference_rref(rows, ncols):
    """Gauss-Jordan elimination over Fraction, the reference for linalg's fraction-free _rref.

    Returns (R, pivots, factor): every row of R is reduced, and factor is
    det A when A is square and invertible.
    """
    m = [[Fraction(_coeff(x)) for x in row] for row in rows]
    nrows = len(m)
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
            factor = -factor
        factor *= m[r][col]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * c for a, c in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots, factor


def rank(rows) -> int:
    return len(reference_rref(rows, len(rows[0]) if rows else 0)[1])


def determinant(rows) -> Fraction:
    """Determinant of a square matrix by elimination (independent of the Pfaffian)."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix is not square")
    _, pivots, factor = reference_rref(rows, len(rows))
    return factor if len(pivots) == len(rows) else Fraction(0)


def shifted_tableaux_enumerate(lam: StrictPartition) -> int:
    """Exhaustive count of shifted standard tableaux.

    Counts by peeling removable corners: cells whose removal leaves a
    shifted diagram of a strict partition.
    """

    @lru_cache(maxsize=None)
    def count(parts: tuple[int, ...]) -> int:
        if not parts:
            return 1
        total = 0
        for i, p in enumerate(parts):
            shrunk = parts[:i] + (p - 1,) + parts[i + 1 :]
            shrunk = tuple(x for x in shrunk if x > 0)
            ok = all(shrunk[a] > shrunk[a + 1] for a in range(len(shrunk) - 1))
            if ok and len(shrunk) in (len(parts), len(parts) - 1):
                total += count(shrunk)
        return total

    return count(lam.parts)


def marked_shifted_tableaux(lam: StrictPartition, n: int) -> Counter:
    """The coefficients of Q_lambda(x_1..x_n), by counting marked shifted tableaux.

    A marked shifted tableau of shape lambda fills row i of the shifted
    diagram (columns i..i+lambda_i-1) from 1' < 1 < 2' < 2 < .. < n' < n,
    weakly increasing along rows and columns, with each k at most once
    in a column and each k' at most once in a row.  Q_lambda is the sum
    of x^T over them, x^T holding the number of k and k' in exponent k
    (Macdonald, III.8).  Letters are coded 2k-1 for k' and 2k for k.
    """
    cells = [(r, c) for r, part in enumerate(lam.parts) for c in range(r, r + part)]
    filling: dict[tuple[int, int], int] = {}
    weight = [0] * n
    counts: Counter = Counter()

    def fill(index: int) -> None:
        if index == len(cells):
            counts[tuple(weight)] += 1
            return
        r, c = cells[index]
        left, up = filling.get((r, c - 1), 0), filling.get((r - 1, c), 0)
        for letter in range(max(left, up, 1), 2 * n + 1):
            if letter == (left if letter % 2 else up):
                continue  # k' twice in a row, or k twice in a column
            filling[r, c] = letter  # cells are filled in order, so only earlier ones are read
            weight[(letter - 1) // 2] += 1
            fill(index + 1)
            weight[(letter - 1) // 2] -= 1

    fill(0)
    return counts


def is_symmetric_by_adjacent_swaps(p) -> bool:
    """p is fixed by every adjacent swap x_i <-> x_(i+1), which generate S_n; on exponent tuples."""
    terms = dict(p.sorted_terms())
    for i in range(p.n - 1):
        swapped = {m[:i] + (m[i + 1], m[i]) + m[i + 2 :]: c for m, c in terms.items()}
        if swapped != terms:
            return False
    return True


def is_symmetric_by_all_permutations(p) -> bool:
    """p is fixed by every one of the n! permutations of x_1..x_n; on exponent tuples."""
    terms = dict(p.sorted_terms())
    return all({tuple([m[i] for i in perm]): c for m, c in terms.items()} == terms
               for perm in permutations(range(p.n)))


def coeff_c(n, i, j):
    """2 x_i x_j / (x_i^2 - x_j^2)."""
    return _fraction(n, 2, (i, j), [(i, j)], [(i, j)])


def coeff_d(n, i, j):
    """2 x_i^2 / (x_i^2 - x_j^2)."""
    return _fraction(n, 2, (i, i), [(i, j)], [(i, j)])


def coeff_minus(n, i, j):
    """x_i / (x_i - x_j)."""
    return _fraction(n, 1, (i,), diffs=[(i, j)])


def coeff_plus(n, i, j):
    """x_i / (x_i + x_j)."""
    return _fraction(n, 1, (i,), sums=[(i, j)])


def pairwise_omega_eigenvalue(lam: StrictPartition, k: int) -> Scalar:
    """The eigenvalue of Omega_k on Q_lambda for odd k = 2m + 1, in partial fractions.

    sum_i c_i (lambda_i (lambda_i - 1))^m, with c_i = lambda_i prod_(j != i)
    (l_i + l_j)(l_i - l_j - 1) / ((l_i - l_j)(l_i + l_j - 1)); an int when integral.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError(f"the Omega spectrum is defined for odd k >= 1, not k={k}")
    total = Fraction(0)
    for a in lam.parts:
        c = Fraction(a)
        for b in lam.parts:
            if b != a:
                c *= Fraction((a + b) * (a - b - 1), (a - b) * (a + b - 1))
        total += c * (a * (a - 1)) ** (k // 2)
    return _coeff(total)


def tilde_omega_eigenvalue(lam: StrictPartition, k: int) -> int:
    """The eigenvalue of tilde Omega_k on Q_lambda, k >= 1.

    sum_k eig(tilde Omega_k) t^k = (1 - R_lambda((1 - t)/t^2))/t, Lemma 1.21's
    substitution w = (1 - t)/t^2 in the Omega series (see spectra.omega_eigenvalue).
    Per part a the factor of R_lambda is (1 - t - a(a+1) t^2)/(1 - t - a(a-1) t^2),
    so the eigenvalue is -[t^(k+1)] of their product.
    """
    series = [1] + [0] * (k + 1)
    for a in lam.parts:
        num, den = (1, -1, -a * (a + 1)), (1, -1, -a * (a - 1))
        series = [sum(c * series[j - i] for i, c in enumerate(num) if i <= j) for j in range(k + 2)]
        for j in range(1, k + 2):  # divide by den, whose constant term is 1
            series[j] -= sum(c * series[j - i] for i, c in enumerate(den) if 1 <= i <= j)
    return -series[k + 1]


def hc_eigenvalue_omega5(lam: StrictPartition) -> Fraction:
    """p5 - 2 p1 p3 + (2/3) p1^3 + (1/3) p3, with p_r = sum lambda_i^r."""
    p1, p3, p5 = (sum(p**r for p in lam.parts) for r in (1, 3, 5))
    return p5 - 2 * p1 * p3 + Fraction(2 * p1**3 + p3, 3)


# ---------------------------------------------------------------------------
# The separating polynomial algebra
# ---------------------------------------------------------------------------


class NotInRn(Exception):
    """Symmetry or the cancellation property failed at construction."""


@dataclass(frozen=True)
class RnPolynomial:
    """Symmetric polynomial in t_1..t_n that is s-free after t_i=s, t_j=-s.

    Both properties are verified at construction; the remaining
    variables are left free during the cancellation check (the stronger
    reading of the defining substitution).
    """

    poly: Polynomial

    def __post_init__(self):
        p = self.poly
        if not p.is_symmetric():
            raise NotInRn("not symmetric")
        if not is_supersymmetric(p, p.n):
            raise NotInRn("depends on s after t_i=s, t_j=-s")

    @property
    def n(self) -> int:
        return self.poly.n

    def eval_at(self, point) -> Scalar:
        if len(point) != self.n:
            raise VariableCountMismatch("point length mismatch")
        return substitute(self.poly, dict(enumerate(point, 1))).coefficient(())


def odd_power_sum_rn(r: int, n: int) -> RnPolynomial:
    """sum t_i^r for odd r, the basic members of the algebra."""
    if r % 2 == 0:
        raise ValueError("only odd exponents cancel")
    return RnPolynomial(power_sum(r, n))


def rn_eigenvalue(r: RnPolynomial, lam: StrictPartition, n: int) -> Scalar:
    """r evaluated at lambda padded with zeros to n entries."""
    if lam.length > n:
        raise ValueError("partition longer than the variable count")
    if r.n != n:
        raise ValueError("variable count mismatch")
    point = list(lam.parts) + [0] * (n - lam.length)
    return r.eval_at(point)


class Inseparable(Exception):
    """No odd power sum up to 2n - 1 separates: a bug, since that bound always suffices."""


def separation_check(lam: StrictPartition, mu: StrictPartition, n: int) -> RnPolynomial:
    """The odd power sum p_r of smallest r with p_r(lambda) != p_r(mu).

    r <= 2n - 1 always suffices (Macdonald, III.8): with a the parts padded
    to n entries, sum_k q_k t^k = prod (1+a_i t)/(1-a_i t)
    = exp(2 sum_(r odd) p_r t^r / r), so p_1, p_3, .., p_(2n-1) fix
    q_0..q_2n.  Two ratios P(t)/P(-t) with deg P <= n that agree up to t^2n
    are equal, and the zeros -1/a_i of P give the nonzero parts.
    """
    if lam == mu:
        raise ValueError("partitions must be distinct")
    if lam.length > n or mu.length > n:
        raise ValueError("partition longer than the variable count")
    a = list(lam.parts) + [0] * (n - lam.length)
    b = list(mu.parts) + [0] * (n - mu.length)
    for r in range(1, 2 * n, 2):
        if sum(x**r for x in a) != sum(x**r for x in b):
            return odd_power_sum_rn(r, n)
    raise Inseparable(f"no odd power sum up to {2 * n - 1} separates {lam} and {mu}")
