"""Radial differential operators acting on exact rational functions.

Everything acts on concrete values: the level-k recursion is evaluated
on the vector of level-(k-1) images rather than composed symbolically.
Coefficients like 2*x_i*x_j/(x_i^2-x_j^2) are stored with factored
denominators, and the steps only add and multiply: the arithmetic keeps
each value reduced and tries only the factors that can cancel (see
RationalFunction._reduce).

Both walks (family_levels, tilde_levels) start from one level 1,
_first_level: the values D_i g of the input g, whose form decides the
walk's path.  Each walk builds one coefficient table at its first step
past level 1, _rows(n, c, symmetric): row i holds (j, c x_ix_j, c x_i^2,
inv) for its pairs, c = 2 for the plain family and c = 1 for the tilde
one.  Each value is one _fraction, and inv = 1/((x_i-x_j)(x_i+x_j))
carries the sign of a reversed x_i - x_j, so every pair term is one
fraction over inv.  The steps (family_step, tilde_family_step) are walk
internals and take the walk's table.  The coefficients permute with
their indices, so when the input is a symmetric polynomial (no
denominator, and num.is_symmetric()) every level is equivariant:
component j is component 1 under the transposition x_1 <-> x_j.  Such a
walk computes component 1 only, and its levels (_Level) build component
j from it when a caller first reads it: a step reads components 1 and 2,
and the level sums (omega, omegas, tilde_omega) add the orbit of
component 1 (_total).  Component 1 is fixed by every permutation of
x_2..x_n, so x_2 <-> x_j maps p_1 to p_1, p_2 to p_j and the (1, 2)
coefficients to the (1, j) ones: row 1 holds the pair (1, 2) alone, and
each step adds its term's transposes for j = 3..n (_orbit), exactly.  An
orbit of a value without a denominator is summed in one term map
(Polynomial.plus_transposes); a value with one adds its
RationalFunction.transposed images.  Any other input (a monomial, a
rational function with a denominator) takes the n-component step, with n
rows.  Both paths yield levels of n components, and their values are
equal.  No CLI command, verify suite or perfbench workload reaches the
n-component step; library calls on non-symmetric inputs and the tests
do.

Level 1 sums to the Euler derivation E g, so omega(g, 1, n) and the
first value of omegas read g alone (RationalFunction.total_euler): every
factor of D in g = N/D is a binomial of degree 1, so E D = deg(D) D and
E g = (E N - deg(D) N)/D exactly, one pass over N.  The tilde walk's
level 1 is that level as both plain and barred, so tilde_omega(g, 1, n)
is 2 E g, read the same way.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations, count, islice
from typing import Iterator, Union

from .algebra import Factor, Polynomial, RationalFunction, VariableCountMismatch

Value = Union[Polynomial, RationalFunction]
Pair = tuple[Sequence[RationalFunction], Sequence[RationalFunction]]  # (plain, barred) of the tilde family


def _lift(f: Value, n: int) -> RationalFunction:
    """f as a RationalFunction, refused unless it has the operators' n variables."""
    if f.n != n:
        raise VariableCountMismatch(f"{f.n} vs {n} variables")
    if isinstance(f, Polynomial):
        return RationalFunction.from_polynomial(f)
    return f


def _fraction(n: int, c, xs, diffs=(), sums=()) -> RationalFunction:
    """c * prod_{i in xs} x_i / (prod_diffs (x_i - x_j) * prod_sums (x_i + x_j)).

    Each pair (i, j) is stored as i < j; every swapped difference negates c once.
    """
    exps = [0] * n
    for i in xs:
        exps[i - 1] += 1
    den: dict[Factor, int] = {}
    for kind, pairs in (("diff", diffs), ("sum", sums)):
        for i, j in pairs:
            f, sign = Factor.ordered(kind, i, j)
            c *= sign
            den[f] = den.get(f, 0) + 1
    return RationalFunction(Polynomial.monomial(n, exps, c), den)


# ---------------------------------------------------------------------------
# One walk's coefficients and its symmetric path
# ---------------------------------------------------------------------------

Rows = list[list[tuple]]


def _symmetric(g: RationalFunction) -> bool:
    """The exact test that puts a walk on the one-component path."""
    return not g.den and g.num.is_symmetric()


def _rows(n: int, c: int, symmetric: bool) -> Rows:
    """Row i lists (j, c x_ix_j, c x_i^2, inv) for every j != i, inv = 1/((x_i-x_j)(x_i+x_j));
    a symmetric walk gets row 1 with j = 2 alone.  c = 2 gives the plain numerators, c = 1 the tilde ones."""
    if symmetric:
        pairs = [[(1, 2)] if n > 1 else []]
    else:
        pairs = [[(i, j) for j in range(1, n + 1) if j != i] for i in range(1, n + 1)]
    return [
        [(j, _fraction(n, c, (i, j)), _fraction(n, c, (i, i)), _fraction(n, 1, (), [(i, j)], [(i, j)])) for i, j in row]
        for row in pairs
    ]


def _orbit(value: RationalFunction, pairs: list[tuple[int, int]]) -> RationalFunction:
    """value plus its transposes x_a <-> x_b, (a, b) in pairs; in one term map when value has no denominator."""
    if not pairs:
        return value
    if not value.den:
        return RationalFunction.from_polynomial(value.num.plus_transposes(pairs))
    return sum((value.transposed(a, b) for a, b in pairs), value)


class _Level(Sequence):
    """Components 1..n of a symmetric walk's level: component j is x_1 <-> x_j
    applied to component 1, built when it is first read, and kept."""

    __slots__ = ("_parts",)

    def __init__(self, first: RationalFunction, n: int):
        self._parts: list = [first] + [None] * (n - 1)

    def __len__(self) -> int:
        return len(self._parts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self._parts)))]
        part = self._parts[i]
        if part is None:
            i %= len(self._parts)
            part = self._parts[i] = self._parts[0].transposed(1, i + 1)
        return part

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"_Level({list(self)!r})"


def _total(level: Sequence[RationalFunction]) -> RationalFunction:
    """The sum of a level's components; a symmetric level's is the orbit of component 1."""
    if isinstance(level, _Level):
        return _orbit(level[0], [(1, j) for j in range(2, len(level) + 1)])
    return sum(level, RationalFunction.zero(level[0].n))


def _first_level(f: Value, n: int) -> Sequence[RationalFunction]:
    """Level 1 of either walk, (D_i g)_i for g = f lifted: a _Level of D_1 g on a
    symmetric walk, else the n values D_i g.  It decides the walk's path."""
    g = _lift(f, n)
    if _symmetric(g):
        return _Level(g.euler(1), n)
    return [g.euler(i) for i in range(1, n + 1)]


# ---------------------------------------------------------------------------
# The plain family and Omega_k
# ---------------------------------------------------------------------------


def family_step(prev: Sequence[RationalFunction], level: int, rows: Rows) -> Sequence[RationalFunction]:
    """Advance the vector (D_i^{(k-1)} f) to level k = level.

    Odd k:  D_i prev_i + sum_j 2x_ix_j/(x_i^2-x_j^2) (prev_i - prev_j).
    Even k: (D_i - 1) prev_i
            + sum_j [2x_ix_j/(x_i^2-x_j^2) prev_i - 2x_i^2/(x_i^2-x_j^2) prev_j].

    rows is the walk's table, _rows(n, 2, symmetric).  With n rows every
    component is computed, and the result is a list.  With row 1 alone prev
    is a symmetric level: the step reads its components 1 and 2, adds the
    (1, 2) pair term's transposes x_2 <-> x_j (_orbit) and returns a _Level.

    c_ij and d_ij share their denominator, so with inv = 1/((x_i-x_j)(x_i+x_j))
    (one _fraction, carrying the sign of a reversed x_i - x_j) each pair of
    either parity adds one fraction, 2x_ix_j (prev_i - prev_j) * inv or
    (2x_ix_j prev_i - 2x_i^2 prev_j) * inv, and only its sum is tried against
    the binomials: on an eigenfunction it divides, where c_ij prev_i does not.
    """
    n = len(prev)
    others = [(2, j) for j in range(3, n + 1)] if len(rows) < n else []
    out = []
    for i, row in enumerate(rows, 1):
        pi = prev[i - 1]
        acc = pi.euler(i)
        if level % 2 == 0:
            acc = acc - pi
        for j, cn, dn, inv in row:
            pj = prev[j - 1]
            term = ((pi - pj) * cn if level % 2 else pi * cn - pj * dn) * inv
            acc = acc + _orbit(term, others)
        out.append(acc)
    if len(rows) < n:
        return _Level(out[0], n)
    return out


def family_levels(f: Value, n: int) -> Iterator[Sequence[RationalFunction]]:
    """Yield (D_i^{(k)} f)_i for k = 1, 2, ...: D_i f, then one family_step per level;
    on a symmetric walk each level, the first too, is a _Level."""
    values = _first_level(f, n)
    yield values
    rows = _rows(n, 2, isinstance(values, _Level))
    for level in count(2):
        values = family_step(values, level, rows)
        yield values


def omega(f: Value, k: int, n: int) -> RationalFunction:
    """Omega_k f = sum_i D_i^{(k)} f, for odd k; Omega_1 = sum_i x_i d/dx_i is the Euler
    derivation E, read from f alone (RationalFunction.total_euler) with no walk."""
    if k < 1 or k % 2 == 0:
        raise ValueError("omega is defined for odd k >= 1")
    if k == 1:
        return _lift(f, n).total_euler()
    return _total(next(islice(family_levels(f, n), k - 1, None)))


def omegas(f: Value, n: int) -> Iterator[RationalFunction]:
    """Yield Omega_1 f (as in omega), Omega_3 f, ... from one family_levels walk, each level summed when read."""
    g = _lift(f, n)
    yield g.total_euler()
    yield from map(_total, islice(family_levels(g, n), 2, None, 2))


def sum_cubes(f: Value, n: int) -> RationalFunction:
    """(sum_i D_i^3) f."""
    g = _lift(f, n)
    total = RationalFunction.zero(n)
    for i in range(1, n + 1):
        total = total + g.euler(i).euler(i).euler(i)
    return total


def euler_cubes(f: Value, n: int) -> RationalFunction:
    """(sum_i D_i^3 - (sum_i D_i)^2) f, the conjugated form of Omega_3."""
    return sum_cubes(f, n) - _lift(f, n).total_euler().total_euler()


def omega3_closed(f: Value, n: int) -> RationalFunction:
    """Closed form of Omega_3.

    sum D_i^3
    + 6 sum_{i<j} x_ix_j/(x_i^2-x_j^2) (D_i^2 - D_j^2)
    - 6 sum_{i<j} x_ix_j/(x_i+x_j)^2 (D_i + D_j)
    + 24 sum over triples {i,j,k} of
        x_i^2 x_j x_k / ((x_i^2-x_j^2)(x_i^2-x_k^2)) D_i   (i the member)
    - (sum D_i)^2, applied as Omega_1 twice.
    """
    g = _lift(f, n)
    eul = [g.euler(i) for i in range(1, n + 1)]
    eul2 = [eul[i - 1].euler(i) for i in range(1, n + 1)]
    eul3 = [eul2[i - 1].euler(i) for i in range(1, n + 1)]

    total = RationalFunction.zero(n)
    for i in range(1, n + 1):
        total = total + eul3[i - 1]
    for i, j in combinations(range(1, n + 1), 2):
        cij = _fraction(n, 6, (i, j), [(i, j)], [(i, j)])
        total = total + cij * (eul2[i - 1] - eul2[j - 1])
        pij = _fraction(n, 6, (i, j), sums=[(i, j), (i, j)])
        total = total - pij * (eul[i - 1] + eul[j - 1])
    for i in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != i]
        for a, b in combinations(others, 2):
            term = _fraction(n, 24, (i, i, a, b), [(i, a), (i, b)], [(i, a), (i, b)])
            total = total + term * eul[i - 1]
    return total - g.total_euler().total_euler()


# ---------------------------------------------------------------------------
# The tilde family and tilde Omega_k
# ---------------------------------------------------------------------------


def tilde_family_step(plain: Sequence[RationalFunction], barred: Sequence[RationalFunction], rows: Rows) -> Pair:
    """One level of the paired recursion.

    plain_i  <- D_i plain_i
                + sum_j x_i/(x_i-x_j) (plain_i - plain_j)
                - sum_j x_i/(x_i+x_j) (plain_i + barred_j)
    barred_i <- plain_i + barred_i - D_i barred_i
                - sum_j x_i/(x_i-x_j) (barred_i - barred_j)
                + sum_j x_i/(x_i+x_j) (barred_i + plain_j)

    In s = plain + barred and t = barred - plain a step is s' = s - O(t),
    t' = -E(s), with O and E the odd and even family_step.  Level 1 has
    s = 2 D_i f and t = 0, so s_k is a sum of odd plain levels with Fibonacci
    coefficients, tilde Omega_k = 2 sum_j C(k-1-j, j) Omega_(2j+1)
    (spectra.tilde_relation).  lemma_121_sweep must not compute tilde
    levels this way, or it would verify its own algebra.

    rows is the walk's table, _rows(n, 1, symmetric), read as in
    family_step: with row 1 alone both parts are returned as _Levels.

    Over (x_i-x_j)(x_i+x_j) each line's pair terms are one fraction with
    monomial multipliers.  With s_j = plain_j + barred_j and
    t_j = barred_j - plain_j they are
        [x_ix_j (2 plain_i + t_j) - x_i^2 s_j] / (x_i^2-x_j^2)   (plain)
        [x_i^2 s_j + x_ix_j (t_j - 2 barred_i)] / (x_i^2-x_j^2)  (barred),
    so, as in the even step of family_step, only their sums are tried
    against the two binomials.
    """
    n = len(plain)
    others = [(2, j) for j in range(3, n + 1)] if len(rows) < n else []
    new_plain, new_barred = [], []
    for i, row in enumerate(rows, 1):
        pi, bi = plain[i - 1], barred[i - 1]
        acc_p = pi.euler(i)
        acc_b = pi + bi - bi.euler(i)
        pi2, bi2 = pi.scale(2), bi.scale(2)
        for j, mixed, square, inv in row:
            s_term = (plain[j - 1] + barred[j - 1]) * square
            t_j = barred[j - 1] - plain[j - 1]
            acc_p = acc_p + _orbit(((pi2 + t_j) * mixed - s_term) * inv, others)
            acc_b = acc_b + _orbit((s_term + (t_j - bi2) * mixed) * inv, others)
        new_plain.append(acc_p)
        new_barred.append(acc_b)
    if len(rows) < n:
        return _Level(new_plain[0], n), _Level(new_barred[0], n)
    return new_plain, new_barred


def tilde_levels(f: Value, n: int) -> Iterator[Pair]:
    """Yield (plain, barred) for k = 1, 2, ...: family_levels' level 1 as both, then one step per level."""
    level = _first_level(f, n)
    pair = level, level
    yield pair
    rows = _rows(n, 1, isinstance(level, _Level))
    while True:
        pair = tilde_family_step(*pair, rows)
        yield pair


def tilde_omega(f: Value, k: int, n: int) -> RationalFunction:
    """tilde Omega_k f = sum_i (plain_i + barred_i) at level k, summed by _total; level 1
    is D_i f as both, so tilde Omega_1 = 2E, read from f alone as omega's Omega_1 is."""
    if k < 1:
        raise ValueError("tilde omega requires k >= 1")
    if k == 1:
        return _lift(f, n).total_euler().scale(2)
    plain, barred = next(islice(tilde_levels(f, n), k - 1, None))
    if isinstance(plain, _Level):
        return _total(_Level(plain[0] + barred[0], n))
    return _total([p + b for p, b in zip(plain, barred)])


# ---------------------------------------------------------------------------
# delta, conjugation, auxiliary functions
# ---------------------------------------------------------------------------


def _pair_product(n: int, upper: str, lower: str) -> RationalFunction:
    """prod_{i<j} upper(i, j) / lower(i, j), for factor kinds upper, lower."""
    num = Polynomial.constant(n, 1)
    den: dict[Factor, int] = {}
    for i, j in combinations(range(1, n + 1), 2):
        num = num * Factor(upper, i, j).as_polynomial(n)
        den[Factor(lower, i, j)] = 1
    return RationalFunction(num, den)


def delta(n: int) -> RationalFunction:
    """prod_{i<j} (x_i + x_j)/(x_i - x_j)."""
    return _pair_product(n, "sum", "diff")


def delta_inverse(n: int) -> RationalFunction:
    """prod_{i<j} (x_i - x_j)/(x_i + x_j)."""
    return _pair_product(n, "diff", "sum")


def conjugated_apply(op: str, f: Value, n: int) -> RationalFunction:
    """delta^{-1} . op(delta . f), evaluated exactly; op is "omega3-closed" (Lemma 1.23(i))."""
    if op != "omega3-closed":
        raise ValueError(f"unknown conjugatable operator {op!r}")
    g = delta(n) * _lift(f, n)
    return delta_inverse(n) * omega3_closed(g, n)


def auxiliary_functions(i: int, n: int) -> tuple[RationalFunction, RationalFunction, RationalFunction]:
    """(phi_i, psi_i, theta_i) in x-coordinates.

    phi_i   = sum_{j != i} x_i x_j / (x_i^2 - x_j^2)
    psi_i   = sum_{j != i} x_i x_j / (x_i + x_j)^2
    theta_i = sum_{j < k, both != i} [x_ix_j/(x_i^2-x_j^2)] [x_ix_k/(x_i^2-x_k^2)]
    """
    if not 1 <= i <= n:
        raise IndexError(f"index {i} out of range 1..{n}")
    others = [j for j in range(1, n + 1) if j != i]
    phi = RationalFunction.zero(n)
    psi = RationalFunction.zero(n)
    for j in others:
        phi = phi + _fraction(n, 1, (i, j), [(i, j)], [(i, j)])
        psi = psi + _fraction(n, 1, (i, j), sums=[(i, j), (i, j)])
    theta = RationalFunction.zero(n)
    for a, b in combinations(others, 2):
        theta = theta + _fraction(n, 1, (i, i, a, b), [(i, a), (i, b)], [(i, a), (i, b)])
    return phi, psi, theta
