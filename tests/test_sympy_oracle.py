"""An oracle outside the repo's arithmetic: the operator recursions in sympy at n = 2.

The plain and paired recursions are written out as in the paper, with
sympy expressions and `sympy.cancel`, and compared with `operators`.
Three of the inputs (the monomials and delta times one) are not
symmetric, so the library takes its n-component step on them.
"""

from itertools import islice

import pytest

sympy = pytest.importorskip("sympy")

from schurq import operators  # noqa: E402
from schurq.algebra import Polynomial, RationalFunction  # noqa: E402
from schurq.qfunctions import StrictPartition, monomial_symmetric, schur_q  # noqa: E402

N = 2
X = sympy.symbols(f"x1:{N + 1}")


def to_sympy(value):
    """A Polynomial or RationalFunction as a sympy expression."""
    if isinstance(value, Polynomial):
        value = RationalFunction.from_polynomial(value)
    num = sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.prod([x**e for x, e in zip(X, exps)])
         for exps, c in value.num.sorted_terms()),
        sympy.Integer(0),
    )
    den = sympy.Integer(1)
    for f, mult in value.den.items():
        den *= (X[f.i - 1] - X[f.j - 1] if f.kind == "diff" else X[f.i - 1] + X[f.j - 1]) ** mult
    return num / den


def euler(g, i):
    return sympy.cancel(X[i] * sympy.diff(g, X[i]))


def others(i):
    return [j for j in range(N) if j != i]


def plain_levels(f):
    """D_i^(1) f = x_i d_i f, then
    odd k:  D_i p_i + sum_j 2x_ix_j/(x_i^2-x_j^2) (p_i - p_j),
    even k: (D_i - 1) p_i + sum_j [2x_ix_j p_i - 2x_i^2 p_j]/(x_i^2-x_j^2)."""
    level = [euler(f, i) for i in range(N)]
    k = 1
    while True:
        yield level
        k += 1
        new = []
        for i, p in enumerate(level):
            acc = euler(p, i) - (p if k % 2 == 0 else 0)
            for j in others(i):
                q, xi, xj = level[j], X[i], X[j]
                c, d = 2 * xi * xj / (xi**2 - xj**2), 2 * xi**2 / (xi**2 - xj**2)
                acc += c * (p - q) if k % 2 else c * p - d * q
            new.append(sympy.cancel(acc))
        level = new


def tilde_levels(f):
    """plain = barred = D_i f at level 1, then
    plain_i  <- D_i plain_i + sum_j x_i/(x_i-x_j) (plain_i - plain_j) - x_i/(x_i+x_j) (plain_i + barred_j),
    barred_i <- plain_i + barred_i - D_i barred_i
                - sum_j x_i/(x_i-x_j) (barred_i - barred_j) + x_i/(x_i+x_j) (barred_i + plain_j)."""
    plain = barred = [euler(f, i) for i in range(N)]
    while True:
        yield plain, barred
        new_plain, new_barred = [], []
        for i in range(N):
            p, b, xi = plain[i], barred[i], X[i]
            acc_p, acc_b = euler(p, i), p + b - euler(b, i)
            for j in others(i):
                minus, plus = xi / (xi - X[j]), xi / (xi + X[j])
                acc_p += minus * (p - plain[j]) - plus * (p + barred[j])
                acc_b += -minus * (b - barred[j]) + plus * (b + plain[j])
            new_plain.append(sympy.cancel(acc_p))
            new_barred.append(sympy.cancel(acc_b))
        plain, barred = new_plain, new_barred


INPUTS = {
    "x^(2,1)": lambda: Polynomial.monomial(N, (2, 1)),
    "x^(3,0)": lambda: Polynomial.monomial(N, (3, 0)),
    "delta x^(1,0)": lambda: operators.delta(N) * RationalFunction.from_polynomial(Polynomial.monomial(N, (1, 0))),
    "m_(2,1)": lambda: monomial_symmetric((2, 1), N),
    "Q_(3,1)": lambda: schur_q(StrictPartition((3, 1)), N),
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_omegas_match_the_sympy_recursion(name):
    f = INPUTS[name]()
    g = to_sympy(f)
    levels = list(islice(plain_levels(g), 5))
    for k in (1, 3, 5):
        want = sum(levels[k - 1])
        assert sympy.cancel(to_sympy(operators.omega(f, k, N)) - want) == 0, (name, k)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_tilde_omegas_match_the_sympy_recursion(name):
    f = INPUTS[name]()
    g = to_sympy(f)
    for k, (plain, barred) in enumerate(islice(tilde_levels(g), 3), 1):
        want = sum(plain) + sum(barred)
        assert sympy.cancel(to_sympy(operators.tilde_omega(f, k, N)) - want) == 0, (name, k)


def test_the_inputs_cover_both_paths():
    # the monomials and delta x^(1,0) take the n-component step, the symmetric inputs the orbit step
    paths = {name: isinstance(next(operators.family_levels(make(), N)), operators._Level) for name, make in INPUTS.items()}
    assert paths == {"x^(2,1)": False, "x^(3,0)": False, "delta x^(1,0)": False, "m_(2,1)": True, "Q_(3,1)": True}
