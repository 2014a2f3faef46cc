"""The packed-key Polynomial kernel against a tuple-keyed reference.

Polynomial stores each monomial as one int (see schurq.algebra._pack).
The reference kernel below keeps each monomial as its exponent tuple and
does every operation the direct way; division is classical long division
in x_i, not the kernel's synthetic division of binary forms.  Every
operation of Polynomial must agree with it term for term, in rings of 1
to 6 variables and with exponents up to near the width of a field.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurq.algebra import (
    MAX_DEGREE,
    ExponentOverflow,
    Factor,
    NotDivisible,
    Polynomial,
    T_MINUS,
    T_PLUS,
    exact_divide,
    substitute,
)

# ---------------------------------------------------------------------------
# The reference kernel: a dict from exponent tuples to nonzero Fractions
# ---------------------------------------------------------------------------


def r_clean(terms):
    return {m: Fraction(c) for m, c in terms.items() if c}


def r_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return r_clean(out)


def r_scale(a, c):
    return r_clean({m: v * c for m, v in a.items()})


def r_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return r_clean(out)


def r_euler(a, i):
    return r_clean({m: c * m[i - 1] for m, c in a.items()})


def r_transposed(a, i, j):
    out = {}
    for m, c in a.items():
        e = list(m)
        e[i - 1], e[j - 1] = e[j - 1], e[i - 1]
        out[tuple(e)] = c
    return out


def r_divide(a, kind, i, j):
    """The quotient by x_i - x_j ('diff') or x_i + x_j ('sum'), or None if it does not divide.

    Long division in x_i: a term c x^m with e_i > 0 contributes c x^m / x_i
    to the quotient and leaves -+c x^m x_j / x_i in the remainder.
    """
    sign = 1 if kind == "diff" else -1
    rem, quo = dict(a), {}
    for e in range(max((m[i - 1] for m in rem), default=0), 0, -1):
        for m in [m for m in rem if m[i - 1] == e]:
            c = rem.pop(m)
            q = list(m)
            q[i - 1] -= 1
            quo[tuple(q)] = quo.get(tuple(q), 0) + c
            q[j - 1] += 1
            rem[tuple(q)] = rem.get(tuple(q), 0) + sign * c
        rem = r_clean(rem)
    return r_clean(quo) if not rem else None


def r_substitute(a, n, assignment):
    remaining = [i for i in range(1, n + 1) if i not in assignment]
    uses_t = any(v in (T_PLUS, T_MINUS) for v in assignment.values())
    out = {}
    for m, c in a.items():
        new = [m[i - 1] for i in remaining] + ([0] if uses_t else [])
        for i, v in assignment.items():
            e = m[i - 1]
            if v in (T_PLUS, T_MINUS):
                new[-1] += e
                c *= (-1) ** e if v == T_MINUS else 1
            else:
                c *= Fraction(v) ** e
        out[tuple(new)] = out.get(tuple(new), 0) + c
    return r_clean(out)


def r_grevlex(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def r_sorted(a):
    return sorted(a.items(), key=lambda t: r_grevlex(t[0]), reverse=True)


def r_coeff_text(c):
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def r_json(a, n):
    return {"n": n, "terms": [{"exp": list(m), "coeff": r_coeff_text(c)} for m, c in r_sorted(a)]}


def r_text(a):
    """Signed terms, largest first: a unit coefficient is left out unless the term is constant."""
    pieces = []
    for m, c in r_sorted(a):
        mono = "*".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(m, 1) if e)
        size = r_coeff_text(abs(c))
        if not mono:
            body = size
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{size}*{mono}"
        pieces.append(("-" if c < 0 else "+", body))
    if not pieces:
        return "0"
    (sign, body), rest = pieces[0], pieces[1:]
    return ("-" if sign == "-" else "") + body + "".join(f" {s} {b}" for s, b in rest)


def as_ref(p: Polynomial):
    """p's terms by exponent tuple, after checking that each coefficient is canonical."""
    for _, c in p.sorted_terms():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c
    return dict(p.sorted_terms())


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

HALF = MAX_DEGREE // 2  # operands of this degree have in-range products


def monomials(n, top):
    """Small exponents everywhere plus, in one field, a large one (up to degree top)."""
    big = st.sampled_from(sorted({0, 1, top // 2, top - 3 * n}))
    return st.tuples(
        st.lists(st.integers(0, 3), min_size=n, max_size=n), st.integers(0, n - 1), big
    ).map(lambda t: tuple(e + (t[2] if k == t[1] else 0) for k, e in enumerate(t[0])))


def term_maps(n, top=HALF, max_terms=6):
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    return st.dictionaries(monomials(n, top), coeff, max_size=max_terms)


def ring(top=HALF, operands=2):
    return st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.just(n), *[term_maps(n, top)] * operands)
    )


# ---------------------------------------------------------------------------
# The kernel against the reference
# ---------------------------------------------------------------------------


class TestAgainstReference:
    @given(ring(), st.fractions(min_value=-5, max_value=5, max_denominator=3))
    @settings(max_examples=80, deadline=None)
    def test_ring_operations(self, case, c):
        n, a, b = case
        pa, pb = Polynomial(n, a), Polynomial(n, b)
        assert as_ref(pa) == r_clean(a)
        assert as_ref(pa + pb) == r_add(a, b)
        assert as_ref(pa - pb) == r_add(a, r_scale(b, -1))
        assert as_ref(-pa) == r_scale(a, -1)
        assert as_ref(pa * pb) == r_mul(a, b)
        assert as_ref(pa.scale(c)) == r_scale(a, c)

    @given(ring(top=MAX_DEGREE, operands=1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_euler_and_transposed(self, case, data):
        n, a = case
        p = Polynomial(n, a)
        i = data.draw(st.integers(1, n))
        j = data.draw(st.integers(1, n))
        assert as_ref(p.euler(i)) == r_euler(a, i)
        assert as_ref(p.transposed(i, j)) == r_transposed(r_clean(a), i, j)

    @given(
        st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), term_maps(n), term_maps(n))),
        st.sampled_from(["diff", "sum"]),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_exact_divide_hit_and_miss(self, case, kind, data):
        n, a, b = case
        i = data.draw(st.integers(1, n - 1))
        j = data.draw(st.integers(i + 1, n))
        f = Factor(kind, i, j)
        binomial = {tuple(int(k == i) for k in range(1, n + 1)): 1,
                    tuple(int(k == j) for k in range(1, n + 1)): 1 if kind == "sum" else -1}
        # a hit: a times the factor
        product = r_mul(r_clean(a), binomial)
        assert as_ref(exact_divide(Polynomial(n, product), f)) == r_clean(a)
        # usually a miss: a plus b
        dividend = r_add(a, b)
        want = r_divide(dividend, kind, i, j)
        if want is None:
            with pytest.raises(NotDivisible):
                exact_divide(Polynomial(n, dividend), f)
        else:
            assert as_ref(exact_divide(Polynomial(n, dividend), f)) == want

    @given(st.one_of(ring(operands=1), ring(top=MAX_DEGREE, operands=1)), st.data())
    @settings(max_examples=100, deadline=None)
    def test_substitute(self, case, data):
        n, a = case
        value = st.sampled_from([T_PLUS, T_MINUS, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
        chosen = data.draw(st.sets(st.integers(1, n)))
        assignment = {i: data.draw(value) for i in sorted(chosen)}
        got = substitute(Polynomial(n, a), assignment)
        n_out = n - len(assignment) + any(v in (T_PLUS, T_MINUS) for v in assignment.values())
        assert got.n == n_out
        assert as_ref(got) == r_substitute(a, n, assignment)

    @given(ring(top=MAX_DEGREE, operands=1))
    @settings(max_examples=80, deadline=None)
    def test_order_and_serialisation(self, case):
        n, a = case
        p = Polynomial(n, a)
        want = r_sorted(r_clean(a))
        assert p.sorted_terms() == want
        assert p.to_json_obj() == r_json(r_clean(a), n)
        assert p.to_text() == r_text(r_clean(a))
        if want:
            assert p.leading_term() == want[0]
            assert p.degree() == max(sum(m) for m in r_clean(a))
        else:
            with pytest.raises(ValueError):
                p.leading_term()


    @given(ring(top=MAX_DEGREE, operands=1))
    @settings(max_examples=60, deadline=None)
    def test_lookups_and_parts(self, case):
        n, a = case
        p, a = Polynomial(n, a), r_clean(a)
        for m, c in a.items():
            assert p.coefficient(m) == c
        assert p.coefficient((0,) * n) == a.get((0,) * n, 0)
        for k in range(1, n + 1):
            assert p.degree_in(k) == max((m[k - 1] for m in a), default=-1)
        with pytest.raises(IndexError):
            p.degree_in(n + 1)  # would read the degree field


    @given(
        st.integers(0, 4),
        st.integers(0, 6),
        st.lists(st.integers(-9, 9).filter(bool), min_size=7, max_size=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_weighted_complete(self, n, d, weights):
        want = {}
        for m in product(range(d + 1), repeat=n):
            if sum(m) <= d:
                c = 1
                for e in m:
                    c *= weights[e]
                want[m] = Fraction(c)
        parts = Polynomial.weighted_complete(n, d, weights)
        assert len(parts) == d + 1
        for k, part in enumerate(parts):
            assert as_ref(part) == {m: c for m, c in want.items() if sum(m) == k}


# ---------------------------------------------------------------------------
# Exponents outside the packed range
# ---------------------------------------------------------------------------


class TestExponentRange:
    def test_negative_exponent_is_refused(self):
        with pytest.raises(ValueError, match="negative exponent"):
            Polynomial(2, {(-1, 0): 1})
        with pytest.raises(ValueError):
            Polynomial.monomial(3, (2, -1, 0))

    def test_non_int_exponent_is_refused(self):
        with pytest.raises(TypeError):
            Polynomial(2, {(1.5, 0): 1})
        with pytest.raises(TypeError):
            Polynomial(2, {(Fraction(2), 0): 1})

    def test_range_error_is_a_value_error(self):
        assert issubclass(ExponentOverflow, ValueError)

    def test_weighted_complete_range_and_weights(self):
        weights = (1,) + (2,) * (MAX_DEGREE + 1)
        top = Polynomial.weighted_complete(1, MAX_DEGREE, weights)
        assert len(top) == MAX_DEGREE + 1
        assert [part.sorted_terms() for part in top] == [[((k,), weights[k])] for k in range(MAX_DEGREE + 1)]
        # in 6 variables the parts up to MAX_DEGREE would have about 10^15 terms,
        # so these return only if the checks come before any part is built
        with pytest.raises(ExponentOverflow):
            Polynomial.weighted_complete(6, MAX_DEGREE + 1, weights)
        for bad in ((1, 0, 2), (1, Fraction(1, 2), 2), (1, 2.0, 2), (1, 2)):
            with pytest.raises(ValueError):
                Polynomial.weighted_complete(2, 2, bad)
        head = (1,) + (2,) * (MAX_DEGREE - 1)
        for bad in (head + (0,), head + (Fraction(1, 2),), head + (2.0,), head):
            with pytest.raises(ValueError):
                Polynomial.weighted_complete(6, MAX_DEGREE, bad)

    def test_largest_degree_is_held(self):
        for k in range(3):
            exps = tuple(MAX_DEGREE if i == k else 0 for i in range(3))
            p = Polynomial.monomial(3, exps)
            assert p.sorted_terms() == [(exps, 1)]
            assert p.degree() == MAX_DEGREE
        with pytest.raises(ExponentOverflow):
            Polynomial.monomial(3, (MAX_DEGREE + 1, 0, 0))
        with pytest.raises(ExponentOverflow):
            Polynomial.monomial(3, (MAX_DEGREE, 1, 0))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_product_past_the_width_raises_and_corrupts_nothing(self, k):
        n = 3
        xk = Polynomial.monomial(n, tuple(int(i == k - 1) for i in range(n)))
        # one exponent near the top of its field, both neighbours nonzero
        exps = [1] * n
        exps[k - 1] = MAX_DEGREE - n
        a = Polynomial.monomial(n, exps, 5)
        want = list(exps)
        want[k - 1] += 1
        assert (a * xk).sorted_terms() == [(tuple(want), 5)]  # degree MAX_DEGREE: in range
        full = a * xk
        with pytest.raises(ExponentOverflow):
            full * xk  # degree MAX_DEGREE + 1
        # a field at its all-ones value does not carry into its neighbour either
        top = Polynomial.monomial(n, tuple(MAX_DEGREE if i == k - 1 else 0 for i in range(n)))
        with pytest.raises(ExponentOverflow):
            top * xk
        assert full.sorted_terms() == [(tuple(want), 5)]
        assert top.sorted_terms() == [(tuple(MAX_DEGREE if i == k - 1 else 0 for i in range(n)), 1)]
