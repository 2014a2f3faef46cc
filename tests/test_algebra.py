import operator
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schurq.algebra import (
    Factor,
    NotDivisible,
    Polynomial,
    RationalFunction,
    T_MINUS,
    T_PLUS,
    VariableCountMismatch,
    exact_divide,
    pfaffian,
    substitute,
)
from schurq.qfunctions import StrictPartition, q_series, schur_q

from conftest import polynomials
from oracles import determinant, is_symmetric_by_adjacent_swaps, is_symmetric_by_all_permutations


def x(n, i):
    return Polynomial.monomial(n, (0,) * (i - 1) + (1,) + (0,) * (n - i))


class TestPolynomialArithmetic:
    def test_difference_of_squares(self):
        n = 2
        prod = (x(n, 1) + x(n, 2)) * (x(n, 1) - x(n, 2))
        assert prod == Polynomial(n, {(2, 0): 1, (0, 2): -1})

    def test_additive_identity(self):
        p = Polynomial(2, {(1, 2): Fraction(3, 2), (0, 0): -1})
        assert p + Polynomial.zero(2) == p

    def test_monomial_product(self):
        n = 1
        assert x(n, 1).scale(2) * Polynomial.monomial(n, (2,), 2) == Polynomial.monomial(
            n, (3,), 4
        )

    def test_variable_count_mismatch(self):
        with pytest.raises(VariableCountMismatch):
            Polynomial.zero(2) + Polynomial.zero(3)
        with pytest.raises(VariableCountMismatch):
            Polynomial.zero(2) - Polynomial.zero(3)

    @given(polynomials(3), polynomials(3))
    @settings(max_examples=60, deadline=None)
    def test_difference_is_sum_with_negation(self, a, b):
        assert (a - b).terms == (a + (-b)).terms
        assert (a - a).terms == {}

    def test_no_zero_coefficients_stored(self):
        p = x(2, 1) - x(2, 1)
        assert p.terms == {}
        assert p.is_zero()

    @given(polynomials(3), polynomials(3), polynomials(3))
    @settings(max_examples=60, deadline=None)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    @given(polynomials(4, max_degree=4, max_terms=4), polynomials(4, max_degree=4, max_terms=4))
    @settings(max_examples=40, deadline=None)
    def test_commutativity(self, a, b):
        assert a * b == b * a
        assert a + b == b + a



class TestSymmetry:
    def test_every_adjacent_swap_is_checked(self):
        n = 3
        # x1*x2 + x3 is fixed by x1 <-> x2 but not by x2 <-> x3
        p = x(n, 1) * x(n, 2) + x(n, 3)
        assert not p.is_symmetric()
        e2 = x(n, 1) * x(n, 2) + x(n, 1) * x(n, 3) + x(n, 2) * x(n, 3)
        assert e2.is_symmetric() and (e2 * e2).is_symmetric()

    def test_symmetric_functions(self):
        assert Polynomial.zero(3).is_symmetric() and Polynomial.constant(1, 5).is_symmetric()
        for lam in [(1,), (2, 1), (3, 1)]:
            assert schur_q(StrictPartition(lam), 4).is_symmetric()
        assert not x(2, 1).is_symmetric()

    def test_one_generator_alone_is_not_enough(self):
        n = 3
        # fixed by the cycle x1 -> x2 -> x3 -> x1, not by x1 <-> x2
        cyclic = Polynomial(n, {(2, 1, 0): 1, (0, 2, 1): 1, (1, 0, 2): 1})
        # fixed by x1 <-> x2, not by the cycle
        swapped = x(n, 1) * x(n, 2) + x(n, 3)
        for p in (cyclic, swapped):
            assert not p.is_symmetric() and not is_symmetric_by_adjacent_swaps(p)

    @given(st.integers(0, 6).flatmap(lambda n: st.tuples(
        polynomials(n, max_degree=4, max_terms=4),
        st.sampled_from(["none", "swap", "cycle", "fix x1", "all", "all + one term"]),
        st.tuples(*[st.integers(0, 3)] * n),
    )))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_every_adjacent_swap(self, case):
        """On orbit sums over the trivial group, <x1 <-> x2>, the n-cycle's group, the stabiliser of x1 and S_n."""
        f, group, extra = case
        n = f.n
        identity = tuple(range(n))
        perms = {
            "none": [identity],
            "swap": [identity, (1, 0) + identity[2:]] if n > 1 else [identity],
            "cycle": [identity[r:] + identity[:r] for r in range(n)] or [identity],
            "fix x1": [identity[:1] + q for q in permutations(identity[1:])],
            "all": list(permutations(identity)),
            "all + one term": list(permutations(identity)),
        }[group]
        orbit = {}
        for m, c in f.sorted_terms():
            for perm in perms:
                image = tuple(m[perm[i]] for i in range(n))
                orbit[image] = orbit.get(image, 0) + c
        p = Polynomial(n, orbit)
        if group == "all + one term":
            p = p + Polynomial.monomial(n, extra)
        assert p.is_symmetric() == is_symmetric_by_adjacent_swaps(p)
        if group == "all":
            assert p.is_symmetric()

    @given(st.integers(0, 4).flatmap(lambda n: st.tuples(
        polynomials(n, max_degree=4, max_terms=4), st.booleans(), st.permutations(range(n)),
    )))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_all_permutations(self, case):
        """Half the inputs are S_n-orbit sums, the rest orbit sums under the cyclic group of a random
        permutation sigma: the identity leaves the drawn polynomial, x1 <-> x2 or the n-cycle one generator."""
        f, whole, sigma = case
        n = f.n
        identity = tuple(range(n))
        if whole:
            group = list(permutations(identity))
        else:
            group, g = [identity], tuple(sigma)
            while g != identity:
                group.append(g)
                g = tuple(g[k] for k in sigma)
        orbit = {}
        for m, c in f.sorted_terms():
            for perm in group:
                image = tuple(m[perm[i]] for i in range(n))
                orbit[image] = orbit.get(image, 0) + c
        p = Polynomial(n, orbit)
        assert p.is_symmetric() == is_symmetric_by_all_permutations(p)
        if whole:
            assert p.is_symmetric()


class TestTransposition:
    def test_polynomial(self):
        n = 3
        p = x(n, 1) * x(n, 1) * x(n, 3) + x(n, 2).scale(5)
        assert p.transposed(1, 3) == x(n, 3) * x(n, 3) * x(n, 1) + x(n, 2).scale(5)
        assert p.transposed(3, 1) == p.transposed(1, 3)
        assert p.transposed(2, 2) == p
        with pytest.raises(IndexError):
            p.transposed(1, 4)

    @settings(max_examples=50, deadline=None)
    @given(polynomials(4), polynomials(4))
    def test_ring_automorphism(self, p, q):
        assert p.transposed(2, 4).transposed(2, 4) == p
        assert (p * q).transposed(1, 3) == p.transposed(1, 3) * q.transposed(1, 3)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        polynomials(n, max_degree=4, max_terms=5),
        st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=2 * n),
    )))
    def test_plus_transposes_equals_the_sum_of_transposes(self, case):
        p, pairs = case
        want = p
        for a, b in pairs:
            want = want + p.transposed(a, b)
        got = p.plus_transposes(pairs)
        assert got == want and is_canonical(got)

    def test_plus_transposes_cancels_and_stays_canonical(self):
        n = 3
        q = x(n, 1) * x(n, 1) * x(n, 3) + x(n, 2).scale(Fraction(1, 3))
        antisymmetric = q - q.transposed(1, 2)
        got = antisymmetric.plus_transposes([(1, 2)])
        assert got.is_zero() and got.terms == {}
        halves = Polynomial(n, {(1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(-1, 2), (0, 0, 1): Fraction(1, 2)})
        got = halves.plus_transposes([(1, 3)])
        assert got == x(n, 1) - x(n, 2) + x(n, 3) and is_canonical(got)
        assert all(type(c) is int for c in got.terms.values())
        assert q.plus_transposes([]) == q and q.plus_transposes([(2, 2)]) == q.scale(2)
        with pytest.raises(IndexError):
            q.plus_transposes([(1, 2), (0, 1)])

    def test_reversed_difference_flips_the_sign_per_odd_multiplicity(self):
        n = 3
        one = Polynomial.constant(n, 1)
        for m, sign in ((1, -1), (2, 1), (3, -1)):
            r = RationalFunction(one, {Factor("diff", 1, 3): m, Factor("sum", 1, 3): 1})
            assert r.transposed(1, 3) == RationalFunction(one.scale(sign), r.den)

    def test_result_is_reduced_and_matches_substitution(self):
        # 1 / ((x1 - x2)(x2 + x3)) under x1 <-> x3 is 1 / ((x3 - x2)(x2 + x1))
        n = 3
        r = RationalFunction(x(n, 1), {Factor("diff", 1, 2): 1, Factor("sum", 2, 3): 2})
        got = r.transposed(1, 3)
        want = RationalFunction(-x(n, 3), {Factor("diff", 2, 3): 1, Factor("sum", 1, 2): 2})
        assert got == want
        assert got == RationalFunction(got.num, got.den)  # reducing again changes nothing


class TestSubstitute:
    def test_pair_substitution(self):
        p = x(2, 1) * x(2, 2)
        out = substitute(p, {1: T_PLUS, 2: T_MINUS})
        assert out == Polynomial.monomial(1, (2,), -1)  # -t^2

    def test_q2_stability(self):
        q2_n2 = q_series(2, 2)[2]
        q2_n1 = q_series(1, 2)[2]
        assert substitute(q2_n2, {2: 0}) == q2_n1
        assert q2_n1 == Polynomial.monomial(1, (2,), 2)

    def test_q21_cancellation(self):
        f = schur_q(StrictPartition((2, 1)), 2)
        assert substitute(f, {1: T_PLUS, 2: T_MINUS}).is_zero()

    def test_numeric_substitution(self):
        p = x(2, 1) * x(2, 1) + x(2, 2)
        out = substitute(p, {1: Fraction(1, 2)})
        assert out == Polynomial(1, {(0,): Fraction(1, 4), (1,): 1})

    @given(polynomials(3, max_degree=4, max_terms=4), polynomials(3, max_degree=4, max_terms=4))
    @settings(max_examples=40, deadline=None)
    def test_substitution_is_multiplicative(self, a, b):
        assignment = {1: Fraction(2), 3: T_MINUS}
        lhs = substitute(a * b, assignment)
        rhs = substitute(a, assignment) * substitute(b, assignment)
        assert lhs == rhs


class TestExactDivide:
    def test_factorization(self):
        p = Polynomial(2, {(2, 0): 1, (0, 2): -1})
        assert exact_divide(p, Factor("diff", 1, 2)) == x(2, 1) + x(2, 2)

    def test_not_divisible(self):
        p = Polynomial(2, {(2, 0): 1, (0, 2): 1})
        for f in (Factor("diff", 1, 2), Factor("sum", 1, 2)):
            with pytest.raises(NotDivisible):
                exact_divide(p, f)

    def test_only_binomial_factors(self):
        for args in (("var", 1, 2), ("diff", 2, 1), ("sum", 2, 2), ("prod", 1, 2), ("diff", 0, 1)):
            with pytest.raises(ValueError):
                Factor(*args)

    def test_sum_factor(self):
        p = Polynomial(2, {(2, 1): 4, (1, 2): 4})
        q = exact_divide(p, Factor("sum", 1, 2))
        assert q == Polynomial.monomial(2, (1, 1), 4)
        assert q * Factor("sum", 1, 2).as_polynomial(2) == p

    @given(polynomials(3, max_degree=4, max_terms=4))
    @settings(max_examples=40, deadline=None)
    def test_multiply_then_divide_roundtrip(self, p):
        for f in (Factor("diff", 1, 3), Factor("sum", 2, 3)):
            prod = p * f.as_polynomial(3)
            if prod.is_zero():
                continue
            assert exact_divide(prod, f) == p

    def test_zero_divides_to_zero(self):
        for f in (Factor("diff", 1, 3), Factor("sum", 2, 3)):
            assert exact_divide(Polynomial.zero(3), f) == Polynomial.zero(3)

    def test_root_oracle(self):
        # f divides p iff p vanishes on f's zero set: x_i = x_j or x_i = -x_j
        rng = random.Random(31)
        oracles = [
            (Factor("diff", 1, 3), {1: T_PLUS, 3: T_PLUS}),
            (Factor("sum", 2, 3), {2: T_PLUS, 3: T_MINUS}),
        ]
        for trial in range(900):
            # trial // 2 picks the factor, trial % 2 the pre-multiply flag: each
            # factor gets both plain and pre-multiplied inputs
            f, zero_set = oracles[trial // 2 % 2]
            terms = {}
            for _ in range(rng.randint(0, 6)):
                exps = tuple(rng.randint(0, 4) for _ in range(3))
                terms[exps] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            p = Polynomial(3, terms)
            if trial % 2:
                p = p * f.as_polynomial(3)
            if substitute(p, zero_set).is_zero():
                assert exact_divide(p, f) * f.as_polynomial(3) == p
            else:
                with pytest.raises(NotDivisible):
                    exact_divide(p, f)


class TestFactor:
    def test_equal_factors_are_one_key(self):
        a, b = Factor("sum", 1, 3), Factor("sum", 1, 3)
        assert a == b and hash(a) == hash(b)
        assert {a: 1, b: 2} == {Factor("sum", 1, 3): 2}
        assert Factor("diff", 1, 3) != a

    def test_order_is_kind_then_indices(self):
        mixed = [Factor("sum", 1, 2), Factor("diff", 2, 3), Factor("sum", 1, 3), Factor("diff", 1, 3), Factor("diff", 1, 2)]
        want = [("diff", 1, 2), ("diff", 1, 3), ("diff", 2, 3), ("sum", 1, 2), ("sum", 1, 3)]
        assert [(f.kind, f.i, f.j) for f in sorted(mixed)] == want

    def test_immutable(self):
        f = Factor("diff", 1, 2)
        for name in ("kind", "i", "j", "other"):
            with pytest.raises(AttributeError):
                setattr(f, name, 3)
        assert (f.kind, f.i, f.j) == ("diff", 1, 2)

    def test_repr_and_str(self):
        assert repr(Factor("diff", 1, 2)) == "Factor(kind='diff', i=1, j=2)"
        assert repr(Factor("sum", 2, 5)) == "Factor(kind='sum', i=2, j=5)"
        assert (str(Factor("diff", 1, 2)), str(Factor("sum", 2, 5))) == ("(x1-x2)", "(x2+x5)")

    def test_as_polynomial_is_the_binomial(self):
        for n in range(2, 6):
            for i, j in combinations(range(1, n + 1), 2):
                assert Factor("diff", i, j).as_polynomial(n) == x(n, i) - x(n, j)
                assert Factor("sum", i, j).as_polynomial(n) == x(n, i) + x(n, j)
            for f in (Factor("diff", 1, n + 1), Factor("sum", n, n + 1)):
                with pytest.raises(IndexError):
                    f.as_polynomial(n)

    def test_sums_and_euler_build_no_checked_polynomial(self, monkeypatch):
        # the binomials of a lift or a quotient rule are built from packed keys
        n = 3
        d12, s13, d23 = Factor("diff", 1, 2), Factor("sum", 1, 3), Factor("diff", 2, 3)
        a = RationalFunction(x(n, 1) + x(n, 2) + x(n, 3), {d12: 2, s13: 1})
        b = RationalFunction(x(n, 2) + x(n, 3).scale(2), {d12: 1, d23: 1})
        calls = []
        init = Polynomial.__init__

        def counted_init(self, *args):
            calls.append(args)
            init(self, *args)

        monkeypatch.setattr(Polynomial, "__init__", counted_init)
        total, image = a + b, a.euler(1)
        assert calls == []
        monkeypatch.undo()
        assert total.den == {d12: 2, s13: 1, d23: 1}
        assert image.den == {d12: 3, s13: 2}


class TestRationalFunction:
    def test_antisymmetry(self):
        n = 2
        one = Polynomial.constant(n, 1)
        a = RationalFunction(one, {Factor("diff", 1, 2): 1})
        b = RationalFunction(-one, {Factor("diff", 1, 2): 1})  # 1/(x2-x1)
        assert (a + b).is_zero()

    def test_cancellation_to_one(self):
        n = 2
        d = {Factor("diff", 1, 2): 1}
        a = RationalFunction(x(n, 1), d)
        b = RationalFunction(x(n, 2), d)
        assert a - b == RationalFunction.constant(n, 1)

    def test_delta_times_inverse(self):
        from schurq.operators import delta, delta_inverse

        for n in (2, 3):
            assert delta(n) * delta_inverse(n) == RationalFunction.constant(n, 1)

    def test_reduced_invariant_after_arithmetic(self):
        n = 3
        r = RationalFunction(x(n, 1) * x(n, 2), {Factor("diff", 1, 2): 1, Factor("sum", 1, 3): 2})
        s = RationalFunction(x(n, 3), {Factor("diff", 2, 3): 1})
        d12, s13 = Factor("diff", 1, 2), Factor("sum", 1, 3)
        carried = x(n, 1) * x(n, 3) * d12.as_polynomial(n) * d12.as_polynomial(n)
        carried = carried * s13.as_polynomial(n)
        t = RationalFunction(carried, {d12: 3, s13: 1, Factor("sum", 2, 3): 1})
        for value in (r + s, r * s, r - s, t):
            for f in value.den:
                with pytest.raises(NotDivisible):
                    exact_divide(value.num, f)

    @given(polynomials(3, max_degree=3, max_terms=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_euler_quotient_rule(self, num, data):
        # D(N/P) = (D(N) P - N D(P)) / P^2 with D = x_i d/dx_i and P the
        # product of the denominator's factor polynomials
        n = 3
        factors = [Factor("diff", 1, 2), Factor("sum", 1, 3)]
        factors += [Factor("diff", 2, 3), Factor("sum", 1, 2)]
        mult = st.integers(min_value=0, max_value=2)
        den = {f: data.draw(mult) for f in factors}
        prod = Polynomial.constant(n, 1)
        for f, m in den.items():
            for _ in range(m):
                prod = prod * f.as_polynomial(n)
        r = RationalFunction(num, den)
        for i in range(1, n + 1):
            expected = RationalFunction(
                num.euler(i) * prod - num * prod.euler(i), {f: 2 * m for f, m in den.items()}
            )
            assert r.euler(i) == expected

    @given(
        polynomials(3, max_degree=3, max_terms=4),
        polynomials(3, max_degree=3, max_terms=4),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_equality_reads_the_reduced_form(self, p, q, same, data):
        # a == b exactly when a - b is zero, and equal values hash alike;
        # `same` draws b as a re-expressed copy of a, so equal pairs occur
        n = 3
        factors = [Factor("diff", 1, 2), Factor("sum", 1, 3), Factor("diff", 2, 3)]
        mult = st.integers(min_value=0, max_value=2)
        a = RationalFunction(p, {f: data.draw(mult) for f in factors})
        if same:
            f = data.draw(st.sampled_from(factors))
            den = dict(a.den)
            den[f] = den.get(f, 0) + 1
            b = RationalFunction(a.num * f.as_polynomial(n), den)
        else:
            b = RationalFunction(q, {f: data.draw(mult) for f in factors})
        assert (a == b) == (a - b).is_zero()
        if a == b:
            assert hash(a) == hash(b)

    @given(polynomials(3))
    @settings(max_examples=60, deadline=None)
    def test_a_value_without_denominator_hashes_as_its_numerator(self, p):
        r = RationalFunction.from_polynomial(p)
        assert r == p and p == r
        assert hash(r) == hash(p)
        assert len({p, r}) == 1

    @given(
        polynomials(3, max_degree=3, max_terms=4),
        polynomials(3, max_degree=3, max_terms=4),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_difference_is_sum_with_negation(self, p, q, data):
        # denominators drawn apart, so that either side may be lifted
        n = 3
        factors = [Factor("diff", 1, 2), Factor("sum", 1, 3), Factor("diff", 2, 3)]
        mult = st.integers(min_value=0, max_value=2)
        a = RationalFunction(p, {f: data.draw(mult) for f in factors})
        b = RationalFunction(q, {f: data.draw(mult) for f in factors})
        diff, total = a - b, a + (-b)
        assert diff.num.terms == total.num.terms
        assert diff.den == total.den
        assert (a - a).is_zero()

    def test_equality_refuses_mismatched_variable_counts(self):
        with pytest.raises(VariableCountMismatch):
            RationalFunction.constant(2, 1) == RationalFunction.constant(3, 1)
        with pytest.raises(VariableCountMismatch):
            RationalFunction.constant(2, 1) == Polynomial.constant(3, 1)

    def test_arithmetic_refuses_mismatched_variable_counts(self):
        # b's factor lies outside a's ring, so a sum must refuse before it lifts a over it
        a = RationalFunction.constant(2, 1)
        b = RationalFunction(Polynomial.constant(3, 1), {Factor("diff", 1, 3): 1})
        for op in (operator.add, operator.sub, operator.mul):
            for left, right in ((a, b), (b, a)):
                with pytest.raises(VariableCountMismatch):
                    op(left, right)

    @given(polynomials(2, max_degree=3, max_terms=3), polynomials(2, max_degree=3, max_terms=3))
    @settings(max_examples=30, deadline=None)
    def test_field_laws_on_simple_fractions(self, a, b):
        d1 = RationalFunction(a, {Factor("diff", 1, 2): 1})
        d2 = RationalFunction(b, {Factor("sum", 1, 2): 1})
        assert d1 * d2 == d2 * d1
        assert (d1 + d2) - d2 == d1

    @given(polynomials(3, max_degree=3, max_terms=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_monomial_and_denominator_products_skip_no_cancellation(self, p, data):
        # a product by a monomial tries no factor, and a product by 1/den tries
        # only factors new to the denominator; both must equal the fully reduced value
        n = 3
        factors = [Factor("diff", 1, 2), Factor("sum", 1, 3), Factor("diff", 2, 3), Factor("sum", 1, 2)]
        mult = st.integers(min_value=0, max_value=2)
        num = p
        for f in data.draw(st.lists(st.sampled_from(factors), max_size=3)):
            num = num * f.as_polynomial(n)  # so that dividing cancels
        a = RationalFunction(num, {f: data.draw(mult) for f in factors})
        den = {f: m for f in factors if (m := data.draw(mult))}
        exps = data.draw(st.tuples(*[st.integers(min_value=0, max_value=2)] * n))
        m = Polynomial.monomial(n, exps, data.draw(st.sampled_from([1, -2, Fraction(1, 3)])))
        products = (
            (a * RationalFunction.from_polynomial(m), RationalFunction(a.num * m, a.den)),
            (
                a * RationalFunction(Polynomial.constant(n, 1), den),
                RationalFunction(a.num, {f: a.den.get(f, 0) + den.get(f, 0) for f in factors}),
            ),
        )
        for product, reduced in products:
            assert (product.num, product.den) == (reduced.num, reduced.den)

    @given(
        polynomials(3, max_degree=3, max_terms=4),
        polynomials(3, max_degree=3, max_terms=4),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_operation_returns_a_reduced_value(self, p, q, data):
        # the operations that build their value without trial division must
        # still return the reduced form that the reducing constructor gives
        n = 3
        factors = [Factor("diff", 1, 2), Factor("sum", 1, 3), Factor("diff", 2, 3), Factor("sum", 1, 2)]
        mult = st.integers(min_value=0, max_value=2)

        def draw(num):
            for f in data.draw(st.lists(st.sampled_from(factors), max_size=2)):
                num = num * f.as_polynomial(n)  # so that a product or a sum may cancel
            return RationalFunction(num, {f: data.draw(mult) for f in factors})

        a, b = draw(p), draw(q)
        assume(a.den and b.den)
        exps = data.draw(st.tuples(*[st.integers(min_value=0, max_value=2)] * n))
        m = Polynomial.monomial(n, exps, data.draw(st.sampled_from([1, -2, Fraction(1, 3)])))
        c = data.draw(st.sampled_from([0, 1, -3, Fraction(2, 5)]))
        s, t = data.draw(st.sampled_from(list(combinations(range(1, n + 1), 2))))
        i = data.draw(st.integers(min_value=1, max_value=n))
        results = [
            -a,
            a.scale(c),
            a * RationalFunction.from_polynomial(m),
            a.transposed(s, t),
            a * RationalFunction(Polynomial.constant(n, 1), b.den),
            a * b,
            a + b,
            a.euler(i),
            RationalFunction.from_polynomial(a.num),
        ]
        for r in results:
            again = RationalFunction(r.num, dict(r.den))
            assert (again.num, again.den) == (r.num, r.den)
            assert all(r.den.values())
            assert not (r.num.is_zero() and r.den)

    def test_arithmetic_tries_only_the_factors_that_can_cancel(self, monkeypatch):
        from schurq import algebra

        n = 3
        d12, s13, d23 = Factor("diff", 1, 2), Factor("sum", 1, 3), Factor("diff", 2, 3)
        tried = []
        divide = algebra.exact_divide

        def counted_divide(p, f):
            tried.append(f)
            return divide(p, f)

        a = RationalFunction(x(n, 1) + x(n, 2) + x(n, 3), {d12: 2, s13: 1})
        b = RationalFunction(x(n, 2) + x(n, 3).scale(2), {d12: 1, s13: 1, d23: 1})
        assert (a.den, b.den) == ({d12: 2, s13: 1}, {d12: 1, s13: 1, d23: 1})
        c = RationalFunction(x(n, 1) + x(n, 2) + x(n, 3), {d12: 1, s13: 1, d23: 2})
        assert c.den == {d12: 1, s13: 1, d23: 2}
        m = RationalFunction.from_polynomial(Polynomial.monomial(n, (2, 0, 1), -3))
        monkeypatch.setattr(algebra, "exact_divide", counted_divide)
        for value, want in ((lambda: a + b, [s13]), (lambda: c.euler(1), [d23]), (lambda: c * m, [])):
            tried.clear()
            value()
            assert tried == want

    def test_a_product_or_sum_that_cancels_to_zero_has_no_denominator(self):
        n = 3
        a = RationalFunction(x(n, 1) + x(n, 2) + x(n, 3), {Factor("diff", 1, 2): 2, Factor("sum", 1, 3): 1})
        assert len(a.den) == 2
        zero = RationalFunction.zero(n)
        for value in (a * zero, zero * a, a - a, a + (-a)):
            assert value.is_zero() and value.den == {}
            assert value == zero

    def test_factors_must_lie_in_the_ring(self):
        n = 3
        num = x(n, 1) * x(n, 1) - x(n, 2) * x(n, 2)
        for f in (Factor("diff", 1, 4), Factor("sum", 2, 4), Factor("diff", 1, 5)):
            with pytest.raises(VariableCountMismatch):
                RationalFunction(num, {f: 1})


def same_n(max_degree=4, max_terms=4, count=2):
    """count polynomials in one n = 1..4, then n."""
    return st.integers(1, 4).flatmap(lambda n: st.tuples(
        *[polynomials(n, max_degree=max_degree, max_terms=max_terms)] * count, st.just(n)))


class TestDenominatorFree:
    """Operands without a denominator: a * b, a.euler(i) and a.transposed(s, t) are the numerators'."""

    @given(same_n(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_each_operation_is_the_numerators(self, case, data):
        p, q, n = case
        i, a, b = (data.draw(st.integers(1, n)) for _ in range(3))
        r, s = RationalFunction.from_polynomial(p), RationalFunction.from_polynomial(q)
        for value, expected in ((r * s, p * q), (r.euler(i), p.euler(i)), (r.transposed(a, b), p.transposed(a, b))):
            assert value.den == {} and value.num == expected and is_canonical(value.num)

    @given(same_n(max_degree=3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_product_with_a_denominator_is_reduced(self, case, data):
        p, q, n = case
        assume(n > 1)
        factors = [Factor(kind, i, j) for kind in ("diff", "sum") for i, j in combinations(range(1, n + 1), 2)]
        chosen = data.draw(st.lists(st.sampled_from(factors), min_size=1, max_size=2, unique=True))
        den = {f: data.draw(st.integers(1, 2)) for f in chosen}
        for f in data.draw(st.lists(st.sampled_from(chosen), max_size=3)):
            p = p * f.as_polynomial(n)  # so that the product can cancel
        a, b = RationalFunction.from_polynomial(p), RationalFunction(q, den)
        for value in (a * b, b * a):
            assert value == RationalFunction(p * q, den)  # the constructor tries every factor
            for f in value.den:
                with pytest.raises(NotDivisible):
                    exact_divide(value.num, f)

    @given(same_n(max_degree=3, max_terms=3, count=1))
    @settings(max_examples=60, deadline=None)
    def test_errors_still_raise(self, case):
        p, n = case
        r = RationalFunction.from_polynomial(p)
        with pytest.raises(VariableCountMismatch):
            r * RationalFunction.from_polynomial(Polynomial.constant(n + 1, 1))
        with pytest.raises(VariableCountMismatch):
            RationalFunction.constant(n + 1, 1) * r
        for bad in (0, n + 1):
            with pytest.raises(IndexError):
                r.euler(bad)
            with pytest.raises(IndexError):
                r.transposed(bad, 1)
            with pytest.raises(IndexError):
                r.transposed(n, bad)


def leibniz_determinant(rows, zero):
    """det by the permutation expansion, for entries of any commutative ring."""
    total = zero
    for perm in permutations(range(len(rows))):
        term = rows[0][perm[0]]
        for i in range(1, len(rows)):
            term = term * rows[i][perm[i]]
        inversions = sum(perm[a] > perm[b] for a, b in combinations(range(len(perm)), 2))
        total = total - term if inversions % 2 else total + term
    return total


def upper(rows):
    """The strict upper triangle of a square matrix, the form pfaffian reads."""
    return [row[a + 1:] for a, row in enumerate(rows)]


class TestPfaffian:
    def test_2x2(self):
        a = Fraction(5, 3)
        assert pfaffian(upper([[0, a], [-a, 0]])) == a

    def test_2x2_is_its_entry(self):
        p = x(2, 1) * x(2, 2) + Polynomial.constant(2, 3)
        assert pfaffian(upper([[Polynomial.zero(2), p], [-p, Polynomial.zero(2)]])) is p

    @given(st.lists(polynomials(2, max_degree=2, max_terms=3), min_size=6, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_square_equals_determinant_on_polynomials(self, entries):
        # a 4x4 Pfaffian expands into 2x2 blocks, so the base case runs below the top
        zero = Polynomial.zero(2)
        rows = [[zero] * 4 for _ in range(4)]
        for (a, b), p in zip(combinations(range(4), 2), entries):
            rows[a][b], rows[b][a] = p, -p
        pf = pfaffian(upper(rows))
        assert pf * pf == leibniz_determinant(rows, zero)

    def test_4x4_symbolic(self):
        # entries a12..a34 as independent variables
        n = 6
        names = {(1, 2): 1, (1, 3): 2, (1, 4): 3, (2, 3): 4, (2, 4): 5, (3, 4): 6}
        rows = [[Polynomial.zero(n)] * 4 for _ in range(4)]
        for (i, j), v in names.items():
            rows[i - 1][j - 1] = x(n, v)
            rows[j - 1][i - 1] = -x(n, v)
        pf = pfaffian(upper(rows), one=Polynomial.constant(n, 1))
        expected = x(n, 1) * x(n, 6) - x(n, 2) * x(n, 5) + x(n, 3) * x(n, 4)
        assert pf == expected

    def test_empty(self):
        assert pfaffian([]) == 1

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError, match="even size"):
            pfaffian(upper([[Fraction(0)] * 3] * 3))

    @staticmethod
    def polynomial_skew_4x4():
        n = 2
        rows = [[Polynomial.zero(n)] * 4 for _ in range(4)]
        for v, (a, b) in enumerate(combinations(range(4), 2), 1):
            p = Polynomial(n, {(v, 0): v, (1, 1): -2, (0, 0): Fraction(1, v + 1)})
            rows[a][b], rows[b][a] = p, -p
        return rows

    @classmethod
    def polynomial_upper_4x4(cls):
        return upper(cls.polynomial_skew_4x4())

    @pytest.mark.parametrize("defect", ["one coefficient off", "extra term", "symmetric pair",
                                        "nonzero diagonal", "variable counts"])
    def test_polynomial_entries_not_skew_rejected(self, defect):
        # a square matrix that is not skew-symmetric is refused by its shape, and its
        # upper triangle defines the skew matrix whose Pfaffian is taken
        rows = self.polynomial_skew_4x4()
        if defect == "one coefficient off":
            rows[3][1] = Polynomial(2, {m: c + (m == (0, 0)) for m, c in rows[3][1].sorted_terms()})
        elif defect == "extra term":
            rows[3][1] = rows[3][1] + x(2, 2)
        elif defect == "symmetric pair":
            rows[2][0] = rows[0][2]
        elif defect == "nonzero diagonal":
            rows[2][2] = x(2, 1)
        else:  # the same term map in one variable more
            rows[0][1], rows[1][0] = Polynomial.constant(2, 5), Polynomial.constant(3, -5)
        one = Polynomial.constant(2, 1)
        with pytest.raises(ValueError, match="strict upper triangle"):
            pfaffian(rows, one)
        assert pfaffian(upper(rows), one) == (
            rows[0][1] * rows[2][3] - rows[0][2] * rows[1][3] + rows[0][3] * rows[1][2]
        )

    @pytest.mark.parametrize("defect", ["too long", "too short", "non-empty last row", "full square"])
    def test_wrong_row_length_rejected(self, defect):
        r = self.polynomial_upper_4x4()
        if defect == "too long":
            r[1] = [Polynomial.zero(2)] + r[1]  # reaches the diagonal
        elif defect == "too short":
            r[0] = r[0][:2]
        elif defect == "non-empty last row":
            r[3] = [x(2, 1)]
        else:  # the square matrix in place of its upper triangle
            r = [[Polynomial.zero(2)] * 4 for _ in range(4)]
        with pytest.raises(ValueError, match="strict upper triangle"):
            pfaffian(r, Polynomial.constant(2, 1))

    @pytest.mark.parametrize("size", [2, 4, 6, 8])
    def test_square_equals_determinant(self, size):
        rng = random.Random(20240 + size)
        for _ in range(10):
            rows = [[Fraction(0)] * size for _ in range(size)]
            for i in range(size):
                for j in range(i + 1, size):
                    v = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    rows[i][j] = v
                    rows[j][i] = -v
            assert pfaffian(upper(rows)) ** 2 == determinant(rows)


def is_canonical(p):
    """Every stored coefficient is an int, or a Fraction that is not an integer."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in p.terms.values()
    )


class TestCanonicalCoefficients:
    @given(
        polynomials(3, max_degree=4, max_terms=4),
        polynomials(3, max_degree=4, max_terms=4),
        st.fractions(min_value=-4, max_value=4, max_denominator=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_operation_stores_canonical_coefficients(self, a, b, c):
        results = [a, a + b, a - b, a * b, a.scale(c), a.scale(4), a.euler(1), a.euler(3)]
        results += [substitute(a, {1: Fraction(1, 2), 3: T_MINUS}), substitute(a, {2: 2})]
        for f in (Factor("diff", 1, 3), Factor("sum", 2, 3)):
            results.append(exact_divide(a * f.as_polynomial(3), f))
        for p in results:
            assert is_canonical(p), p.terms

    def test_half_then_double_round_trip(self):
        n = 3
        p = (x(n, 1) + x(n, 2).scale(3) - Polynomial.constant(n, 1)) * (x(n, 1) - x(n, 3))
        p = p + schur_q(StrictPartition((2, 1)), n)
        half = p.scale(Fraction(1, 2))
        assert any(type(c) is Fraction for c in half.terms.values())
        back = half.scale(2)
        assert all(type(c) is int for c in back.terms.values())
        assert back == p
        assert hash(back) == hash(p)

    def test_floats_are_refused(self):
        p = x(2, 1) + x(2, 2)
        with pytest.raises(TypeError):
            Polynomial(1, {(1,): 0.1})
        with pytest.raises(TypeError):
            Polynomial.constant(2, 1.0)
        with pytest.raises(TypeError):
            p.scale(0.5)
        with pytest.raises(TypeError):
            RationalFunction(p, {Factor("diff", 1, 2): 1}).scale(2.0)
        with pytest.raises(TypeError):
            substitute(p, {1: 0.5})


class TestSerialization:
    def test_grevlex_text(self):
        p = Polynomial(2, {(1, 1): 2, (2, 0): 1, (0, 0): Fraction(-1, 2)})
        assert p.to_text() == "x1^2 + 2*x1*x2 - 1/2"

    def test_json_terms_sorted(self):
        p = Polynomial(2, {(0, 2): 1, (1, 1): 1, (2, 0): 1})
        obj = p.to_json_obj()
        assert [t["exp"] for t in obj["terms"]] == [[2, 0], [1, 1], [0, 2]]
        assert all(t["coeff"] == "1" for t in obj["terms"])
